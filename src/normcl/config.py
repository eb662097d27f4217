"""Run configuration: nested blocks, JSON round-trip, overrides, hashing.

One JSON document configures a whole run.  Block subconfigs reuse the
owning module's dataclass where one exists (sgns, model), or build the
owning module's object from their values (curriculum builds its
competence schedule, eval its beam settings), so every range check
lives in one place and fires at construction time, before any compute
starts.
The ``seed`` at the top level flows into sgns/model seeds unless those
blocks pin their own.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .curriculum import CRITERIA, MATRIX_NORMS, CompetenceSchedule
from .decoding import BeamConfig
from .embedding import SgnsConfig
from .errors import ConfigError
from .model import ModelConfig

__all__ = [
    "CorpusConfig", "CurriculumConfig", "OptimizerConfig", "EvalConfig",
    "RunConfig", "run_config_from_dict", "run_config_to_dict",
    "load_config_file", "apply_overrides", "config_hash", "require_file",
]


def _prefixed(block: str, build):
    """Run ``build`` and prefix any ConfigError with the block name."""
    try:
        return build()
    except ConfigError as exc:
        raise ConfigError(f"{block}.{exc}") from None


@dataclass
class CorpusConfig:
    source: str = ""
    target: str = ""
    dev_source: str = ""
    dev_target: str = ""
    min_count: int = 1
    max_len: int = 200
    merges: int = 0

    def __post_init__(self):
        if self.min_count < 1:
            raise ConfigError(f"corpus.min_count must be >= 1, got {self.min_count}")
        if self.max_len < 1:
            raise ConfigError(f"corpus.max_len must be >= 1, got {self.max_len}")
        if self.merges < 0:
            raise ConfigError(f"corpus.merges must be >= 0, got {self.merges}")


@dataclass
class CurriculumConfig:
    criterion: str = "norm"
    kind: str = "norm_based"
    c0: float = 0.01
    lambda_t: int | None = None
    lambda_m: float = 2.5
    lambda_w: float = 0.5
    min_pool: int = 64
    token_budget: int = 512
    matrix_norm: str = "row_sum"
    invert: bool = False

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ConfigError(
                f"curriculum.criterion must be one of {CRITERIA}, "
                f"got {self.criterion!r}"
            )
        _prefixed("curriculum", self.schedule)
        if self.lambda_w < 0:
            raise ConfigError(f"curriculum.lambda_w must be >= 0, got {self.lambda_w}")
        if self.min_pool < 1:
            raise ConfigError(f"curriculum.min_pool must be >= 1, got {self.min_pool}")
        if self.token_budget < 1:
            raise ConfigError(
                f"curriculum.token_budget must be >= 1, got {self.token_budget}"
            )
        if self.matrix_norm not in MATRIX_NORMS:
            raise ConfigError(
                f"curriculum.matrix_norm must be one of {MATRIX_NORMS}, "
                f"got {self.matrix_norm!r}"
            )

    def schedule(self) -> CompetenceSchedule:
        """A fresh, unanchored competence schedule for this block."""
        return CompetenceSchedule(self.kind, c0=self.c0, lambda_t=self.lambda_t,
                                  lambda_m=self.lambda_m)


@dataclass
class OptimizerConfig:
    warmup: int = 400
    peak_lr: float = 2e-3

    def __post_init__(self):
        if self.warmup < 1:
            raise ConfigError(f"optimizer.warmup must be >= 1, got {self.warmup}")
        if self.peak_lr <= 0:
            raise ConfigError(f"optimizer.peak_lr must be > 0, got {self.peak_lr}")


@dataclass
class EvalConfig:
    beam_size: int = 6
    alpha: float = 0.6
    max_decode_len: int = 64
    smooth_bleu: bool = False

    def __post_init__(self):
        _prefixed("eval", self.beam_config)

    def beam_config(self) -> BeamConfig:
        return BeamConfig(beam_size=self.beam_size, alpha=self.alpha,
                          max_decode_len=self.max_decode_len)


@dataclass
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    sgns: SgnsConfig = field(default_factory=SgnsConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    total_steps: int = 1000
    log_interval: int = 50
    eval_interval: int = 200
    out_dir: str = ""

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.log_interval < 1:
            raise ConfigError(f"log_interval must be >= 1, got {self.log_interval}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        root = os.environ.get("NORMCL_OUT", "")
        return Path(root) if root else Path(".")


_BLOCKS = {
    "corpus": CorpusConfig,
    "sgns": SgnsConfig,
    "curriculum": CurriculumConfig,
    "model": ModelConfig,
    "optimizer": OptimizerConfig,
    "eval": EvalConfig,
}

# blocks whose own seed defaults to the run-level seed
_SEEDED_BLOCKS = ("sgns", "model")


def _build_block(name: str, cls, data: dict):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {name} config fields: {', '.join(sorted(unknown))}"
        )
    return cls(**data)


def run_config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig; unknown keys anywhere are errors."""
    data = dict(data)
    top_fields = {f.name for f in fields(RunConfig)}
    unknown = set(data) - top_fields
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    seed = data.get("seed", 0)
    kwargs = {}
    for name, cls in _BLOCKS.items():
        block = dict(data.pop(name, {}))
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name!r} must be an object")
        if name in _SEEDED_BLOCKS:
            block.setdefault("seed", seed)
        kwargs[name] = _build_block(name, cls, block)
    kwargs.update(data)
    return RunConfig(**kwargs)


def run_config_to_dict(config: RunConfig) -> dict:
    return asdict(config)


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def apply_overrides(data: dict, assignments) -> dict:
    """Apply ``block.field=value`` strings; values parse as JSON with a
    bare-string fallback, so --set corpus.source=train.txt just works."""
    out = json.loads(json.dumps(data))
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through scalar at {key!r}")
        node[keys[-1]] = value
    return out


def config_hash(config: RunConfig) -> str:
    """Experiment identity for resume refusal.

    total_steps and out_dir are excluded: extending a run or moving
    its directory is the point of resuming.
    """
    d = run_config_to_dict(config)
    d.pop("total_steps", None)
    d.pop("out_dir", None)
    blob = json.dumps(d, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def require_file(path, what: str) -> Path:
    p = Path(path) if path else None
    if p is None or str(p) == "" or not p.is_file():
        raise ConfigError(f"{what} not found: {str(path)!r}")
    return p
