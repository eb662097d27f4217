"""Run configuration: nested blocks, JSON round-trip, overrides, hashing.

One JSON document configures a whole run.  Block subconfigs reuse the
owning module's dataclass where one exists (sgns, model, eval), or
build the owning module's object from their values (curriculum builds
its competence schedule), so every range check lives in one place and
fires at construction time, before any compute starts.  Each check
names its field; ``run_config_from_dict`` adds the block name.  Before
that, ``_build_block`` checks each value's JSON type against its field's
annotation and refuses a non-finite float; checkpoint headers pass the
same check.
The ``seed`` at the top level flows into sgns/model seeds unless those
blocks pin their own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .curriculum import CRITERIA, CompetenceSchedule
from .decoding import BeamConfig
from .embedding import SgnsConfig
from .errors import ConfigError
from .model import ModelConfig

__all__ = [
    "CorpusConfig", "CurriculumConfig", "OptimizerConfig",
    "RunConfig", "run_config_from_dict", "run_config_to_dict",
    "load_config_file", "apply_overrides", "config_hash", "require_file",
]


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
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.merges < 0:
            raise ConfigError(f"merges must be >= 0, got {self.merges}")


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
    invert: bool = False

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ConfigError(
                f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        self.schedule()
        if self.lambda_w < 0:
            raise ConfigError(f"lambda_w must be >= 0, got {self.lambda_w}")
        if self.min_pool < 1:
            raise ConfigError(f"min_pool must be >= 1, got {self.min_pool}")
        if self.token_budget < 1:
            raise ConfigError(f"token_budget must be >= 1, got {self.token_budget}")

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
            raise ConfigError(f"warmup must be >= 1, got {self.warmup}")
        if self.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be > 0, got {self.peak_lr}")


@dataclass
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    sgns: SgnsConfig = field(default_factory=SgnsConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    eval: BeamConfig = field(default_factory=BeamConfig)
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
    "eval": BeamConfig,
}

# blocks whose own seed defaults to the run-level seed
_SEEDED_BLOCKS = ("sgns", "model")


def _check_types(prefix: str, cls, data: dict) -> None:
    """Refuse a value whose JSON type its field's annotation does not
    allow: a bool is no int, an int is a float, None only where named.
    A float must be finite, as NaN passes a range check like ``x <= 0``."""
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        if not any(type(value) is t or t is float and type(value) is int
                   for t in allowed):
            names = " or ".join("null" if t is type(None) else t.__name__
                                for t in allowed)
            raise ConfigError(f"{prefix}{key} must be {names}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{prefix}{key} must be finite, got {value!r}")


def _build_block(name: str, cls, data: dict):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError("unknown config fields: " + ", ".join(
            f"{name}.{key}" for key in sorted(unknown)))
    _check_types(f"{name}.", cls, data)
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from None


def run_config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig; unknown keys anywhere are errors."""
    data = dict(data)
    top_fields = {f.name for f in fields(RunConfig)}
    unknown = set(data) - top_fields
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    _check_types("", RunConfig, {k: v for k, v in data.items() if k not in _BLOCKS})
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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config file {path} nests JSON too deeply") from None
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
        except RecursionError:
            raise ConfigError(f"override {path!r} nests JSON too deeply") from None
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
