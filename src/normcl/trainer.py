"""Training steps, the norm probe, and checkpoint persistence.

A checkpoint is one binary file: magic bytes, a format version, a
length-prefixed UTF-8 JSON blob (config snapshot plus scalar state:
step, the norm anchor, schedule state, RNG states, optimizer step),
then named float64 tensors covering parameters and Adam moments.
Round-trips are bit-exact, so resumed runs reproduce unbroken ones.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .curriculum import CompetenceSchedule, embedding_matrix_norm
from .errors import CheckpointError, TrainingDiverged
from .model import EncodedBatch, ModelConfig, Transformer, build_batch
from .optim import AdamState, adam_step

__all__ = ["TrainerState", "train_step", "token_accuracy",
           "save_checkpoint", "load_checkpoint"]

MAGIC = b"NCLK"
FORMAT_VERSION = 1
_META_KEYS = frozenset((
    "config", "model_config", "src_vocab_size", "tgt_vocab_size", "step",
    "m0", "matrix_norm_mode", "schedule", "adam_step", "adam_betas",
    "adam_eps", "model_rng",
))


@dataclass
class TrainerState:
    """Everything the training loop mutates, bundled for persistence."""

    model: Transformer
    adam: AdamState
    step: int = 0
    m0: float | None = None
    schedule: CompetenceSchedule | None = None
    matrix_norm_mode: str = "row_sum"
    config_snapshot: dict = field(default_factory=dict)
    # opaque JSON-safe extras persisted with the checkpoint (the cli
    # parks the sampler RNG state and the dev evaluations so far here,
    # so resume replays exact draws and reports every evaluation)
    extra_state: dict = field(default_factory=dict)

    def capture_anchor(self) -> float:
        """Record the source-embedding norm of the freshly initialized
        model; must run before the first optimizer step."""
        self.m0 = embedding_matrix_norm(self.model.source_embedding(),
                                        self.matrix_norm_mode)
        if self.schedule is not None:
            self.schedule.set_anchor(self.m0)
        return self.m0


def train_step(state: TrainerState, batch: EncodedBatch,
               weights, lr: float) -> dict:
    """One forward/backward/Adam update; returns {loss, lr, m_t, nll}."""
    model = state.model
    loss, per_sentence = model.forward_loss(batch, weights, train=True)
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged(
            f"non-finite loss {value!r}", step=state.step + 1,
            batch_ids=list(batch.ids))
    model.zero_grad()
    loss.backward()
    try:
        adam_step(model.params, state.adam, lr)
    except TrainingDiverged as exc:
        raise TrainingDiverged(str(exc), step=state.step + 1,
                               batch_ids=list(batch.ids)) from exc
    state.step += 1
    m_t = embedding_matrix_norm(model.source_embedding(),
                                state.matrix_norm_mode)
    return {"loss": value, "lr": lr, "m_t": m_t, "nll": per_sentence}


def token_accuracy(model: Transformer, pairs, batch_size: int = 64) -> float:
    """Teacher-forced next-token argmax accuracy, padding excluded."""
    correct = 0
    total = 0
    for lo in range(0, len(pairs), batch_size):
        batch = build_batch(pairs[lo:lo + batch_size])
        logits = model.forward(batch, train=False)
        pred = logits.data.argmax(axis=-1)
        hits = (pred == batch.tgt_out) * batch.loss_mask
        correct += int(hits.sum())
        total += int(batch.loss_mask.sum())
    return correct / total if total else 0.0


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _write_tensor(fh, name: str, array: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<Q", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<Q", array.ndim))
    for dim in array.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint file")
    return buf


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<Q", _read_exact(fh, 8))
    name = _decode(_read_exact(fh, name_len), "tensor name")
    (rank,) = struct.unpack("<Q", _read_exact(fh, 8))
    shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(rank))
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(_read_exact(fh, count * 8), dtype="<f8").reshape(shape)
    return name, data.astype(np.float64)


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"garbled checkpoint {what}: {exc}") from exc


def _take_tensor(tensors: dict, key: str, shape: tuple) -> np.ndarray:
    """The named tensor, which must be present with exactly ``shape``."""
    if key not in tensors:
        raise CheckpointError(f"checkpoint missing tensor {key}")
    if tensors[key].shape != shape:
        raise CheckpointError(
            f"tensor {key} has shape {tensors[key].shape}, expected {shape}"
        )
    return tensors[key]


def save_checkpoint(state: TrainerState, path) -> None:
    model = state.model
    meta = {
        "config": state.config_snapshot,
        "model_config": asdict(state.model.config),
        "src_vocab_size": model.src_vocab_size,
        "tgt_vocab_size": model.tgt_vocab_size,
        "step": state.step,
        "m0": state.m0,
        "matrix_norm_mode": state.matrix_norm_mode,
        "schedule": None if state.schedule is None else state.schedule.state_dict(),
        "adam_step": state.adam.step,
        "adam_betas": [state.adam.beta1, state.adam.beta2],
        "adam_eps": state.adam.eps,
        "model_rng": model.rng.bit_generator.state,
        "extra": state.extra_state,
    }
    tensors: list[tuple[str, np.ndarray]] = []
    for name, p in model.params.items():
        tensors.append(("param/" + name, p.data))
    for name, m in state.adam.m.items():
        tensors.append(("adam_m/" + name, m))
    for name, v in state.adam.v.items():
        tensors.append(("adam_v/" + name, v))

    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<Q", len(tensors)))
        for name, array in tensors:
            _write_tensor(fh, name, array)


def load_checkpoint(path) -> TrainerState:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {version} unsupported (expected {FORMAT_VERSION})"
            )
        (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8))
        header = _decode(_read_exact(fh, blob_len), "header")
        try:
            meta = json.loads(header)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"garbled checkpoint header: {exc}") from exc
        if not isinstance(meta, dict) or not _META_KEYS <= meta.keys():
            raise CheckpointError("checkpoint header lacks required fields")
        (n_tensors,) = struct.unpack("<Q", _read_exact(fh, 8))
        tensors = dict(_read_tensor(fh) for _ in range(n_tensors))

    model_config = ModelConfig(**meta["model_config"])
    model = Transformer(model_config, meta["src_vocab_size"],
                        meta["tgt_vocab_size"])
    # _read_tensor returned fresh arrays, so they are adopted uncopied
    for name, p in model.params.items():
        p.data = _take_tensor(tensors, "param/" + name, p.data.shape)
    model.rng.bit_generator.state = meta["model_rng"]

    b1, b2 = meta["adam_betas"]
    adam = AdamState(model.params, beta1=b1, beta2=b2, eps=meta["adam_eps"])
    adam.step = meta["adam_step"]
    for name, p in model.params.items():
        adam.m[name] = _take_tensor(tensors, "adam_m/" + name, p.data.shape)
        adam.v[name] = _take_tensor(tensors, "adam_v/" + name, p.data.shape)

    schedule = (None if meta["schedule"] is None
                else CompetenceSchedule.from_state(meta["schedule"]))
    return TrainerState(
        model=model, adam=adam, step=meta["step"], m0=meta["m0"],
        schedule=schedule, matrix_norm_mode=meta["matrix_norm_mode"],
        config_snapshot=meta["config"], extra_state=meta.get("extra", {}),
    )
