"""Training steps, the norm probe, and checkpoint persistence.

A checkpoint is one binary file: magic bytes, a format version, a
length-prefixed UTF-8 JSON header of the thirteen fields of the state
(``config_hash``, ``vocab_digest``, ``model_config``,
``src_vocab_size``, ``tgt_vocab_size``, ``params``, ``step``,
``schedule`` with its anchor ``m0``, ``adam_step``, ``model_rng``,
``sampler_rng``, ``evals``, and ``trace``, the logged trace rows
``[step, m_t, competence, eligible_fraction, mean_weight, loss, lr]``),
each checked on load, then one raw body:
every parameter in ``params`` order, then Adam's flat first and second
moments, little-endian in the dtype ``model_config.dtype`` names.  The
shapes follow from the model config and vocabulary sizes, so the body
must hold exactly three times the parameter count; a header that names
the wrong dtype or model is refused.  Round-trips are bit-exact, so
resumed runs reproduce unbroken ones.

A checkpoint is written to a temporary file beside its target, synced,
and renamed over the target, so a crash mid-write leaves the previous
checkpoint intact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import _build_block
from .corpus import ParallelCorpus, atomic_write
from .curriculum import CompetenceSchedule, embedding_matrix_norm
from .errors import CheckpointError, ConfigError, TrainingDiverged
from .model import EncodedBatch, ModelConfig, Transformer, build_batch
from .optim import AdamState, adam_step
from .tensor import no_grad

__all__ = ["TrainerState", "train_step", "token_accuracy",
           "save_checkpoint", "load_checkpoint"]

MAGIC = b"NCLK"
FORMAT_VERSION = 6
# pairs per dev-accuracy batch: 300 length-sorted dev pairs (d_model 64,
# 2+2 layers, float32, one thread) took 20.5, 18.7, 19.5 and 31.6 ms at
# 32, 64, 100 and 300 pairs per batch
DEV_BATCH = 64


@dataclass
class TrainerState:
    """Everything the training loop mutates, bundled for persistence."""

    model: Transformer
    adam: AdamState
    schedule: CompetenceSchedule = field(
        default_factory=lambda: CompetenceSchedule("none"))
    step: int = 0
    config_hash: str = ""
    vocab_digest: str = ""
    sampler_rng: dict | None = None
    evals: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    def capture_anchor(self) -> None:
        """Anchor the schedule at the source-embedding norm of the freshly
        initialized model; must run before the first optimizer step."""
        self.schedule.set_anchor(
            embedding_matrix_norm(self.model.source_embedding()))


def train_step(state: TrainerState, batch: EncodedBatch,
               weights, lr: float) -> dict:
    """One forward/backward/Adam update; returns {loss, lr, m_t, nll}."""
    model = state.model
    loss, per_sentence = model.forward_loss(batch, weights, train=True)
    value = loss.item()
    try:
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss {value!r}")
        model.zero_grad()
        loss.backward()
        adam_step(model.params, state.adam, lr)
    except TrainingDiverged as exc:
        step, ids = state.step + 1, batch.ids.tolist()
        raise TrainingDiverged(f"{exc} at step {step}, batch sentence ids {ids}",
                               step=step, batch_ids=ids) from None
    state.step += 1
    m_t = embedding_matrix_norm(model.source_embedding())
    return {"loss": value, "lr": lr, "m_t": m_t, "nll": per_sentence}


def token_accuracy(model: Transformer, corpus: ParallelCorpus) -> float:
    """Teacher-forced next-token argmax accuracy over every pair of
    ``corpus``, padding excluded.

    Batches of ``DEV_BATCH`` pairs are taken in order of target, then
    source length, so they hold little padding (length-bucketed batching
    as in fairseq, Ott et al. 2019).  Hits over real tokens do not depend
    on the order; a pair's logits may move in the last float32 bits,
    because the softmax's row sum groups its terms by the padded key
    length.
    """
    order = np.lexsort((corpus.src_lengths, corpus.tgt_lengths))
    correct = 0
    total = 0
    for lo in range(0, len(order), DEV_BATCH):
        batch = build_batch(corpus, order[lo:lo + DEV_BATCH])
        with no_grad():
            logits = model.forward(batch, train=False)
        pred = logits.data.argmax(axis=-1)
        hits = (pred == batch.tgt_out) * batch.loss_mask
        correct += int(hits.sum())
        total += int(batch.loss_mask.sum())
    return correct / total if total else 0.0


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _storage_dtype(dtype: str) -> np.dtype:
    return np.dtype(dtype).newbyteorder("<")


def save_checkpoint(state: TrainerState, *paths) -> None:
    """Serialize ``state`` once and write the same bytes to each path."""
    model = state.model
    meta = {
        "config_hash": state.config_hash,
        "vocab_digest": state.vocab_digest,
        "model_config": asdict(model.config),
        "src_vocab_size": model.src_vocab_size,
        "tgt_vocab_size": model.tgt_vocab_size,
        "params": list(model.params),
        "step": state.step,
        "schedule": asdict(state.schedule),
        "adam_step": state.adam.step,
        "model_rng": model.rng.bit_generator.state,
        "sampler_rng": state.sampler_rng,
        "evals": state.evals,
        "trace": state.trace,
    }
    dtype = _storage_dtype(model.config.dtype)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = [p.data for p in model.params.values()]
    pieces = [MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob,
              *(np.ascontiguousarray(array, dtype=dtype)
                for array in (*body, state.adam.flat_m, state.adam.flat_v))]
    for path in paths:
        with atomic_write(path) as fh:
            for piece in pieces:
                fh.write(piece)


# the JSON types each header value may have (a bool is no int here);
# every int is a count, so a negative one is refused too
_META_TYPES = {
    "config_hash": (str,), "vocab_digest": (str,), "model_config": (dict,),
    "src_vocab_size": (int,), "tgt_vocab_size": (int,), "params": (list,),
    "step": (int,), "schedule": (dict,), "adam_step": (int,), "model_rng": (dict,),
    "sampler_rng": (dict, type(None)), "evals": (list,), "trace": (list,),
}
_EVAL_TYPES = {"step": int, "token_accuracy": float, "loss": float}
_TRACE_TYPES = [int] + [float] * 6


def _bad_header(key: str, why) -> CheckpointError:
    return CheckpointError(f"bad {key} in checkpoint header: {why}")


def _parse_header(raw: bytes) -> tuple[dict, ModelConfig, CompetenceSchedule]:
    """The checked header: its values, model config and schedule.  The
    last two pass the check a run configuration's blocks pass."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"garbled checkpoint header: {exc}") from exc
    if not isinstance(meta, dict) or not _META_TYPES.keys() <= meta.keys():
        raise CheckpointError("checkpoint header lacks required fields")
    for key, types in _META_TYPES.items():
        value = meta[key]
        if type(value) not in types or type(value) is int and value < 0:
            raise _bad_header(key, f"{value!r:.60}")
    for key in ("model_rng", "sampler_rng"):
        if meta[key] is not None:
            try:
                np.random.PCG64(0).state = meta[key]
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise _bad_header(key, exc) from None
    if any(type(e) is not dict or {k: type(v) for k, v in e.items()} != _EVAL_TYPES
           for e in meta["evals"]):
        raise _bad_header("evals", f"{meta['evals']!r:.60}")
    for i, row in enumerate(meta["trace"], 1):
        if type(row) is not list or list(map(type, row)) != _TRACE_TYPES:
            raise _bad_header("trace", f"row {i} is {row!r:.60}")
    built = []
    for key, cls in (("model_config", ModelConfig),
                     ("schedule", CompetenceSchedule)):
        try:
            built.append(_build_block(key, cls, meta[key]))
        except (TypeError, ConfigError) as exc:
            raise _bad_header(key, exc) from None
    return meta, *built


def _params_differ(names: list, i: int, want: str) -> CheckpointError:
    """The header's parameter names first differ from the model's at ``i``."""
    got = repr(names[i]) if i < len(names) else "missing"
    return _bad_header("params", f"entry {i} is {got}, the model's is {want}")


def _short_body(nbytes: int, dtype: np.dtype, need) -> CheckpointError:
    return CheckpointError(f"checkpoint body holds {nbytes} bytes, but "
                           f"model_config.dtype {dtype.name} needs {need}")


def load_checkpoint(path) -> TrainerState:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    if len(raw) < 16:
        raise CheckpointError("truncated checkpoint file")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {version} unsupported (expected {FORMAT_VERSION})"
        )
    start = 16 + header_len
    if start > len(raw):
        raise CheckpointError("truncated checkpoint file")
    meta, model_config, schedule = _parse_header(raw[16:start])

    # the body, viewed in place: each parameter is copied out of it once
    # its name matches the header's and the body holds it, so a header
    # naming a model larger than the body allocates no oversized array
    dtype = _storage_dtype(model_config.dtype)
    nbytes = len(raw) - start
    body = np.frombuffer(raw, dtype, nbytes // dtype.itemsize, start)
    names, count, size = meta["params"], 0, 0

    def take(name, shape):
        nonlocal count, size
        if count == len(names) or names[count] != name:
            raise _params_differ(names, count, repr(name))
        lo, count, size = size, count + 1, size + math.prod(shape)
        if size > body.size:
            raise _short_body(nbytes, dtype, f"at least {3 * size * dtype.itemsize}")
        return body[lo:size].reshape(shape).copy()

    try:
        model = Transformer(model_config, meta["src_vocab_size"],
                            meta["tgt_vocab_size"], load=take)
    except ConfigError as exc:  # a vocabulary without room for the specials
        raise _bad_header("vocabulary sizes", exc) from None
    if count != len(names):
        raise _params_differ(names, count, "missing")
    if nbytes != 3 * size * dtype.itemsize:
        raise _short_body(nbytes, dtype, 3 * size * dtype.itemsize)
    model.rng.bit_generator.state = meta["model_rng"]

    adam = AdamState(model.params)
    adam.step = meta["adam_step"]
    adam.flat_m[...] = body[size:2 * size]
    adam.flat_v[...] = body[2 * size:]

    return TrainerState(model=model, adam=adam, schedule=schedule,
                        step=meta["step"], config_hash=meta["config_hash"],
                        vocab_digest=meta["vocab_digest"],
                        sampler_rng=meta["sampler_rng"], evals=meta["evals"],
                        trace=meta["trace"])
