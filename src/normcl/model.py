"""Compact transformer encoder-decoder over the local tensor kernels.

Pre-layer-norm residual blocks with a final layer norm on each stack,
sinusoidal positions, no affine parameters in layer norm.  Position
rows are computed for the positions each call embeds, so sequences
have no length limit.  The target input embedding doubles as the
output projection, with no output bias.
Loss is weighted per-token cross-entropy:
sum_s(w_s * NLL_s) / sum_s(w_s * len_s), which reduces to plain
per-token cross-entropy at all-ones weights.

The model computes in ``ModelConfig.dtype`` (float32 by default):
parameters, positional encodings, attention masks, activations, dropout
masks and so gradients all hold that dtype.  Only the loss tail runs in
float64: the per-position NLL is multiplied by float64 position weights
(sentence weight times loss mask), so the weighted sum, the loss and
the per-sentence NLL are reduced in float64.  Dropout's keep decisions
come from 16-bit draws whatever the dtype, so the random stream and the
kept entries do not depend on it.

``decode`` takes an optional ``DecoderCache`` for incremental decoding:
it then runs only the target positions the cache has not seen yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, ParallelCorpus
from .errors import ConfigError, DataError, ShapeError
from .tensor import (
    Tensor, add, attention, concat, cross_entropy_with_log_softmax, dropout,
    embedding_lookup, layer_norm, linear, matmul, mul, relu, reshape,
    residual_dropout, scale, tensor_sum, transpose,
)

__all__ = ["ModelConfig", "EncodedBatch", "build_batch", "DecoderCache",
           "Transformer"]

NEG_INF = -1e9
DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class ModelConfig:
    """``dropout`` drops sub-layer outputs and embedding sums only (Vaswani
    et al. 2017, section 5.4), in steps of 1/65536 (``tensor._keep_mask``):
    below 2**-17 it drops nothing, and it must round below 1."""
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    dropout: float = 0.1
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")
        for name in ("d_model", "n_heads", "n_layers", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not (0.0 <= self.dropout < 1.0 and round(self.dropout * 65536) < 65536):
            raise ConfigError(f"dropout must be in [0, 1 - 2**-17), got {self.dropout}")


# ---------------------------------------------------------------------------
# Batch construction
# ---------------------------------------------------------------------------

@dataclass
class EncodedBatch:
    ids: np.ndarray        # (B,) sentence ids
    src: np.ndarray        # (B, Ts) source ids, eos-terminated, padded
    tgt_in: np.ndarray     # (B, Tt) bos + target
    tgt_out: np.ndarray    # (B, Tt) target + eos
    src_mask: np.ndarray   # (B, 1, 1, Ts) additive, NEG_INF on padding
    loss_mask: np.ndarray  # (B, Tt) 1.0 on real target positions
    tgt_lens: np.ndarray   # (B,) real target lengths incl. eos


def _pad(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
         width: int) -> np.ndarray:
    """Rows ``flat[starts[i]:starts[i] + lengths[i]]``, padded to ``width``."""
    out = np.full((len(starts), width), PAD_ID, dtype=np.int64)
    cols = np.arange(width)
    real = cols < lengths[:, None]
    out[real] = flat[(starts[:, None] + cols)[real]]
    return out


def build_batch(corpus: ParallelCorpus, ids) -> EncodedBatch:
    """Pad the pairs ``ids`` of ``corpus`` into dense arrays.

    The source gets an end-of-sentence terminator; target input/output
    are the usual one-step-shifted pair around bos/eos.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if not len(ids):
        raise DataError("cannot build an empty batch")
    rows = np.arange(len(ids))
    ns, nt = corpus.src_lengths[ids], corpus.tgt_lengths[ids]
    ts, tt = int(ns.max()) + 1, int(nt.max()) + 1
    src = _pad(corpus.src, corpus.src_offsets[ids], ns, ts)
    src[rows, ns] = EOS_ID
    tgt_out = _pad(corpus.tgt, corpus.tgt_offsets[ids], nt, tt)
    tgt_in = np.empty_like(tgt_out)
    tgt_in[:, 0] = BOS_ID
    tgt_in[:, 1:] = tgt_out[:, :-1]
    tgt_out[rows, nt] = EOS_ID
    loss_mask = (np.arange(tt) <= nt[:, None]).astype(np.float64)
    src_mask = np.where(np.arange(ts) > ns[:, None], NEG_INF, 0.0)[:, None, None, :]
    return EncodedBatch(ids, src, tgt_in, tgt_out, src_mask, loss_mask, nt + 1)


def _causal_mask(t: int, dtype) -> np.ndarray:
    m = np.triu(np.full((t, t), NEG_INF, dtype=dtype), k=1)
    return m[None, None, :, :]


def _positional_encoding(start: int, end: int, d_model: int, dtype) -> np.ndarray:
    """Sinusoid rows for positions ``start`` to ``end - 1``; each entry
    depends only on its own position and column."""
    pos = np.arange(start, end, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, i / d_model)
    pe = np.empty((end - start, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe.astype(dtype)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class DecoderCache:
    """Attention keys and values of the decoder positions run so far.

    ``length`` counts the target positions already run.  Self-attention
    layers keep theirs in ``kv``, one row per ``tgt_in`` row, and append
    the new positions.  Cross-attention layers compute theirs from
    ``memory`` on the first call, one row per source, and keep them in
    ``cross_kv``; ``owner`` maps each decoder row to its source.  Arrays
    are (rows, positions, d_model), the projections before ``attention``
    splits heads.  Cached arrays are constants: no gradient flows back
    into earlier positions, so use a cache for inference only.
    """

    def __init__(self):
        self.length = 0
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.cross_kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.owner: np.ndarray | None = None  # None: the identity
        # (source of each run, run length) when the rows split into runs
        # of one length, each run consecutive rows of one source
        self.runs: tuple[np.ndarray, int] | None = None

    def select(self, rows) -> None:
        """Keep (and reorder, or repeat) the given decoder rows, e.g. the
        parent beams of the survivors of a beam step; cross-attention
        arrays stay per source, only ``owner`` follows the rows."""
        rows = np.asarray(rows, dtype=np.int64)
        self.kv = {name: (k[rows], v[rows]) for name, (k, v) in self.kv.items()}
        self.owner = rows if self.owner is None else self.owner[rows]
        starts = np.flatnonzero(np.diff(self.owner, prepend=-1))
        lengths = np.diff(starts, append=len(self.owner))
        even = lengths.size and (lengths == lengths[0]).all()
        self.runs = (self.owner[starts], int(lengths[0])) if even else None


class Transformer:
    def __init__(self, config: ModelConfig, src_vocab_size: int,
                 tgt_vocab_size: int, load=None):
        """``load(name, shape)``, when given, supplies each parameter's
        values (e.g. from a checkpoint) in place of a random draw."""
        if src_vocab_size < 5 or tgt_vocab_size < 5:
            raise ConfigError("vocabularies must include the four specials")
        self.config = config
        self.src_vocab_size = src_vocab_size
        self.tgt_vocab_size = tgt_vocab_size
        self.dtype = np.dtype(config.dtype)
        self.rng = np.random.default_rng((config.seed, 1))
        init = np.random.default_rng((config.seed, 0))
        d, ff = config.d_model, config.d_ff

        self.params: dict[str, Tensor] = {}

        # initial values are drawn in float64 and rounded to the model
        # dtype, so both dtypes start from the same draws
        def param(name, shape, draw):
            values = draw(shape) if load is None else load(name, shape)
            self.params[name] = Tensor(values.astype(self.dtype, copy=False),
                                       requires_grad=True)

        def uniform(bound):
            return lambda shape: init.uniform(-bound, bound, size=shape)

        def embed(name, rows):
            param(name, (rows, d),
                  lambda shape: init.normal(0.0, 1.0 / math.sqrt(d), size=shape))

        def proj(name, fan_in, fan_out):
            param(name + ".w", (fan_in, fan_out), uniform(1.0 / math.sqrt(fan_in)))
            param(name + ".b", (fan_out,), np.zeros)

        embed("src_embed", src_vocab_size)
        embed("tgt_embed", tgt_vocab_size)
        for l in range(config.n_layers):
            for name in (f"enc{l}.self", f"dec{l}.self", f"dec{l}.cross"):
                for part in ("wq", "wk", "wv", "wo"):
                    proj(f"{name}.{part}", d, d)
            for side in (f"enc{l}", f"dec{l}"):
                proj(f"{side}.ff1", d, ff)
                proj(f"{side}.ff2", ff, d)

    # -- building blocks ---------------------------------------------------

    def _rate(self, train: bool) -> float:
        return self.config.dropout if train else 0.0

    def _linear(self, name: str, x: Tensor) -> Tensor:
        return linear(x, self.params[name + ".w"], self.params[name + ".b"])

    def _attention(self, name: str, q_in: Tensor, kv_in: Tensor,
                   mask: np.ndarray | None,
                   cache: DecoderCache | None = None,
                   static_kv: bool = False) -> Tensor:
        """Multi-head attention; with a cache, keys and values are
        appended to the cached ones, or, when ``static_kv``
        (cross-attention over a fixed memory), computed once per source
        and shared by the decoder rows that source owns."""
        q = self._linear(name + ".wq", q_in)
        shape = q.shape
        if static_kv and cache is not None:
            if name not in cache.cross_kv:
                cache.cross_kv[name] = (self._linear(name + ".wk", kv_in).data,
                                        self._linear(name + ".wv", kv_in).data)
            k, v = cache.cross_kv[name]
            runs = cache.runs
            if runs and runs[1] > 1 and (mask is None or mask.shape[0] == 1):
                # each source's run of rows queries it as one block, so
                # keys are gathered per source, not per row
                q = reshape(q, (len(runs[0]), runs[1] * shape[1], shape[2]))
                k, v = k[runs[0]], v[runs[0]]
            elif cache.owner is not None:
                k, v = k[cache.owner], v[cache.owner]
            k, v = Tensor(k), Tensor(v)
        else:
            k = self._linear(name + ".wk", kv_in)
            v = self._linear(name + ".wv", kv_in)
            cached = cache.kv.get(name) if cache is not None else None
            if cached is not None:
                k = concat([Tensor(cached[0]), k], axis=1)
                v = concat([Tensor(cached[1]), v], axis=1)
            if cache is not None:
                cache.kv[name] = (k.data, v.data)
        ctx = attention(q, k, v, mask, self.config.n_heads)
        if ctx.shape != shape:
            ctx = reshape(ctx, shape)
        return self._linear(name + ".wo", ctx)

    def _ff(self, name: str, x: Tensor) -> Tensor:
        return self._linear(name + ".ff2", relu(self._linear(name + ".ff1", x)))

    def _sublayer(self, x: Tensor, fn, train: bool) -> Tensor:
        return residual_dropout(x, fn(layer_norm(x)), self._rate(train),
                                self.rng)

    def _embed_in(self, name: str, ids: np.ndarray, train: bool,
                  start: int = 0) -> Tensor:
        """Embed ``ids`` as the positions from ``start`` on."""
        # no sqrt(d_model) lookup scaling: rows start small against the
        # positional signal, and training grows them as they take on
        # lexical content — the live norm is a meaningful progress signal
        x = embedding_lookup(self.params[name], ids)
        x = add(x, Tensor(_positional_encoding(
            start, start + ids.shape[1], self.config.d_model, self.dtype)))
        return dropout(x, self._rate(train), self.rng)

    # -- forward -----------------------------------------------------------

    def encode(self, src: np.ndarray, src_mask: np.ndarray,
               train: bool = False) -> Tensor:
        src_mask = src_mask.astype(self.dtype, copy=False)
        x = self._embed_in("src_embed", src, train)
        for l in range(self.config.n_layers):
            x = self._sublayer(
                x, lambda y, l=l: self._attention(f"enc{l}.self", y, y,
                                                  src_mask), train)
            x = self._sublayer(x, lambda y, l=l: self._ff(f"enc{l}", y), train)
        return layer_norm(x)

    def decode(self, memory: Tensor, src_mask: np.ndarray,
               tgt_in: np.ndarray, train: bool = False,
               cache: DecoderCache | None = None) -> Tensor:
        """Logits (B, Tt, V) for every target position.

        ``tgt_in`` is always the whole prefix.  With a ``cache``, only
        the positions from ``cache.length`` on are run, and the logits
        cover just those; the cache then holds every position of
        ``tgt_in``.
        """
        t = tgt_in.shape[1]
        start = 0 if cache is None else cache.length
        if start >= t:
            raise ShapeError(
                f"prefix of length {t} has no position past the cached {start}"
            )
        src_mask = src_mask.astype(self.dtype, copy=False)
        x = self._embed_in("tgt_embed", tgt_in[:, start:], train, start)
        causal = _causal_mask(t, self.dtype)[:, :, start:, :]
        for l in range(self.config.n_layers):
            x = self._sublayer(
                x, lambda y, l=l: self._attention(f"dec{l}.self", y, y,
                                                  causal, cache), train)
            x = self._sublayer(
                x, lambda y, l=l: self._attention(f"dec{l}.cross", y, memory,
                                                  src_mask, cache,
                                                  static_kv=True), train)
            x = self._sublayer(x, lambda y, l=l: self._ff(f"dec{l}", y), train)
        x = layer_norm(x)
        b, n, d = x.shape
        flat = matmul(reshape(x, (b * n, d)),
                      transpose(self.params["tgt_embed"]))
        if cache is not None:
            cache.length = t
        return reshape(flat, (b, n, self.tgt_vocab_size))

    def forward(self, batch: EncodedBatch, train: bool = False) -> Tensor:
        memory = self.encode(batch.src, batch.src_mask, train)
        return self.decode(memory, batch.src_mask, batch.tgt_in, train)

    def forward_loss(self, batch: EncodedBatch,
                     weights: Sequence[float] | None = None,
                     train: bool = False) -> tuple[Tensor, np.ndarray]:
        """Weighted scalar loss plus detached per-sentence NLL sums."""
        b, tt = batch.tgt_out.shape
        if weights is None:
            weights = np.ones(b)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (b,):
            raise ConfigError(
                f"need one weight per sentence: got {weights.shape} for batch {b}"
            )
        if (weights <= 0).any():
            raise ConfigError("sentence weights must be positive")
        total_tokens = batch.loss_mask.sum()
        if total_tokens == 0:
            raise DataError("batch has no unmasked target tokens")

        logits = self.forward(batch, train)
        flat = reshape(logits, (b * tt, self.tgt_vocab_size))
        nll = cross_entropy_with_log_softmax(flat, batch.tgt_out.reshape(-1))
        per_sentence = (nll.data.reshape(b, tt) * batch.loss_mask).sum(axis=1)

        pos_weight = (weights[:, None] * batch.loss_mask).reshape(-1)
        weighted = tensor_sum(mul(nll, Tensor(pos_weight)))
        denom = float((weights * batch.tgt_lens).sum())
        loss = scale(weighted, 1.0 / denom)
        return loss, per_sentence

    # -- parameter plumbing --------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def source_embedding(self) -> np.ndarray:
        """The source embedding table, in the model dtype."""
        return self.params["src_embed"].data
