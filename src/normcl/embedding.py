"""Skip-gram negative-sampling embeddings and per-word vector norms.

Pure numpy trainer.  The corpus is one flat id array plus line offsets.
Each chunk of lines is sampled with a few vectorized draws: word2vec
occurrence subsampling, a window span per kept center, and negatives
from the unigram distribution raised to the 3/4 power; the learning
rate decays linearly with the raw tokens seen before each line.  A
center's context is one range of kept positions in its line.
Negatives come from a table of power-of-two bins over the noise CDF,
which gives the ids a binary search would.  Updates run in blocks of
centers: a vocabulary-sized table, kept zeroed between blocks, maps the
block's ids to its distinct center and target rows without sorting,
one product of those rows gives every score, and every pair of a block
reads the vectors as they were before the block.  Input-side vectors
are the product; their row norms drive sentence difficulty scoring.

A fixed seed gives the same vectors on every run at a fixed BLAS thread
count; the block products go through BLAS, so another thread count can
change their last bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import UNK_ID, atomic_write, read_fields
from .errors import ConfigError, DataError

__all__ = ["SgnsConfig", "EmbeddingTable", "train_sgns", "sgns_step"]


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.05
    subsample_threshold: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.initial_lr <= 0:
            raise ConfigError(f"initial_lr must be > 0, got {self.initial_lr}")
        if not 0 < self.subsample_threshold <= 1:
            raise ConfigError(
                f"subsample_threshold must be in (0, 1], got {self.subsample_threshold}"
            )


class EmbeddingTable:
    """Input-side vectors plus cached Euclidean row norms."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise DataError(
                f"matrix shape {matrix.shape} does not match {len(tokens)} tokens"
            )
        self.tokens = list(tokens)
        self.matrix = matrix
        self.norms = np.linalg.norm(matrix, axis=1)
        # the per-id norms difficulty reads: the unknown token takes the
        # vocabulary maximum, since out-of-vocabulary words are rare by
        # construction and so get the highest difficulty available
        self.word_norms = self.norms.copy()
        if len(self.word_norms) > UNK_ID:
            self.word_norms[UNK_ID] = self.norms.max()

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def save_vectors(self, path) -> None:
        with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
            fh.write(f"{len(self.tokens)} {self.dim}\n")
            for tok, row in zip(self.tokens, self.matrix):
                fh.write(tok + " " + " ".join(map(repr, row.tolist())) + "\n")

    @classmethod
    def load_vectors(cls, path) -> "EmbeddingTable":
        header = next(read_fields(path, " ", (int, int), "vectors header"), None)
        if header is None:
            raise DataError(f"empty vectors file {path}")
        n, dim = header[1]
        # a row holds at least two bytes per entry, so a larger dim is a
        # damaged header, refused before its row types are built
        if not 0 < dim < os.path.getsize(path):
            raise DataError(f"bad vector dimension {dim} in the header of {path}")
        tokens, rows = [], []
        for lineno, (tok, *row) in read_fields(path, " ", (str,) + (float,) * dim,
                                               "vector", start=2):
            if not all(map(math.isfinite, row)):
                raise DataError(f"non-finite vector entry at line {lineno} in {path}")
            rows.append(row)
            tokens.append(tok)
        if len(tokens) != n:
            raise DataError(f"vectors file {path} declares {n} rows, has {len(tokens)}")
        return cls(tokens, np.array(rows, dtype=np.float64))

    def save_norms(self, path) -> None:
        with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
            for tok, norm in zip(self.tokens, self.norms):
                fh.write(f"{tok}\t{float(norm)!r}\n")


# Centers per sgns_step call.  Every pair of a block reads the vectors
# as they were before the block, and larger blocks measured worse: at 256
# a word seen in one fixed context outgrew a word seen in many in only 5
# of 10 seeds (TestNormTrends asks for 9), and at 1024 the Spearman rho of
# norm against log count fell from about -0.95 to about 0.
_BLOCK = 64
# Lines sampled per draw.  Sampling a whole epoch at once holds its pair
# arrays in memory together; a chunk bounds them.
_CHUNK_LINES = 1024


class _Chunk(NamedTuple):
    """The sampled stream of one chunk of lines.  Positions index the
    flat corpus; per-center arrays, and the runs of ``context`` and
    ``noise`` that belong to each center, follow corpus order."""

    kept: np.ndarray       # positions of the tokens subsampling kept
    center: np.ndarray     # positions of the kept tokens that have context
    span: np.ndarray       # window span drawn for each center
    lr: np.ndarray         # learning rate of each center's line
    n_context: np.ndarray  # positive targets per center
    context: np.ndarray    # positions of the positive targets, center by center
    noise: np.ndarray      # noise ids, negatives * n_context per center


class _BlockIndex:
    """``np.unique(ids, return_inverse=True)`` for ids below ``size``,
    through a table of ``size`` slots instead of a sort.

    The table lives between calls and is zero outside them: a call sets
    only the slots of its ids and clears them before it returns, and a
    call with another ``size`` replaces it.  So one vocabulary's table
    is all that is kept, and the two sides of a block share it.  Calls
    from two threads at once would share it too; training runs in one.
    """

    def __init__(self):
        self.table = np.zeros(0, dtype=np.intp)

    def __call__(self, ids: np.ndarray, size: int):
        if len(self.table) != size:
            self.table = np.zeros(size, dtype=np.intp)
        table = self.table
        table[ids] = 1
        uniq = table.nonzero()[0]
        table[uniq] = np.arange(len(uniq))
        inverse = table[ids]
        table[uniq] = 0
        return uniq, inverse


_block_index = _BlockIndex()


class _NoiseTable:
    """``np.searchsorted(cdf, r)`` for ``r`` in [0, 1), ``cdf`` accumulating
    ``counts ** 0.75``.  A draw starts at the first cdf entry in its bin and
    steps on at most ``steps`` times, the most entries one bin holds; with
    a power-of-two ``bins``, ``r * bins`` and ``b / bins`` are exact."""

    def __init__(self, counts: np.ndarray):
        noise = counts ** 0.75
        self.cdf = np.cumsum(noise / noise.sum())
        self.cdf[-1] = 1.0  # guard against cumulative rounding
        self.bins = 1 << (len(self.cdf) - 1).bit_length()
        self.first = np.searchsorted(self.cdf, np.arange(self.bins + 1) / self.bins)
        self.steps = int(np.diff(self.first).max())

    def lookup(self, r: np.ndarray) -> np.ndarray:
        i = self.first[(r * self.bins).astype(np.intp)]
        for _ in range(self.steps):
            i += self.cdf[i] < r
        return i


def sgns_step(w_in: np.ndarray, w_out: np.ndarray, centers: np.ndarray,
              targets: np.ndarray, labels: np.ndarray, lr) -> None:
    """One in-place update for a block of (center, target) pairs.

    Pair ``p`` joins ``centers[p]`` to ``targets[p]`` with label
    ``labels[p]`` (1 for a context word, 0 for a negative) at learning
    rate ``lr`` (a scalar or one rate per pair).  Scores come from one
    product of the block's distinct center and target rows; gradients of
    repeated pairs accumulate, and every pair reads the vectors as they
    were before the block.
    """
    rows, row_of = _block_index(centers, len(w_in))
    cols, col_of = _block_index(targets, len(w_out))
    v = w_in.take(rows, axis=0)
    u = w_out.take(cols, axis=0)
    cell = row_of * len(cols) + col_of
    # g = labels * lr - sigma * lr, sigma = 1 / (1 + exp(-clip(score))):
    # the same operations in the same order, in one array
    g = (v @ u.T).reshape(-1)[cell]
    np.clip(g, -50.0, 50.0, out=g)
    np.negative(g, out=g)
    np.exp(g, out=g)
    g += 1.0
    np.divide(1.0, g, out=g)
    g *= lr
    np.subtract(labels * lr, g, out=g)
    grad = np.bincount(cell, weights=g, minlength=len(rows) * len(cols))
    grad = grad.reshape(len(rows), len(cols))
    du = grad.T @ v
    v += grad @ u
    u += du
    w_out[cols] = u
    w_in[rows] = v


def _sample_chunk(flat: np.ndarray, starts: np.ndarray, seen: int,
                  keep_prob: np.ndarray, noise: _NoiseTable,
                  config: SgnsConfig, total_budget: int,
                  rng: np.random.Generator) -> _Chunk:
    """Subsample, draw spans and draw negatives for the lines whose
    first positions are ``starts[:-1]``; ``starts[-1]`` ends the last.

    ``seen`` counts the tokens of earlier epochs; a line's learning rate
    decays with the raw tokens before it.
    """
    lo, hi = starts[0], starts[-1]
    kept = lo + np.flatnonzero(rng.random(hi - lo) < keep_prob[flat[lo:hi]])
    line = np.searchsorted(starts, kept, side="right") - 1
    n_kept = np.bincount(line, minlength=len(starts) - 1)
    # the first and last index into kept of each kept token's line
    first = (np.cumsum(n_kept) - n_kept)[line]
    last = first + n_kept[line] - 1
    span = rng.integers(1, config.window + 1, size=len(kept))
    # the context of kept[j]: kept[max(j - span, first) : min(j + span,
    # last) + 1] without kept[j] itself
    j = np.arange(len(kept))
    left = np.maximum(j - span, first)
    n_context = np.minimum(j + span, last) - left
    has = n_context > 0
    lr = np.maximum(
        config.initial_lr * (1.0 - (seen + starts[line[has]]) / total_budget),
        config.initial_lr * 1e-4)
    n_context = n_context[has]
    run = np.repeat(left[has] - (np.cumsum(n_context) - n_context), n_context)
    at = np.arange(len(run)) + run
    at += at >= np.repeat(j[has], n_context)
    draws = rng.random(len(at) * config.negatives)
    return _Chunk(kept, kept[has], span[has], lr, n_context, kept[at],
                  noise.lookup(draws))


def train_sgns(flat: np.ndarray, offsets: np.ndarray, config: SgnsConfig,
               tokens: Sequence[str]) -> EmbeddingTable:
    """Train input-side vectors over token-id lines.

    Line ``i`` is ``flat[offsets[i]:offsets[i + 1]]``; empty lines are
    skipped.  Ids index into the vocabulary ``tokens``, which the caller
    has already cut to its minimum count.
    """
    vocab_size = len(tokens)
    if vocab_size < config.negatives + 1:
        raise ConfigError(
            f"vocabulary of {vocab_size} is too small for {config.negatives} negatives"
        )
    starts = np.unique(offsets)  # the first position of each non-empty line
    if len(starts) < 2:
        raise DataError("cannot train embeddings on an empty corpus")
    if flat.min() < 0 or flat.max() >= vocab_size:
        raise DataError("token id outside vocabulary range in training corpus")

    counts = np.bincount(flat, minlength=vocab_size).astype(np.float64)
    total = counts.sum()

    noise = _NoiseTable(counts)

    # word2vec-style occurrence subsampling
    freq = counts / total
    t = config.subsample_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        keep_prob = (np.sqrt(freq / t) + 1.0) * (t / freq)
    keep_prob = np.where(freq > 0, np.minimum(keep_prob, 1.0), 0.0)

    rng0 = np.random.default_rng(config.seed)
    w_in = rng0.uniform(-0.5 / config.dim, 0.5 / config.dim,
                        size=(vocab_size, config.dim))
    w_out = np.zeros((vocab_size, config.dim), dtype=np.float64)
    total_budget = len(flat) * config.epochs
    rng = np.random.default_rng((config.seed, 0))
    for epoch in range(config.epochs):
        for line0 in range(0, len(starts) - 1, _CHUNK_LINES):
            chunk = _sample_chunk(flat, starts[line0:line0 + _CHUNK_LINES + 1],
                                  epoch * len(flat), keep_prob, noise,
                                  config, total_budget, rng)
            # pairs center by center: its positives, then its negatives
            n_pos = chunk.n_context
            per_center = n_pos * (1 + config.negatives)
            bounds = np.cumsum(np.concatenate(([0], per_center)))
            label = np.repeat(np.tile([True, False], len(n_pos)),
                              np.stack((n_pos, n_pos * config.negatives), 1).ravel())
            target = np.empty(len(label), dtype=np.int64)
            target[label] = flat[chunk.context]
            target[~label] = chunk.noise
            center = np.repeat(flat[chunk.center], per_center)
            lr = np.repeat(chunk.lr, per_center)
            for b in range(0, len(chunk.center), _BLOCK):
                p, q = bounds[b], bounds[min(b + _BLOCK, len(chunk.center))]
                sgns_step(w_in, w_out, center[p:q], target[p:q], label[p:q],
                          lr[p:q])
    return EmbeddingTable(tokens, w_in)
