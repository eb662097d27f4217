"""Skip-gram negative-sampling embeddings and per-word vector norms.

Pure numpy trainer.  One update step processes every (center, context)
pair of a center position at once: positives are the context ids inside
a dynamically drawn window, negatives come from the unigram
distribution raised to the 3/4 power.  Input-side vectors are the
product; their Euclidean row norms drive sentence difficulty scoring.

Training is single-threaded and bit-reproducible: a fixed seed gives
the same vectors on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import UNK_ID, read_lines
from .errors import ConfigError, DataError

__all__ = ["SgnsConfig", "EmbeddingTable", "train_sgns", "sgns_step"]


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.05
    min_count: int = 5
    subsample_threshold: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "epochs", "min_count"):
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

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def word_norm(self, token_id: int) -> float:
        """Row norm; the unknown token reports the vocabulary maximum.

        Out-of-vocabulary words are rare by construction, so the
        unknown token contributes the highest difficulty available.
        """
        if not 0 <= token_id < len(self.tokens):
            raise IndexError(f"token id {token_id} outside vocabulary of {len(self.tokens)}")
        if token_id == UNK_ID:
            return float(self.norms.max())
        return float(self.norms[token_id])

    def save_vectors(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(self.tokens)} {self.dim}\n")
            for tok, row in zip(self.tokens, self.matrix):
                fh.write(tok + " " + " ".join(map(repr, row.tolist())) + "\n")

    @classmethod
    def load_vectors(cls, path) -> "EmbeddingTable":
        lines = read_lines(path)
        try:
            n, dim = map(int, next(lines).split())
        except (StopIteration, ValueError) as exc:
            raise DataError(f"bad vectors header in {path}") from exc
        tokens, rows = [], []
        for line in lines:
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise DataError(f"bad vector row for {parts[0]!r} in {path}")
            tokens.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
        if len(tokens) != n:
            raise DataError(f"vectors file {path} declares {n} rows, has {len(tokens)}")
        return cls(tokens, np.array(rows, dtype=np.float64))

    def save_norms(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok, norm in zip(self.tokens, self.norms):
                fh.write(f"{tok}\t{float(norm)!r}\n")


def sgns_step(w_in: np.ndarray, w_out: np.ndarray, center: int,
              targets: np.ndarray, n_pos: int, lr: float) -> None:
    """One in-place update for a center word against pos+neg targets.

    ``targets[:n_pos]`` carry label 1, the rest label 0.  Output rows
    update through np.add.at so duplicate target ids accumulate.
    """
    v = w_in[center]
    u = w_out[targets]
    scores = np.clip(u @ v, -50.0, 50.0)
    sigma = 1.0 / (1.0 + np.exp(-scores))
    g = -sigma * lr
    g[:n_pos] += lr
    dv = g @ u
    # write w_out first: v is a view into w_in, and both updates must
    # read the pre-step vectors
    np.add.at(w_out, targets, g[:, None] * v)
    w_in[center] = v + dv


def train_sgns(corpus: Iterable[Sequence[int]], config: SgnsConfig,
               tokens: Sequence[str]) -> EmbeddingTable:
    """Train input-side vectors over a stream of token-id lines.

    The vocabulary (``tokens``) must already reflect config.min_count;
    ids in the corpus index into it.
    """
    vocab_size = len(tokens)
    if vocab_size < config.negatives + 1:
        raise ConfigError(
            f"vocabulary of {vocab_size} is too small for {config.negatives} negatives"
        )
    lines = [np.asarray(line, dtype=np.int64) for line in corpus if len(line) > 0]
    if not lines:
        raise DataError("cannot train embeddings on an empty corpus")

    counts = np.zeros(vocab_size, dtype=np.float64)
    for line in lines:
        if line.min() < 0 or line.max() >= vocab_size:
            raise DataError("token id outside vocabulary range in training corpus")
        np.add.at(counts, line, 1.0)
    total = counts.sum()

    noise = counts ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0  # guard against cumulative rounding

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
    total_budget = int(total) * config.epochs
    lr_floor = config.initial_lr * 1e-4
    rng = np.random.default_rng((config.seed, 0))
    seen = 0
    for _ in range(config.epochs):
        for line in lines:
            lr = max(config.initial_lr * (1.0 - seen / total_budget), lr_floor)
            kept = line[rng.random(len(line)) < keep_prob[line]]
            seen += len(line)
            n = len(kept)
            if n < 2:
                continue
            spans = rng.integers(1, config.window + 1, size=n)
            for i in range(n):
                b = int(spans[i])
                ctx = np.concatenate((kept[max(0, i - b):i], kept[i + 1:i + 1 + b]))
                k = len(ctx)
                if k == 0:
                    continue
                negs = np.searchsorted(noise_cdf, rng.random(k * config.negatives))
                sgns_step(w_in, w_out, int(kept[i]),
                          np.concatenate((ctx, negs)), k, lr)
    return EmbeddingTable(tokens, w_in)
