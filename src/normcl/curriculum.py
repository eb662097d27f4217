"""Sentence difficulty, competence schedules, weights, batch sampling.

Difficulty criteria: the sum of word-vector norms over the source
sentence, plus token-count and word-rarity baselines.  Raw scores are
rank-normalized through the empirical CDF so the hardest sentence sits
at exactly 1.  Competence grows either with the square root of the
step count or with the growth of the model's own source-embedding
norm; the sampler trains only on sentences whose normalized difficulty
lies strictly below current competence, and each sampled sentence is
weighted by (difficulty / competence) ** lambda_w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import ParallelCorpus, Vocabulary, atomic_write, read_fields
from .embedding import EmbeddingTable
from .errors import ConfigError, DataError, DegenerateStateError

__all__ = [
    "cdf_normalize",
    "competence_time", "competence_norm", "embedding_matrix_norm",
    "sentence_weight", "DifficultyProfile", "CompetenceSchedule",
    "SamplerState", "sample_batch", "CRITERIA", "COMPETENCE_KINDS",
]

CRITERIA = ("norm", "length", "rarity")
COMPETENCE_KINDS = ("time_sqrt", "norm_based", "none")

_SAVE_ROWS = 4096  # difficulty rows formatted per write


# ---------------------------------------------------------------------------
# Difficulty criteria
# ---------------------------------------------------------------------------

def _sentence_sums(corpus: ParallelCorpus, value: np.ndarray) -> np.ndarray:
    """Per source sentence, the sum of ``value[id]`` over its tokens.

    Each sum runs left to right, as a Python loop would: column ``j``
    (every sentence's ``j``-th token) is added in one step to the sums
    of the sentences longer than ``j``.  np.add.reduceat would add in
    another order and change the last bits.
    """
    lengths, ids = corpus.src_lengths, corpus.src
    if (lengths == 0).any():
        raise DataError("cannot score an empty sentence")
    if len(lengths) == 0:
        return np.zeros(0)
    if ids.min() < 0 or ids.max() >= len(value):
        raise DataError(f"token id outside the scoring table of {len(value)} ids")
    starts = corpus.src_offsets[:-1]
    sums = np.zeros(len(lengths))
    for j in range(lengths.max()):
        rows = np.flatnonzero(lengths > j)
        sums[rows] += value[ids[starts[rows] + j]]
    return sums


def cdf_normalize(raws: Sequence[float]) -> np.ndarray:
    """Empirical CDF: output[n] = #{k : raw[k] <= raw[n]} / N.

    Ties share the max-rank value, so the hardest raw maps to exactly 1.
    """
    raws = np.asarray(raws, dtype=np.float64)
    if raws.size == 0:
        raise DataError("cannot normalize an empty difficulty list")
    order = np.sort(raws)
    return np.searchsorted(order, raws, side="right") / raws.size


# ---------------------------------------------------------------------------
# Competence
# ---------------------------------------------------------------------------

def competence_time(t: int, c0: float, lambda_t: int) -> float:
    """min(1, sqrt(t*(1-c0^2)/lambda_t + c0^2)) with exact endpoints;
    ``CompetenceSchedule`` checks ``c0`` and ``lambda_t``."""
    if t == 0:
        return c0
    if t >= lambda_t:
        return 1.0
    return min(1.0, math.sqrt(t * (1.0 - c0 * c0) / lambda_t + c0 * c0))


def competence_norm(m_t: float, m0: float, c0: float, lambda_m: float) -> float:
    """min(1, sqrt(max(0, m_t-m0)*(1-c0^2)/(lambda_m*m0) + c0^2));
    ``CompetenceSchedule`` checks ``c0``, ``lambda_m`` and ``m0``."""
    diff = m_t - m0
    if diff <= 0:
        return c0
    if diff >= lambda_m * m0:
        return 1.0
    return min(1.0, math.sqrt(diff * (1.0 - c0 * c0) / (lambda_m * m0) + c0 * c0))


def embedding_matrix_norm(matrix: np.ndarray) -> float:
    """Sum of the row norms of an embedding matrix.

    The row-norm sum keeps the scale commensurate with per-word norms.
    It is reduced in float64 whatever the matrix dtype, so the
    competence of a float32 model moves as smoothly as a float64 one's.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    value = float(np.linalg.norm(matrix, axis=-1).sum())
    if value == 0.0:
        raise DegenerateStateError("embedding matrix is all zeros")
    return value


def sentence_weight(d_hat, c_hat: float, lambda_w: float):
    """(d_hat / c_hat) ** lambda_w; lambda_w = 0 gives exactly 1.

    ``d_hat`` is one difficulty or an array of them, so a batch is
    weighted in one call; the result has its shape.  ``DifficultyProfile``
    keeps ``d_hat`` in (0, 1], ``c_hat`` is at least ``CompetenceSchedule``'s
    positive ``c0``, and ``CurriculumConfig`` checks ``lambda_w``.
    """
    if lambda_w == 0:
        return np.ones_like(d_hat, dtype=np.float64)
    return (d_hat / c_hat) ** lambda_w


# ---------------------------------------------------------------------------
# Difficulty profile
# ---------------------------------------------------------------------------

@dataclass
class DifficultyProfile:
    """Raw and CDF-normalized difficulty per sentence id."""

    raw: np.ndarray
    cdf: np.ndarray
    criterion: str

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.float64)
        self.cdf = np.asarray(self.cdf, dtype=np.float64)
        if self.raw.shape != self.cdf.shape or self.raw.ndim != 1:
            raise DataError("raw and cdf must be equal-length vectors")
        bad = np.flatnonzero(~np.isfinite(self.raw))
        if bad.size:
            raise DataError(f"non-finite raw difficulty for sentence {bad[0]}")
        bad = np.flatnonzero(~((self.cdf > 0) & (self.cdf <= 1)))
        if bad.size:
            raise DataError(f"difficulty cdf outside (0, 1] for sentence {bad[0]}")

    def __len__(self) -> int:
        return len(self.raw)

    @classmethod
    def build(cls, corpus: ParallelCorpus, criterion: str,
              table: EmbeddingTable | None = None,
              vocab: Vocabulary | None = None,
              invert: bool = False) -> "DifficultyProfile":
        """Score every source sentence; invert=True flips the ordering
        (anti-curriculum) before CDF normalization."""
        if criterion == "norm":
            if table is None:
                raise ConfigError("criterion=norm needs an embedding table")
            raw = _sentence_sums(corpus, table.word_norms)
        elif criterion == "length":
            raw = corpus.src_lengths.astype(np.float64)
        elif criterion == "rarity":
            if vocab is None:
                raise ConfigError("criterion=rarity needs a vocabulary")
            # -log unigram probability; zero-count ids get the rarest
            # in-vocabulary probability
            total = vocab.total_count
            floor = min((c for c in vocab.counts if c > 0), default=0)
            if floor == 0:
                raise DataError("criterion=rarity needs a vocabulary with counts")
            surprisal = [-math.log((c if c > 0 else floor) / total)
                         for c in vocab.counts]
            raw = _sentence_sums(corpus, np.array(surprisal))
        else:
            raise ConfigError(f"unknown difficulty criterion {criterion!r}")
        cdf = cdf_normalize(-raw if invert else raw)
        return cls(raw, cdf, criterion)

    def save(self, path) -> None:
        # a block of rows at a time, so the text is never held whole
        with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
            for start in range(0, len(self), _SAVE_ROWS):
                end = start + _SAVE_ROWS
                rows = zip(range(start, end), self.raw[start:end].tolist(),
                           self.cdf[start:end].tolist())
                fh.write("".join(f"{i}\t{raw!r}\t{cdf!r}\t{self.criterion}\n"
                                 for i, raw, cdf in rows))

    @classmethod
    def load(cls, path) -> "DifficultyProfile":
        raws, cdfs, criterion = [], [], None
        for lineno, (sid, raw, cdf, crit) in read_fields(
                path, "\t", (int, float, float, str), "difficulty"):
            if sid != len(raws):
                raise DataError(f"non-contiguous sentence id {sid} in {path}")
            if crit not in CRITERIA:
                raise DataError(f"unknown difficulty criterion {crit!r} "
                                f"at line {lineno} in {path}")
            if criterion not in (None, crit):
                raise DataError(f"difficulty criterion {crit!r} at line {lineno} "
                                f"in {path} differs from line 1's {criterion!r}")
            raws.append(raw)
            cdfs.append(cdf)
            criterion = crit
        if criterion is None:
            raise DataError(f"empty difficulty file {path}")
        try:
            return cls(np.array(raws), np.array(cdfs), criterion)
        except DataError as exc:
            raise DataError(f"{exc} in {path}") from None


# ---------------------------------------------------------------------------
# Competence schedule
# ---------------------------------------------------------------------------

@dataclass
class CompetenceSchedule:
    """Stateful wrapper over the competence formulas.

    ``driver`` is the running peak of observed embedding-matrix norms,
    anchored at ``m0``, which is captured once, right after parameter
    initialization.  The norm-based kind reads its competence from it,
    so competence never regresses when the raw norm wobbles downward;
    every kind tracks it, so the trace reports the same driver for all.
    Kind ``none`` is the curriculum-free baseline: competence is 1.
    """

    kind: str
    c0: float = 0.01
    lambda_t: int | None = None
    lambda_m: float | None = 2.5
    m0: float | None = None
    driver: float = field(default=0.0)

    def __post_init__(self):
        # messages open with the field name, so a config block can
        # prefix its own name to them
        if self.kind not in COMPETENCE_KINDS:
            raise ConfigError(
                f"kind must be one of {COMPETENCE_KINDS}, got {self.kind!r}"
            )
        if not 0 < self.c0 <= 1:
            raise ConfigError(f"c0 must be in (0, 1], got {self.c0}")
        if self.lambda_t is None and self.kind == "time_sqrt":
            raise ConfigError("lambda_t must be set when kind is time_sqrt")
        if self.lambda_t is not None and self.lambda_t < 1:
            raise ConfigError(
                f"lambda_t must be a positive step count, got {self.lambda_t}"
            )
        if self.lambda_m is None and self.kind == "norm_based":
            raise ConfigError("lambda_m must be set when kind is norm_based")
        if self.lambda_m is not None and self.lambda_m <= 0:
            raise ConfigError(f"lambda_m must be > 0, got {self.lambda_m}")
        if not self.driver >= 0:
            raise ConfigError(f"driver must be >= 0, got {self.driver}")
        if self.m0 is not None:
            self.set_anchor(self.m0)

    def set_anchor(self, m0: float) -> None:
        if not m0 > 0:
            raise ConfigError(f"m0 must be positive, got {m0}")
        self.m0 = m0
        self.driver = max(self.driver, m0)

    def observe_norm(self, m_t: float) -> None:
        self.driver = max(self.driver, m_t)

    def competence(self, completed_steps: int) -> float:
        """Competence given the number of completed optimizer steps."""
        if self.kind == "none":
            return 1.0
        if self.kind == "time_sqrt":
            return competence_time(completed_steps, self.c0, self.lambda_t)
        if self.m0 is None:
            raise ConfigError("norm_based schedule used before set_anchor")
        return competence_norm(self.driver, self.m0, self.c0, self.lambda_m)


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

class SamplerState:
    """Owns the difficulty-sorted id order and the sampling RNG.

    Without a ``profile`` the order is the corpus order and every
    sentence is eligible; the vanilla baseline uses it so that a
    curriculum-free reference loop consuming the same RNG reproduces
    its draws exactly.  ``CurriculumConfig`` checks ``token_budget`` and
    ``min_pool``.
    """

    def __init__(self, corpus: ParallelCorpus,
                 profile: DifficultyProfile | None,
                 token_budget: int, min_pool: int = 64, seed: int = 0):
        n = len(corpus)
        if profile is None:
            self.order = np.arange(n)
            self.sorted_cdf = None
        else:
            if len(profile) != n:
                raise DataError(
                    f"profile covers {len(profile)} sentences, corpus has {n}"
                )
            self.order = np.lexsort((np.arange(n), profile.cdf))
            self.sorted_cdf = profile.cdf[self.order]
        # longer side of each pair, in difficulty order, for budget checks
        self.max_side = np.maximum(corpus.src_lengths,
                                   corpus.tgt_lengths)[self.order]
        self.token_budget = token_budget
        self.min_pool = min_pool
        self.rng = np.random.default_rng(seed)

    def eligible_count(self, c_hat: float) -> int:
        """Strict cdf < c_hat, with c_hat >= 1 meaning the whole corpus
        and a floor of the min_pool easiest sentences."""
        n = len(self.order)
        if self.sorted_cdf is None or c_hat >= 1.0:
            return n
        k = int(np.searchsorted(self.sorted_cdf, c_hat, side="left"))
        return max(k, min(self.min_pool, n))

    def rng_state(self) -> dict:
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state


def sample_batch(state: SamplerState, corpus: ParallelCorpus,
                 c_hat: float) -> np.ndarray:
    """Uniform draw from the eligible pool under a per-side token budget;
    returns the sentence ids in draw order.

    Within a batch sentences never repeat; across batches they can.
    The first drawn pair is always taken, then pairs accumulate until
    the next one would push either side past token_budget.
    """
    k = state.eligible_count(c_hat)
    if state.token_budget < state.max_side[:k].min():
        raise ConfigError(
            f"token_budget {state.token_budget} cannot fit any eligible pair"
        )
    ids = state.order[state.rng.permutation(k)]
    # running totals only grow, so the pairs that fit are a prefix
    fits = ((np.cumsum(corpus.src_lengths[ids]) <= state.token_budget)
            & (np.cumsum(corpus.tgt_lengths[ids]) <= state.token_budget))
    return ids[:max(1, int(fits.sum()))]
