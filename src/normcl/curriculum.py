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

from .corpus import ParallelCorpus, Vocabulary, read_lines
from .embedding import EmbeddingTable
from .errors import ConfigError, DataError, DegenerateStateError

__all__ = [
    "sentence_difficulty_norm", "sentence_difficulty_length",
    "sentence_difficulty_rarity", "cdf_normalize",
    "competence_time", "competence_norm", "embedding_matrix_norm",
    "sentence_weight", "DifficultyProfile", "CompetenceSchedule",
    "SamplerState", "sample_batch", "CRITERIA", "COMPETENCE_KINDS",
    "MATRIX_NORMS",
]

CRITERIA = ("norm", "length", "rarity")
COMPETENCE_KINDS = ("time_sqrt", "norm_based", "none")
MATRIX_NORMS = ("row_sum", "frobenius")


# ---------------------------------------------------------------------------
# Difficulty criteria
# ---------------------------------------------------------------------------

def sentence_difficulty_norm(sentence: Sequence[int], table: EmbeddingTable) -> float:
    """Sum of word-vector norms over the sentence's tokens."""
    if len(sentence) == 0:
        raise DataError("cannot score an empty sentence")
    return float(sum(table.word_norm(t) for t in sentence))


def sentence_difficulty_length(sentence: Sequence[int]) -> float:
    return float(len(sentence))


def sentence_difficulty_rarity(sentence: Sequence[int], vocab: Vocabulary) -> float:
    """Sum of -log unigram probability; zero-count ids get the rarest
    in-vocabulary probability."""
    if len(sentence) == 0:
        raise DataError("cannot score an empty sentence")
    total = vocab.total_count
    floor = min(c for c in vocab.counts if c > 0)
    score = 0.0
    for t in sentence:
        count = vocab.count_of(t)
        score -= math.log((count if count > 0 else floor) / total)
    return score


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

def _check_c0(c0: float) -> None:
    if not 0 < c0 <= 1:
        raise ConfigError(f"c0 must be in (0, 1], got {c0}")


def competence_time(t: int, c0: float, lambda_t: int) -> float:
    """min(1, sqrt(t*(1-c0^2)/lambda_t + c0^2)) with exact endpoints."""
    _check_c0(c0)
    if lambda_t <= 0:
        raise ConfigError(f"lambda_t must be positive, got {lambda_t}")
    if t < 0:
        raise ConfigError(f"step must be >= 0, got {t}")
    if t == 0:
        return c0
    if t >= lambda_t:
        return 1.0
    return min(1.0, math.sqrt(t * (1.0 - c0 * c0) / lambda_t + c0 * c0))


def competence_norm(m_t: float, m0: float, c0: float, lambda_m: float) -> float:
    """min(1, sqrt(max(0, m_t-m0)*(1-c0^2)/(lambda_m*m0) + c0^2))."""
    _check_c0(c0)
    if m0 <= 0:
        raise ConfigError(f"m0 must be positive, got {m0}")
    if lambda_m <= 0:
        raise ConfigError(f"lambda_m must be positive, got {lambda_m}")
    diff = m_t - m0
    if diff <= 0:
        return c0
    if diff >= lambda_m * m0:
        return 1.0
    return min(1.0, math.sqrt(diff * (1.0 - c0 * c0) / (lambda_m * m0) + c0 * c0))


def embedding_matrix_norm(matrix: np.ndarray, mode: str = "row_sum") -> float:
    """Norm of an embedding matrix: sum of row norms, or Frobenius.

    The row-norm sum keeps the scale commensurate with per-word norms;
    the competence formula only sees (m_t - m0) / m0, so either mode is
    a valid monotone driver.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if mode == "row_sum":
        value = float(np.linalg.norm(matrix, axis=-1).sum())
    elif mode == "frobenius":
        value = float(np.linalg.norm(matrix))
    else:
        raise ConfigError(f"unknown matrix norm mode {mode!r}")
    if value == 0.0:
        raise DegenerateStateError("embedding matrix is all zeros")
    return value


def sentence_weight(d_hat: float, c_hat: float, lambda_w: float) -> float:
    """(d_hat / c_hat) ** lambda_w; lambda_w = 0 gives exactly 1."""
    if c_hat <= 0:
        raise ConfigError(f"competence must be positive, got {c_hat}")
    if d_hat <= 0:
        raise ConfigError(f"difficulty must be positive, got {d_hat}")
    if lambda_w < 0:
        raise ConfigError(f"lambda_w must be >= 0, got {lambda_w}")
    if lambda_w == 0:
        return 1.0
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
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown difficulty criterion {self.criterion!r}")

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
            raws = [sentence_difficulty_norm(p.src, table) for p in corpus]
        elif criterion == "length":
            raws = [sentence_difficulty_length(p.src) for p in corpus]
        elif criterion == "rarity":
            if vocab is None:
                raise ConfigError("criterion=rarity needs a vocabulary")
            raws = [sentence_difficulty_rarity(p.src, vocab) for p in corpus]
        else:
            raise ConfigError(f"unknown difficulty criterion {criterion!r}")
        raw = np.asarray(raws, dtype=np.float64)
        cdf = cdf_normalize(-raw if invert else raw)
        return cls(raw, cdf, criterion)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.raw)):
                fh.write(f"{i}\t{float(self.raw[i])!r}\t"
                         f"{float(self.cdf[i])!r}\t{self.criterion}\n")

    @classmethod
    def load(cls, path) -> "DifficultyProfile":
        raws, cdfs, criterion = [], [], None
        for lineno, line in enumerate(read_lines(path), 1):
            try:
                sid, raw, cdf, crit = line.split("\t")
                sid, raw, cdf = int(sid), float(raw), float(cdf)
            except ValueError:
                raise DataError(
                    f"malformed difficulty line {lineno} in {path}: {line!r}"
                ) from None
            if sid != len(raws):
                raise DataError(f"non-contiguous sentence id {sid} in {path}")
            raws.append(raw)
            cdfs.append(cdf)
            criterion = crit
        if criterion is None:
            raise DataError(f"empty difficulty file {path}")
        return cls(np.array(raws), np.array(cdfs), criterion)


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
        _check_c0(self.c0)
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
        if self.m0 is not None and self.driver < self.m0:
            self.driver = self.m0

    def set_anchor(self, m0: float) -> None:
        if m0 <= 0:
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

    def state_dict(self) -> dict:
        return {"kind": self.kind, "c0": self.c0, "lambda_t": self.lambda_t,
                "lambda_m": self.lambda_m, "m0": self.m0, "driver": self.driver}

    @classmethod
    def from_state(cls, state: dict) -> "CompetenceSchedule":
        return cls(**state)


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

class SamplerState:
    """Owns the difficulty-sorted id order and the sampling RNG.

    ``natural_order=True`` keeps corpus order instead of sorting by
    difficulty; the vanilla baseline uses it so that a curriculum-free
    reference loop consuming the same RNG reproduces its draws exactly.
    """

    def __init__(self, corpus: ParallelCorpus,
                 profile: DifficultyProfile | None,
                 token_budget: int, min_pool: int = 64, seed: int = 0,
                 natural_order: bool = False):
        if token_budget < 1:
            raise ConfigError(f"token_budget must be positive, got {token_budget}")
        if min_pool < 1:
            raise ConfigError(f"min_pool must be positive, got {min_pool}")
        n = len(corpus)
        if natural_order:
            self.order = np.arange(n)
            self.sorted_cdf = None
        else:
            if profile is None:
                raise ConfigError("difficulty-ordered sampling needs a profile")
            if len(profile) != n:
                raise DataError(
                    f"profile covers {len(profile)} sentences, corpus has {n}"
                )
            self.order = np.lexsort((np.arange(n), profile.cdf))
            self.sorted_cdf = profile.cdf[self.order]
        # longer side of each pair, in difficulty order, for budget checks
        self.max_side = np.array(
            [max(len(corpus[int(i)].src), len(corpus[int(i)].tgt)) for i in self.order]
        )
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
                 c_hat: float) -> list:
    """Uniform draw from the eligible pool under a per-side token budget.

    Within a batch sentences never repeat; across batches they can.
    The first drawn pair is always taken, then pairs accumulate until
    the next one would push either side past token_budget.
    """
    k = state.eligible_count(c_hat)
    if state.token_budget < state.max_side[:k].min():
        raise ConfigError(
            f"token_budget {state.token_budget} cannot fit any eligible pair"
        )
    perm = state.rng.permutation(k)
    batch = []
    src_total = tgt_total = 0
    for idx in perm:
        pair = corpus[int(state.order[idx])]
        s, t = len(pair.src), len(pair.tgt)
        if batch and (src_total + s > state.token_budget
                      or tgt_total + t > state.token_budget):
            break
        batch.append(pair)
        src_total += s
        tgt_total += t
    return batch
