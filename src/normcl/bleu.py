"""Corpus-level 4-gram BLEU.

Geometric mean of modified n-gram precisions (n = 1..4) times the
brevity penalty, scaled to [0, 100].  There is no smoothing: the score
is zero as soon as any precision is zero.

Scoring happens on word-level tokens: callers rejoin subwords first.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import DataError

__all__ = ["MAX_ORDER", "bleu_report"]

MAX_ORDER = 4

Sentence = Sequence[str]


def _ngrams(tokens: Sentence, n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def bleu_report(hypotheses: Sequence[Sentence],
                references: Sequence[Sentence]) -> dict:
    """Full scoring breakdown.

    Returns {"bleu", "brevity_penalty", "precisions", "n_sentences"}.
    """
    if not hypotheses:
        raise DataError("need at least one hypothesis to score")
    if len(hypotheses) != len(references):
        raise DataError(
            f"hypothesis/reference count mismatch: "
            f"{len(hypotheses)} vs {len(references)}"
        )

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, min(len(hyp), MAX_ORDER) + 1):
            got = _ngrams(hyp, n)
            want = _ngrams(ref, n)
            matches[n - 1] += sum(min(c, want[g]) for g, c in got.items())
            totals[n - 1] += len(hyp) - n + 1

    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matches, totals)]

    if hyp_len == 0:
        bp = 0.0
    elif hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)

    if min(precisions) > 0.0:
        mean = math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
        score = 100.0 * bp * mean
    else:
        score = 0.0

    return {
        "bleu": score,
        "brevity_penalty": bp,
        "precisions": precisions,
        "n_sentences": len(hypotheses),
    }
