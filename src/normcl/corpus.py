"""Corpus ingestion: tokenization, vocabularies, subword merges, filtering.

The tokenizer is deliberately simple and reproducible: every ASCII
punctuation character becomes its own token, then the line is split on
whitespace.  Subword segmentation follows greedy pair merging learned
from word frequencies; a word is represented as its characters plus a
standalone end-of-word marker, so zero merges gives character-level
segmentation.

All functions here are pure over their inputs: identical input files
and settings produce byte-identical vocab, merge, and corpus artifacts.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigError, DataError

__all__ = [
    "PAD", "UNK", "BOS", "EOS", "SPECIALS",
    "PAD_ID", "UNK_ID", "BOS_ID", "EOS_ID", "EOW",
    "tokenize", "Vocabulary", "build_vocab",
    "MergeTable", "learn_merges", "detokenize_subwords",
    "SentencePair", "ParallelCorpus", "load_parallel", "read_lines",
]

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
SPECIALS = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

EOW = "</w>"  # end-of-word marker appended during subword segmentation

_PUNCT_RE = re.compile(r"([!\"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~])")


def tokenize(line: str) -> list[str]:
    """Whitespace tokens after separating punctuation characters."""
    return _PUNCT_RE.sub(r" \1 ", line).split()


def read_lines(path) -> Iterator[str]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


def _line_tokens(line) -> Sequence[str]:
    return line.split() if isinstance(line, str) else line


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    """Token inventory with contiguous ids; the four specials come first."""

    tokens: list[str]
    counts: list[int]

    def __post_init__(self):
        self._token_to_id = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode_token(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get = self._token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def count_of(self, token_id: int) -> int:
        return self.counts[token_id]

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok, i, c in zip(self.tokens, range(len(self.tokens)), self.counts):
                fh.write(f"{tok}\t{i}\t{c}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens, counts = [], []
        for lineno, line in enumerate(read_lines(path), 1):
            try:
                tok, idx, count = line.split("\t")
                idx, count = int(idx), int(count)
            except ValueError:
                raise DataError(
                    f"malformed vocab line {lineno} in {path}: {line!r}"
                ) from None
            if idx != len(tokens):
                raise DataError(f"non-contiguous id {idx} in vocab file {path}")
            tokens.append(tok)
            counts.append(count)
        if tuple(tokens[:4]) != SPECIALS:
            raise DataError(f"vocab file {path} does not start with the special tokens")
        return cls(tokens, counts)


def build_vocab(tokenized_text: Iterable, min_count: int = 1) -> Vocabulary:
    """Count tokens and keep those with count >= min_count.

    ``tokenized_text`` is a stream of lines (strings split on
    whitespace, or pre-split token sequences).  Entries after the
    specials are ordered by descending count, then lexicographically.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counter: Counter[str] = Counter()
    empty = True
    for line in tokenized_text:
        empty = False
        counter.update(_line_tokens(line))
    if empty:
        raise DataError("cannot build a vocabulary from an empty stream")
    kept = sorted(
        ((tok, c) for tok, c in counter.items() if c >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    tokens = list(SPECIALS) + [tok for tok, _ in kept]
    counts = [0, 0, 0, 0] + [c for _, c in kept]
    return Vocabulary(tokens, counts)


# ---------------------------------------------------------------------------
# Subword merges
# ---------------------------------------------------------------------------

def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (EOW,)


def _merge_symbols(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Left-to-right single-pass merge of one pair."""
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


class MergeTable:
    """Ordered pair-merge rules; application is deterministic."""

    def __init__(self, merges: list[tuple[str, str]]):
        self.merges = list(merges)
        self._cache: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self.merges)

    def segment_word(self, word: str) -> tuple[str, ...]:
        cached = self._cache.get(word)
        if cached is None:
            symbols = _word_symbols(word)
            for pair in self.merges:
                if len(symbols) == 1:
                    break
                symbols = _merge_symbols(symbols, pair)
            cached = self._cache[word] = symbols
        return cached

    def apply(self, tokens: Sequence[str]) -> list[str]:
        out: list[str] = []
        for word in tokens:
            out.extend(self.segment_word(word))
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for a, b in self.merges:
                fh.write(f"{a} {b}\n")

    @classmethod
    def load(cls, path) -> "MergeTable":
        merges = []
        for line in read_lines(path):
            parts = line.split(" ")
            if len(parts) != 2:
                raise DataError(f"malformed merge rule {line!r} in {path}")
            merges.append((parts[0], parts[1]))
        return cls(merges)


def learn_merges(tokenized_text: Iterable, n_merges: int) -> MergeTable:
    """Greedy highest-frequency pair merging over word types.

    Ties break on the lexicographically smallest pair.  Counting runs
    over unique word types weighted by frequency, which keeps learning
    cheap at desk scale (cost grows with type count, not corpus size).
    """
    if n_merges < 0:
        raise ConfigError(f"n_merges must be >= 0, got {n_merges}")
    word_freq: Counter[str] = Counter()
    empty = True
    for line in tokenized_text:
        empty = False
        word_freq.update(_line_tokens(line))
    if empty:
        raise DataError("cannot learn merges from an empty stream")

    types: dict[str, tuple[str, ...]] = {w: _word_symbols(w) for w in word_freq}
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pair_counts: Counter[tuple[str, str]] = Counter()
        for word, symbols in types.items():
            freq = word_freq[word]
            for i in range(len(symbols) - 1):
                pair_counts[(symbols[i], symbols[i + 1])] += freq
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda item: (-item[1], item[0]))[0]
        merges.append(best)
        types = {w: _merge_symbols(s, best) for w, s in types.items()}
    return MergeTable(merges)


def detokenize_subwords(symbols: Sequence[str]) -> list[str]:
    """Concatenate subword symbols back into whitespace-level tokens."""
    words: list[str] = []
    buf: list[str] = []
    for sym in symbols:
        if sym == EOW:
            words.append("".join(buf))
            buf = []
        elif sym.endswith(EOW):
            buf.append(sym[: -len(EOW)])
            words.append("".join(buf))
            buf = []
        else:
            buf.append(sym)
    if buf:
        words.append("".join(buf))
    return words


# ---------------------------------------------------------------------------
# Parallel corpus
# ---------------------------------------------------------------------------

class SentencePair(NamedTuple):
    id: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]


@dataclass
class ParallelCorpus:
    pairs: list[SentencePair]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, idx: int) -> SentencePair:
        return self.pairs[idx]


def _encode_side(line: str, vocab: Vocabulary, merges: MergeTable | None) -> list[int]:
    tokens = tokenize(line)
    if merges is not None:
        tokens = merges.apply(tokens)
    return vocab.encode(tokens)


def load_parallel(source_file, target_file, vocab_src: Vocabulary,
                  vocab_tgt: Vocabulary, max_len: int = 200,
                  merges_src: MergeTable | None = None,
                  merges_tgt: MergeTable | None = None) -> ParallelCorpus:
    """Read line-aligned files into id sequences, dropping bad pairs.

    A pair is dropped when either side is empty or longer than
    ``max_len`` tokens after subword segmentation.  Survivors keep
    their original order and are renumbered 0..M-1.
    """
    src_lines = list(read_lines(source_file))
    tgt_lines = list(read_lines(target_file))
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line counts differ: {source_file} has {len(src_lines)}, "
            f"{target_file} has {len(tgt_lines)}"
        )
    pairs: list[SentencePair] = []
    for src_line, tgt_line in zip(src_lines, tgt_lines):
        src = _encode_side(src_line, vocab_src, merges_src)
        tgt = _encode_side(tgt_line, vocab_tgt, merges_tgt)
        if not src or not tgt or len(src) > max_len or len(tgt) > max_len:
            continue
        pairs.append(SentencePair(len(pairs), tuple(src), tuple(tgt)))
    if not pairs:
        raise DataError("no sentence pairs survived length filtering")
    return ParallelCorpus(pairs)
