"""Corpus ingestion: tokenization, vocabularies, subword merges, filtering.

The tokenizer is deliberately simple and reproducible: every ASCII
punctuation character becomes its own token, then the line is split on
whitespace.  Subword segmentation follows greedy pair merging learned
from word frequencies; a word is represented as its characters plus a
standalone end-of-word marker, so zero merges gives character-level
segmentation.

Text enters as ``TokenLines``, one token sequence per line (``tokenize``
output, say); nothing here splits a string.  ``TokenLines`` reads its
lines once and interns each line's tokens as it reads the line, so no
side is ever held as token strings: it costs about 8 bytes per token
and 8 per line, one copy of each distinct token aside.  A vocabulary is
counted with one ``np.bincount`` and encoded with one gather that maps
the ids in place, so a side holds one id array from reading on;
``ParallelCorpus`` holds that array, copied only when length filtering
drops a pair, and one offsets array per side.
Files are read as UTF-8 with any leading byte-order mark dropped; other
bytes raise ``DataError``.  Field-separated artifact files are parsed by
``read_fields``; artifacts are written through ``atomic_write``, so a
process that dies mid-write leaves the previous file or none.  All other
functions here are pure over their inputs: identical lines and settings
produce byte-identical vocab, merge, and corpus artifacts.
"""

from __future__ import annotations

import contextlib
import os
import string
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "PAD", "UNK", "BOS", "EOS", "SPECIALS",
    "PAD_ID", "UNK_ID", "BOS_ID", "EOS_ID", "EOW",
    "tokenize", "TokenLines", "Vocabulary", "build_vocab",
    "MergeTable", "learn_merges", "detokenize_subwords",
    "ParallelCorpus", "load_parallel", "read_lines", "read_fields",
    "atomic_write",
]

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
SPECIALS = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

EOW = "</w>"  # end-of-word marker appended during subword segmentation

_PUNCT_SPACED = str.maketrans({c: f" {c} " for c in string.punctuation})


def tokenize(line: str) -> list[str]:
    """Whitespace tokens after separating punctuation characters."""
    if line.replace(" ", "").isalnum():
        return line.split()  # no punctuation and no other whitespace
    return line.translate(_PUNCT_SPACED).split()


def read_lines(path) -> Iterator[str]:
    """The lines of the UTF-8 file ``path``, without their newlines."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for line in fh:
                yield line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason} "
                            f"(byte {exc.object[exc.start]:#04x})") from None


def read_fields(path, sep: str, types: Sequence, what: str,
                start: int = 1) -> Iterator[tuple[int, list]]:
    """``(n, fields)`` for each line ``n`` of ``path`` from line ``start``
    on: the line split at ``sep`` into one field per entry of ``types``,
    each converted by its entry.  A line with another number of fields,
    or a field its conversion refuses, raises ``DataError`` naming
    ``what``, the line and the file."""
    for n, line in enumerate(islice(read_lines(path), start - 1, None), start):
        try:
            fields = [convert(field) for convert, field
                      in zip(types, line.split(sep), strict=True)]
        except ValueError:
            raise DataError(f"malformed {what} line {n} in {path}: {line!r}") from None
        yield n, fields


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", sync: bool = True, **open_kwargs):
    """Open a temporary file beside ``path`` for writing.  On a clean
    exit it is flushed, fsynced when ``sync``, and renamed over ``path``;
    if the block raises, it is deleted and ``path`` keeps its previous
    contents.  The rename alone keeps ``path`` whole when the process
    dies; the fsync also keeps it through a system crash."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _offsets(lengths) -> np.ndarray:
    """Line ``i`` of ``lengths`` spans ``offsets[i]:offsets[i + 1]``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _line_ends(lengths: Iterable[int]) -> np.ndarray:
    """``_offsets`` of a stream of line lengths, grown as it is read."""
    ends = array("q", [0])
    ends.extend(accumulate(lengths))
    return np.frombuffer(ends, dtype=np.int64)


class _Interner(dict):
    """Token -> id, numbering each token at its first lookup."""

    def __missing__(self, token: str) -> int:
        self[token] = i = len(self)
        return i


def _intern(lines: Iterable) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``types``, ``ids`` and ``offsets`` of ``lines``, interned line by
    line, so only one line's token strings are alive at a time.  ``ids``
    grows as a list of references to the index's own int objects, 8
    bytes a token, which extends faster per line than an ``array``."""
    index, ids, ends = _Interner(), [], array("q", [0])
    lookup, extend, end = index.__getitem__, ids.extend, ends.append
    for line in lines:
        extend(map(lookup, line))
        end(len(ids))
    return (list(index), np.array(ids, dtype=np.int64),
            np.frombuffer(ends, dtype=np.int64))


class TokenLines:
    """One side of a corpus after segmentation, interned: line ``i`` is
    ``[types[t] for t in ids[offsets[i]:offsets[i + 1]]]``, and
    ``types`` holds each distinct token once.

    ``lines`` yields one token sequence per line, such as ``tokenize``
    output; no string is split.  ``merges`` is a ``MergeTable`` to apply,
    a number of merges to learn from these lines and apply, or None;
    ``.merges`` is then the table applied.  The lines are read once, at
    the first use of ``types``, ``ids``, ``offsets`` or ``merges``.  Each
    line's tokens are interned as the line is read, so a side costs about
    8 bytes of ids per token plus 8 bytes of offsets per line, and only
    one line's token strings are alive at a time.  With merges, words are interned, the
    merges are learned from the word types' counts, each word type is
    segmented once, and word ids expand to subword ids by array gathers.
    With ``lengths_only`` only ``offsets`` and ``merges`` are kept: no
    ``types`` or ``ids``, and without merges nothing is interned.
    ``encode`` hands ``ids`` over, mapped to vocabulary ids in place, so
    a side never holds a second id array.
    """

    def __init__(self, lines: Iterable, merges=None, lengths_only: bool = False):
        self._lines, self._merges, self._lengths_only = lines, merges, lengths_only

    def __getattr__(self, name: str):
        if name not in ("types", "ids", "offsets", "merges") \
                or "offsets" in self.__dict__:
            raise AttributeError(name)
        lines, self._lines = self._lines, None
        self.merges = self._merges
        if self.merges is not None:
            self._read_words(lines)
        elif self._lengths_only:
            self.offsets = _line_ends(map(len, lines))
        else:
            self.types, self.ids, self.offsets = _intern(lines)
        return getattr(self, name)

    def _read_words(self, lines: Iterable) -> None:
        words = TokenLines(lines)
        if isinstance(self.merges, int):
            self.merges = learn_merges(words, self.merges)
        segments = list(map(self.merges.segment_word, words.types))
        seg_len = np.fromiter(map(len, segments), dtype=np.int64,
                              count=len(segments))
        lengths = seg_len[words.ids]  # subwords per word occurrence
        ends = _offsets(lengths)
        self.offsets = ends[words.offsets]
        if not self._lengths_only:
            # interning the segments in word-type order numbers each
            # subword at its first occurrence in the segmented text
            self.types, seg_ids, seg_starts = _intern(segments)
            # each array is dropped once used: the peak is then the word
            # ids and two subword-sized arrays
            shift = seg_starts[words.ids]
            shift -= ends[:-1]
            del ends
            at = np.repeat(shift, lengths)
            del shift, lengths
            at += np.arange(len(at))
            self.ids = seg_ids[at]

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def counts(self) -> np.ndarray:
        """Occurrences of each of ``types``."""
        return np.bincount(self.ids, minlength=len(self.types))

    def encode(self, vocab: "Vocabulary") -> np.ndarray:
        """Every token's id in ``vocab``, flat, aligned with ``offsets``:
        ``ids`` mapped in place and handed over, so that afterwards
        ``ids`` and ``counts`` raise AttributeError."""
        table = np.fromiter(map(vocab.encode_token, self.types), dtype=np.int64,
                            count=len(self.types))
        ids = self.ids
        del self.ids
        # every type id indexes ``table``, so the clip never moves one
        return np.take(table, ids, out=ids, mode="clip")


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

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    def save(self, path) -> None:
        with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
            for tok, i, c in zip(self.tokens, range(len(self.tokens)), self.counts):
                fh.write(f"{tok}\t{i}\t{c}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens, counts = [], []
        for _, (tok, idx, count) in read_fields(path, "\t", (str, int, int),
                                                "vocab"):
            if idx != len(tokens):
                raise DataError(f"non-contiguous id {idx} in vocab file {path}")
            tokens.append(tok)
            counts.append(count)
        if tuple(tokens[:4]) != SPECIALS:
            raise DataError(f"vocab file {path} does not start with the special tokens")
        return cls(tokens, counts)


def build_vocab(text: TokenLines, min_count: int) -> Vocabulary:
    """Count the tokens of ``text`` and keep those with count >= min_count.

    Entries after the specials are ordered by descending count, then
    lexicographically.  ``CorpusConfig`` checks ``min_count``.
    """
    if not len(text):
        raise DataError("cannot build a vocabulary from an empty stream")
    types, counts = text.types, text.counts().tolist()
    kept = sorted((i for i, c in enumerate(counts) if c >= min_count),
                  key=lambda i: (-counts[i], types[i]))
    return Vocabulary(list(SPECIALS) + [types[i] for i in kept],
                      [0, 0, 0, 0] + [counts[i] for i in kept])


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

    def __len__(self) -> int:
        return len(self.merges)

    def segment_word(self, word: str) -> tuple[str, ...]:
        symbols = _word_symbols(word)
        for pair in self.merges:
            if len(symbols) == 1:
                break
            symbols = _merge_symbols(symbols, pair)
        return symbols

    def apply(self, tokens: Sequence[str]) -> list[str]:
        out: list[str] = []
        for word in tokens:
            out.extend(self.segment_word(word))
        return out

    def save(self, path) -> None:
        with atomic_write(path, "w", sync=False, encoding="utf-8") as fh:
            for a, b in self.merges:
                fh.write(f"{a} {b}\n")

    @classmethod
    def load(cls, path) -> "MergeTable":
        return cls([(a, b) for _, (a, b) in read_fields(path, " ", (str, str),
                                                          "merge")])


def learn_merges(words: TokenLines, n_merges: int) -> MergeTable:
    """Greedy highest-frequency pair merging over word types.

    Ties break on the lexicographically smallest pair.  Counting runs
    over unique word types weighted by frequency, which keeps learning
    cheap at desk scale (cost grows with type count, not corpus size).
    ``CorpusConfig`` checks ``n_merges`` as its ``merges``.
    """
    if not len(words):
        raise DataError("cannot learn merges from an empty stream")
    word_freq = dict(zip(words.types, words.counts().tolist()))

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

@dataclass
class ParallelCorpus:
    """Sentence pairs as flat id arrays: pair ``i``'s source is
    ``src[src_offsets[i]:src_offsets[i + 1]]``, its target likewise.
    ``tgt`` is None when loaded without a target vocabulary."""

    src: np.ndarray
    src_offsets: np.ndarray
    tgt: np.ndarray | None
    tgt_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.src_offsets) - 1

    @property
    def src_lengths(self) -> np.ndarray:
        return np.diff(self.src_offsets)

    @property
    def tgt_lengths(self) -> np.ndarray:
        return np.diff(self.tgt_offsets)

    def head(self, n: int) -> "ParallelCorpus":
        """The first ``n`` pairs."""
        return ParallelCorpus(self.src[:self.src_offsets[n]], self.src_offsets[:n + 1],
                              self.tgt[:self.tgt_offsets[n]], self.tgt_offsets[:n + 1])


def load_parallel(src: TokenLines, tgt: TokenLines, vocab_src: Vocabulary,
                  vocab_tgt: Vocabulary | None, max_len: int) -> ParallelCorpus:
    """Encode line-aligned segmented sentences, dropping bad pairs.

    ``src`` and ``tgt`` are the two sides' ``TokenLines``, after any
    subword merges; ``encode`` hands their ids over.  A pair is dropped
    when either side is empty or longer than ``max_len`` tokens.
    Survivors keep their original order and are renumbered 0..M-1.
    Without ``vocab_tgt`` the target side only filters: ``tgt`` is None.
    """
    if len(src) != len(tgt):
        raise DataError(
            f"line counts differ: source has {len(src)}, target has {len(tgt)}"
        )
    src_len, tgt_len = np.diff(src.offsets), np.diff(tgt.offsets)
    keep = (src_len > 0) & (src_len <= max_len) & (tgt_len > 0) & (tgt_len <= max_len)
    if not keep.any():
        raise DataError("no sentence pairs survived length filtering")
    tgt_ids = None if vocab_tgt is None else tgt.encode(vocab_tgt)
    return ParallelCorpus(*_kept_lines(src.encode(vocab_src), src.offsets, keep),
                          *_kept_lines(tgt_ids, tgt.offsets, keep))


def _kept_lines(ids: np.ndarray | None, offsets: np.ndarray, keep: np.ndarray):
    """``ids`` and ``offsets`` of the lines ``keep`` marks, renumbered; the
    arrays themselves, uncopied, when it marks every line."""
    if keep.all():
        return ids, offsets
    lengths = np.diff(offsets)
    if ids is not None:
        ids = ids[np.repeat(keep, lengths)]
    return ids, _offsets(lengths[keep])
