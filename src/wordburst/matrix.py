"""The word-by-day count matrix, the central corpus summary.

Columnar layout, one row per word (compressed sparse rows):

* ``words``: the vocabulary, sorted; ``words[r]`` owns row ``r``;
* ``indptr``: row ``r`` owns cells ``indptr[r]:indptr[r+1]``;
* ``days``: the day index of each cell, ascending within a row;
* ``counts``: the number of posts containing the word that day, >= 1.

A word absent on a day has no cell, and every word has at least one.
The matrix is frozen, arrays included.  This module is the only one that
builds or indexes the layout; stages read it through the views below
(totals, gaps, dense blocks) and vectorise over those.

Serialized form (UTF-8, one word per line, words sorted)::

    #T=<horizon>
    word<TAB>day:count,day:count,...

with days ascending within a line.  Days and counts are ASCII decimal
integers below 2^63.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CorpusFormatError
from .fileio import atomic_writer

_CELLS_RE = re.compile(r"[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+)*")
_INT64_MAX = 2**63 - 1
_BLOCK_LINES = 4096  # matrix.tsv lines parsed per bulk call
_BLOCK_CELLS = 1 << 16  # cells formatted per block in save_matrix


@dataclass(frozen=True, eq=False)
class WordDayMatrix:
    horizon: int
    words: tuple[str, ...]
    indptr: np.ndarray
    days: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for a in (self.indptr, self.days, self.counts):
            a.flags.writeable = False

    @classmethod
    def from_mapping(cls, horizon: int, counts: Mapping[str, Mapping[int, int]]) -> "WordDayMatrix":
        """Build from ``{word: {day: count}}``; raises ValueError on a broken invariant."""
        words = sorted(counts)
        lengths = [len(counts[w]) for w in words]
        n_cells = sum(lengths)
        rows = np.repeat(np.arange(len(words)), lengths)
        days = np.fromiter(chain.from_iterable(counts[w].keys() for w in words), np.int64, n_cells)
        values = np.fromiter(chain.from_iterable(counts[w].values() for w in words), np.int64, n_cells)
        order = np.lexsort((days, rows))  # rows stay in place, days ascend within each
        return cls.from_sorted_cells(horizon, words, rows, days[order], values[order])

    @classmethod
    def from_sorted_cells(cls, horizon: int, words: Sequence[str], rows: np.ndarray,
                          days: np.ndarray, counts: np.ndarray) -> "WordDayMatrix":
        """Build from cells ordered by (row, day): cell ``i`` holds ``counts[i]``
        for word ``words[rows[i]]`` on ``days[i]``.  Raises ValueError on a
        broken invariant."""
        matrix = cls(horizon, tuple(words), np.searchsorted(rows, np.arange(len(words) + 1)), days, counts)
        matrix.validate()
        return matrix

    @classmethod
    def from_day_vectors(cls, horizon: int, rows: Iterable[tuple[str, np.ndarray]]) -> "WordDayMatrix":
        """Build from ``(word, length-horizon count vector)`` pairs in word
        order; all-zero words vanish."""
        words, days, counts = [], [], []
        for word, x in rows:
            nz = np.flatnonzero(x)
            if nz.size:
                words.append(word)
                days.append(nz)
                counts.append(x[nz])
        matrix = cls(horizon, tuple(words), _indptr([d.size for d in days]),
                     np.concatenate([np.empty(0, np.int64), *days]),
                     np.concatenate([np.empty(0, np.int64), *counts]))
        matrix.validate()
        return matrix

    @property
    def vocabulary_size(self) -> int:
        return len(self.words)

    def total(self, word: str) -> int:
        """Total occurrences of ``word`` over the whole horizon."""
        return int(self.counts[self._cells([word])[0]].sum())

    def totals(self) -> np.ndarray:
        """Total occurrences of every word, in row order."""
        return np.add.reduceat(self.counts, self.indptr[:-1]) if self.words else np.zeros(0, np.int64)

    def series(self, word: str) -> dict[int, int]:
        """``{day: count}`` of one word."""
        cells = self._cells([word])[0]
        return dict(zip(self.days[cells].tolist(), self.counts[cells].tolist()))

    def gaps(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Waiting times of ``words``: (number of gaps per word, all gaps word
        after word).  A gap is the day difference between consecutive cells
        of one word; multiplicity within a day plays no part."""
        cells, lengths = self._cells(words)
        return lengths - 1, np.delete(np.diff(self.days[cells]), np.cumsum(lengths)[:-1] - 1)

    def dense_block(self, words: Sequence[str]) -> np.ndarray:
        """(len(words) x horizon) day counts of ``words``, zero days included."""
        cells, lengths = self._cells(words)
        block = np.zeros((lengths.size, self.horizon), dtype=np.int64)
        block[np.repeat(np.arange(lengths.size), lengths), self.days[cells]] = self.counts[cells]
        return block

    def keep_days(self, kept: Sequence[int]) -> "WordDayMatrix":
        """Only the cells on the ascending ``kept`` days, renumbered
        0..len(kept)-1; words left without cells disappear."""
        new_day = np.full(self.horizon, -1, dtype=np.int64)
        new_day[np.asarray(kept, dtype=np.intp)] = np.arange(len(kept))
        days = new_day[self.days]
        keep = days >= 0
        row_of_cell = np.repeat(np.arange(self.vocabulary_size), np.diff(self.indptr))
        lengths = np.bincount(row_of_cell[keep], minlength=self.vocabulary_size)
        alive = lengths > 0
        return WordDayMatrix(len(kept), tuple(w for w, a in zip(self.words, alive) if a),
                             _indptr(lengths[alive]), days[keep], self.counts[keep])

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        problem = self._first_problem()
        if problem is not None:
            raise ValueError(f"word {self.words[problem[0]]!r}: {problem[1]}")

    def __eq__(self, other):
        if not isinstance(other, WordDayMatrix):
            return NotImplemented
        return self.horizon == other.horizon and self.words == other.words and all(
            np.array_equal(a, b) for a, b in zip((self.indptr, self.days, self.counts),
                                                 (other.indptr, other.days, other.counts)))

    def _first_problem(self) -> tuple[int, str] | None:
        """(row, reason) of the first word out of order, empty row, or cell
        out of day order, outside the horizon or with a count < 1."""
        for r in range(1, self.vocabulary_size):
            if self.words[r] <= self.words[r - 1]:
                return r, "duplicate word" if self.words[r] == self.words[r - 1] else "words not sorted"
        lengths = np.diff(self.indptr)
        if lengths.size and lengths.min() < 1:
            return int(np.argmin(lengths)), "no day entries"
        # a row's first day is compared with -1, every other day with its predecessor
        unordered = np.zeros(self.days.size, dtype=bool)
        unordered[1:] = self.days[1:] <= self.days[:-1]
        unordered[self.indptr[:-1]] = self.days[self.indptr[:-1]] < 0
        bad = unordered | (self.days >= self.horizon) | (self.counts < 1)
        if not bad.any():
            return None
        cell = int(np.argmax(bad))
        row = int(np.searchsorted(self.indptr, cell, side="right")) - 1
        if unordered[cell]:
            return row, "days not ascending"
        if self.days[cell] >= self.horizon:
            return row, f"day {self.days[cell]} outside horizon"
        return row, f"count {self.counts[cell]} < 1"

    def _cells(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the cells of ``words``, word after word, and each
        word's number of cells; KeyError for a word not in the matrix."""
        rows = np.array([bisect_left(self.words, w) for w in words], dtype=np.intp)
        for r, w in zip(rows.tolist(), words):
            if r == len(self.words) or self.words[r] != w:
                raise KeyError(w)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        out_starts = np.cumsum(lengths) - lengths
        return np.arange(lengths.sum()) + np.repeat(starts - out_starts, lengths), lengths


def _indptr(lengths) -> np.ndarray:
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(lengths, dtype=np.int64)])


def merge_matrices(matrices: Iterable[WordDayMatrix]) -> WordDayMatrix:
    """Union of matrices over the same horizon with disjoint vocabularies."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("nothing to merge")
    horizon = matrices[0].horizon
    merged: dict[str, dict[int, int]] = {}
    for m in matrices:
        if m.horizon != horizon:
            raise ValueError(f"horizon mismatch: {m.horizon} != {horizon}")
        overlap = merged.keys() & set(m.words)
        if overlap:
            raise ValueError(f"vocabulary overlap on merge: {sorted(overlap)[:5]}")
        merged.update((w, m.series(w)) for w in m.words)
    return WordDayMatrix.from_mapping(horizon, merged)


def save_matrix(matrix: WordDayMatrix, path) -> None:
    """Write the matrix in its line-delimited form (atomic, deterministic)."""
    rows = max(1, _BLOCK_CELLS // matrix.horizon)  # per block; a row has at most horizon cells
    with atomic_writer(path) as fh:
        fh.write(f"#T={matrix.horizon}\n")
        for start in range(0, matrix.vocabulary_size, rows):
            indptr = matrix.indptr[start:start + rows + 1]
            a, b = indptr[0], indptr[-1]
            cells = np.column_stack((matrix.days[a:b], matrix.counts[a:b])).ravel().tolist()
            bounds = (2 * (indptr - a)).tolist()
            formats: dict[int, str] = {}  # per block, so their size stays bounded too
            for word, lo, hi in zip(matrix.words[start:start + rows], bounds, bounds[1:]):
                fmt = formats.get(hi - lo)
                if fmt is None:
                    fmt = formats[hi - lo] = "%s\t" + ",".join(["%d:%d"] * ((hi - lo) // 2)) + "\n"
                fh.write(fmt % (word, *cells[lo:hi]))


def load_matrix(path) -> WordDayMatrix:
    """Read a matrix written by :func:`save_matrix`.

    Raises :class:`CorpusFormatError` naming an offending line.
    """
    words: list[str] = []
    linenos: list[int] = []
    lengths = array("q")
    blocks: list[np.ndarray] = []  # day, count, day, count, ... per block of lines
    pending: list[tuple[int, str]] = []  # (line number, cells) of the block being read
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#T="):
            raise CorpusFormatError(f"{path}: missing #T= header line")
        try:
            horizon = int(header[3:])
        except ValueError:
            raise CorpusFormatError(f"{path}: bad horizon in header {header!r}") from None
        if horizon < 1:
            raise CorpusFormatError(f"{path}: horizon {horizon} < 1")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, cells = line.split("\t")
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: expected word<TAB>cells") from None
            if not _CELLS_RE.fullmatch(cells):
                raise CorpusFormatError(f"{path}:{lineno}: bad cell {_bad_cell(cells)!r}")
            words.append(word)
            linenos.append(lineno)
            lengths.append(cells.count(",") + 1)
            pending.append((lineno, cells))
            if len(pending) == _BLOCK_LINES:
                blocks.append(_parse_cells(path, pending))
                pending = []
    blocks.append(_parse_cells(path, pending))
    pairs = np.concatenate(blocks)
    del blocks
    matrix = WordDayMatrix(horizon, tuple(words), _indptr(lengths), pairs[0::2].copy(), pairs[1::2].copy())
    problem = matrix._first_problem()
    if problem is not None:
        raise CorpusFormatError(f"{path}:{linenos[problem[0]]}: {problem[1]}")
    return matrix


def _parse_cells(path, lines: list[tuple[int, str]]) -> np.ndarray:
    """day, count, day, count, ... of (line number, cells) pairs whose cells
    matched ``_CELLS_RE``.

    The bulk parser turns values of 2^63 and above into 2^63 - 1 without
    a word, so a block holding that value is checked line by line.
    """
    values = np.fromstring(",".join(cells for _, cells in lines).replace(":", ","), dtype=np.int64, sep=",")
    if (values == _INT64_MAX).any():
        for lineno, cells in lines:
            bad = _bad_cell(cells)
            if bad is not None:
                raise CorpusFormatError(f"{path}:{lineno}: bad cell {bad!r}")
    return values


def _bad_cell(cells: str) -> str | None:
    """The first cell of a line that is not two ASCII decimal integers
    below 2^63 joined by ':'."""
    for cell in cells.split(","):
        if not _CELLS_RE.fullmatch(cell) or not all(map(_below_2_63, cell.split(":"))):
            return cell
    return None


def _below_2_63(digits: str) -> bool:
    digits = digits.lstrip("0")
    return (len(digits), digits) <= (19, str(_INT64_MAX))
