"""The word-by-day count matrix, the central corpus summary.

Columnar layout, one row per word (compressed sparse rows):

* ``words``: the vocabulary, sorted; ``words[r]`` owns row ``r``;
* ``indptr``: row ``r`` owns cells ``indptr[r]:indptr[r+1]`` (int64);
* ``days``: the day index of each cell, ascending within a row;
* ``counts``: the number of posts containing the word that day, >= 1.

``days`` is held in the narrowest of int8, int16 and int32 that holds
``horizon - 1``, and ``counts`` in the narrowest of int8 to int64 that
holds the largest count (on the paper-scale corpus, 3 bytes a cell, not
12); the views do their arithmetic in int64 a block at a time.

A word absent on a day has no cell, and every word has at least one.
The matrix is frozen, arrays included.  This module is the only one that
builds or indexes the layout; stages address words by row and read
them through the views below (totals, gaps, dense blocks) in bulk.

Serialized form (UTF-8, one word per line, words sorted)::

    #T=<horizon in [1, MAX_HORIZON]>
    word<TAB>day:count,day:count,...

with days ascending within a line and no TAB, LF, CR or surrogate code
point in a word.  Horizon, days and counts are ASCII decimals below 2^63.
"""
from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CorpusFormatError
from .fileio import atomic_writer

_CELLS_RE = re.compile(r"[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+)*")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")  # the code points a str may hold and UTF-8 may not
_INT64_MAX = 2**63 - 1
MAX_HORIZON = 10**7  # days; a generated word and a dense block are horizon-long vectors
_BLOCK_LINES = 1024  # matrix.tsv lines checked and parsed per bulk call; small, as freed block buffers stay resident
_BLOCK_CELLS = 1 << 14  # cells per block in save_matrix, the cell check and totals: small beside the cells
_BLOCK_VECTOR_CELLS = 1 << 13  # cells from_day_vectors holds as int64 before it narrows them


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
    def from_sorted_cells(cls, horizon: int, words: Sequence[str], rows: np.ndarray,
                          days: np.ndarray, counts: np.ndarray) -> "WordDayMatrix":
        """Build from cells ordered by (row, day): cell ``i`` holds ``counts[i]``
        for word ``words[rows[i]]`` on ``days[i]``.  Raises ValueError on a
        broken invariant."""
        matrix = cls(horizon, tuple(words), np.searchsorted(rows, np.arange(len(words) + 1)), days, counts)
        matrix.validate()  # on the given cells: narrowed first, a day or count past the narrow type would wrap
        return cls(horizon, matrix.words, matrix.indptr, days.astype(_typecode(0, horizon - 1)),
                   counts.astype(_typecode(1, int(counts.max(initial=1)))))

    @classmethod
    def from_day_vectors(cls, horizon: int, rows: Iterable[tuple[str, np.ndarray]]) -> "WordDayMatrix":
        """Build from ``(word, length-horizon count vector)`` pairs in word
        order; all-zero words vanish.  The cells wait as int64 in a block of
        about ``_BLOCK_VECTOR_CELLS``, narrowed at once, not word by word."""
        words, lengths, block = [], array("q"), [array("q"), array("q")]
        buffers = [array(_typecode(0, horizon - 1)), array("b")]
        for word, x in rows:
            nz = x.nonzero()[0]
            if nz.size:
                words.append(word)
                lengths.append(nz.size)
                for buffer, values in zip(block, (nz, x[nz])):
                    buffer.frombytes(values.astype(np.int64, copy=False).tobytes())
                if len(block[0]) >= _BLOCK_VECTOR_CELLS:
                    _append_cells(buffers, *(np.frombuffer(b, "q") for b in block))
                    block = [array("q"), array("q")]
        _append_cells(buffers, *(np.frombuffer(b, "q") for b in block))
        matrix = cls(horizon, tuple(words), _indptr(lengths), *(np.frombuffer(b, b.typecode) for b in buffers))
        matrix.validate()
        return matrix

    @property
    def vocabulary_size(self) -> int:
        return len(self.words)

    def totals(self) -> np.ndarray:
        """Total occurrences of every word, in row order; raises
        :class:`CorpusFormatError` naming a word whose total exceeds 2^63 - 1."""
        totals = np.zeros(len(self.words), np.int64)
        if not self.words:
            return totals
        if int(self.counts.max()) * int(np.diff(self.indptr).max()) > _INT64_MAX:  # int64 sums may wrap
            over = np.add.reduceat(self.counts.astype(object), self.indptr[:-1]) > _INT64_MAX
            if over.any():
                raise CorpusFormatError(f"word {self.words[np.argmax(over)]!r}: total count exceeds 2^63 - 1")
        rows = max(1, _BLOCK_CELLS // self.horizon)  # per block, so only a block's counts are ever cast to int64
        for r in range(0, len(self.words), rows):
            a = self.indptr[r:r + rows + 1]
            totals[r:r + rows] = np.add.reduceat(self.counts[a[0]:a[-1]], a[:-1] - a[0], dtype=np.int64)
        return totals

    def gaps(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Waiting times of the words in ``rows``: (number of gaps per row, all
        gaps row after row).  A gap is the day difference between consecutive
        cells of one row; multiplicity within a day plays no part."""
        cells, lengths = self._cells(rows)
        return lengths - 1, np.delete(np.diff(self.days[cells].astype(np.int64)), np.cumsum(lengths)[:-1] - 1)

    def dense_block(self, rows: Sequence[int]) -> np.ndarray:
        """(len(rows) x horizon) day counts of the words in ``rows``, zero days included."""
        cells, lengths = self._cells(rows)
        block = np.zeros((lengths.size, self.horizon), dtype=np.int64)
        block[np.repeat(np.arange(lengths.size), lengths), self.days[cells]] = self.counts[cells]
        return block

    def keep_days(self, kept: Sequence[int]) -> "WordDayMatrix":
        """Only the cells on the ascending ``kept`` days, renumbered 0..len(kept)-1;
        words left without cells disappear.  Beside both matrices it holds one
        renumbered day and one flag per cell, never a row per cell."""
        new_day = np.full(self.horizon, -1, dtype=_typecode(0, len(kept) - 1))
        new_day[np.asarray(kept, dtype=np.intp)] = np.arange(len(kept))
        days = new_day[self.days]
        keep = days >= 0
        lengths = np.add.reduceat(keep, self.indptr[:-1], dtype=np.int64)  # kept cells per row
        days = days[keep]  # every cell's renumbered day is freed before the counts are copied
        counts = self.counts[keep]
        alive = lengths > 0
        return WordDayMatrix(len(kept), tuple(w for w, a in zip(self.words, alive) if a), _indptr(lengths[alive]),
                             days, counts.astype(_typecode(1, int(counts.max(initial=1))), copy=False))

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError("horizon must be >= 1" if self.horizon < 1 else f"horizon must be <= {MAX_HORIZON}")
        unsavable = [w for w in self.words if "\t" in w or "\n" in w or "\r" in w]
        if unsavable:  # matrix.tsv could not be read back
            raise ValueError(f"word {unsavable[0]!r}: contains TAB, LF or CR")
        unencodable = [w for w in self.words if not w.isascii() and _SURROGATE_RE.search(w)]
        if unencodable:  # nor written
            raise ValueError(f"word {unencodable[0]!r}: holds a surrogate, which UTF-8 cannot encode")
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
        for a in range(0, self.days.size, _BLOCK_CELLS):  # a block at a time: no array holds a value per cell
            days = self.days[a:a + _BLOCK_CELLS]
            # each day is compared with its predecessor, a row's first day with -1 (cell 0 starts row 0)
            prev = np.empty_like(days)
            prev[1:], prev[0] = days[:-1], self.days[a - 1]
            i, j = np.searchsorted(self.indptr, (a, a + days.size))
            prev[self.indptr[i:j] - a] = -1
            bad = days <= prev  # in place from here: one flag array and one operand per block
            bad |= days >= self.horizon
            bad |= self.counts[a:a + days.size] < 1
            if bad.any():
                cell = int(np.argmax(bad))
                row = int(np.searchsorted(self.indptr, a + cell, side="right")) - 1
                if days[cell] <= prev[cell]:
                    return row, "days not ascending"
                if days[cell] >= self.horizon:
                    return row, f"day {days[cell]} outside horizon"
                return row, f"count {self.counts[a + cell]} < 1"
        return None

    def _cells(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the cells of ``rows``, row after row, and each row's number of cells."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        out_starts = np.cumsum(lengths) - lengths
        return np.arange(lengths.sum()) + np.repeat(starts - out_starts, lengths), lengths


def _indptr(lengths) -> np.ndarray:
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(lengths, dtype=np.int64)])


def _typecode(lo: int, hi: int) -> str:
    """Typecode of the narrowest signed integer type, int8 to int64, that holds every integer in [lo, hi]."""
    return next(code for code in "bhiq" if np.iinfo(code).min <= lo and hi <= np.iinfo(code).max)


def _append_cells(buffers: list[array], days: np.ndarray, counts: np.ndarray) -> None:
    """Append cells to the [days, counts] buffers of a matrix being built, so
    the cells are held once, not as pieces and then a concatenation.  Each
    buffer keeps its narrow type while the new values fit it; a value that
    does not first widens the buffer to the narrowest type that holds it,
    so the value is kept as written (and a day past the horizon reported
    as such), never wrapped."""
    for i, values in enumerate((days, counts)):
        code = _typecode(int(values.min(initial=0)), int(values.max(initial=0)))
        if array(code).itemsize > buffers[i].itemsize:
            buffers[i] = array(code, np.frombuffer(buffers[i], buffers[i].typecode).astype(code).tobytes())
        buffers[i].frombytes(values.astype(buffers[i].typecode, copy=False).tobytes())


def save_matrix(matrix: WordDayMatrix, path) -> None:
    """Write the matrix in its line-delimited form (atomic, deterministic)."""
    rows = max(1, _BLOCK_CELLS // matrix.horizon)  # per block; a row has at most horizon cells
    with atomic_writer(path) as fh:
        fh.write(f"#T={matrix.horizon}\n")
        for start in range(0, matrix.vocabulary_size, rows):
            heads = [f"{word}\t".encode() for word in matrix.words[start:start + rows]]
            indptr = matrix.indptr[start:start + len(heads) + 1]
            a, b = indptr[0], indptr[-1]
            values = np.column_stack((matrix.days[a:b], matrix.counts[a:b])).ravel()  # day, count, ...
            digits = np.ones(values.size, np.int64)
            for j in range(1, len(str(values.max()))):
                digits += values >= 10**j
            # each value is followed by its separator byte; ends[i] is one past it
            ends = np.cumsum(digits + 1) + np.repeat(np.cumsum([len(h) for h in heads]), 2 * np.diff(indptr))
            out = np.zeros(ends[-1], np.uint8)
            out[ends - 1] = np.tile(np.frombuffer(b":,", np.uint8), values.size // 2)  # after a day, after a count
            out[ends[2 * (indptr[1:] - a) - 1] - 1] = ord("\n")
            at = ends - 2  # the last digit of each value, written right to left
            while values.size:
                out[at] = ord("0") + values % 10
                more = values >= 10
                values, at = values[more] // 10, at[more] - 1
            out[out == 0] = np.frombuffer(b"".join(heads), np.uint8)  # the bytes left are the word<TAB> heads
            fh.write(out.tobytes().decode())


def load_matrix(path) -> WordDayMatrix:
    """Read a matrix written by :func:`save_matrix`.

    Raises :class:`CorpusFormatError` naming an offending line.
    """
    words: list[str] = []
    linenos = array("q")
    lengths = array("q")
    pending: list[tuple[int, str]] = []  # (line number, cells) of the block being read
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#T="):
            raise CorpusFormatError(f"{path}: missing #T= header line")
        digits = header[3:].lstrip("0")  # int() refuses more than 4300 digits, leading zeros included
        if not (digits.isascii() and digits.isdigit() and _below_2_63(digits) and 1 <= int(digits) <= MAX_HORIZON):
            raise CorpusFormatError(f"{path}: bad horizon in header {header!r}: not an integer in [1, {MAX_HORIZON}]")
        buffers = [array(_typecode(0, int(digits) - 1)), array("b")]  # days, counts
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, cells = line.split("\t")
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: expected word<TAB>cells") from None
            words.append(word)
            linenos.append(lineno)
            lengths.append(cells.count(",") + 1)
            pending.append((lineno, cells))
            if len(pending) == _BLOCK_LINES:
                _parse_cells(path, pending, buffers)
                pending = []
    _parse_cells(path, pending, buffers)
    matrix = WordDayMatrix(int(digits), tuple(words), _indptr(lengths),
                           *(np.frombuffer(b, b.typecode) for b in buffers))
    problem = matrix._first_problem()
    if problem is not None:
        raise CorpusFormatError(f"{path}:{linenos[problem[0]]}: {problem[1]}")
    return matrix


def _parse_cells(path, lines: list[tuple[int, str]], buffers: list[array]) -> None:
    """Append the cells of (line number, cells) pairs to the [days, counts]
    buffers, widening a buffer when a value does not fit its type.  A block
    that fails the bulk check, or holds 2^63 - 1 (as the bulk parser reads
    any larger value), is checked line by line, so the error names its
    line.  A day past ``horizon - 1`` is kept as written, so the matrix
    check reports it as such."""
    if not lines:
        return
    values = _block_values("\n".join(cells for _, cells in lines).encode(), len(lines))
    if values is None or (values == _INT64_MAX).any():
        for lineno, cells in lines:
            bad = _bad_cell(cells)
            if bad is not None:
                raise CorpusFormatError(f"{path}:{lineno}: bad cell {bad!r}")
    _append_cells(buffers, values[0::2], values[1::2])


def _block_values(text: bytes, n_lines: int) -> np.ndarray | None:
    """day, count, day, count, ... of ``n_lines`` cell strings joined by LF,
    or None unless each matches ``_CELLS_RE``: then, without its digits, the
    text reads ':' and then ',' or LF, over and over, and no separator
    touches another or starts or ends the text."""
    skeleton = text.translate(None, b"0123456789")
    flat = text.translate(bytes.maketrans(b":\n", b",,"))
    sep = np.frombuffer(flat, np.uint8) == ord(",")
    if (len(skeleton) % 2 == 0 or skeleton[0::2].translate(None, b":") or skeleton[1::2].translate(None, b",\n")
            or skeleton.count(b"\n") != n_lines - 1 or sep[0] or sep[-1] or (sep[1:] & sep[:-1]).any()):
        return None
    return np.fromstring(flat, dtype=np.int64, count=len(skeleton) + 1, sep=",")


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
