"""Corpus ingestion: tokenization, daily binning, missed-scan cleaning.

The pipeline turns a flat dated corpus file into a cleaned
:class:`~wordburst.matrix.WordDayMatrix`:

    read_flat_corpus -> (date ordinal, text) posts -> bin_daily -> clean_missing_scans

The corpus is read once, one post at a time, so it can be a pipe.  Day
indices count from the corpus epoch (the earliest date), which
``bin_daily`` finds itself; a day's entry for a word is the number of
posts containing that word at least once, never the within-post
multiplicity.
"""
from __future__ import annotations

import datetime as dt
import html
import json
import re
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CorpusFormatError, EmptyCorpusError
from .matrix import WordDayMatrix

_TAG_RE = re.compile(r"<!--.*?-->|<[^>]*>", re.DOTALL)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")  # from 3.11, fromisoformat alone also takes 20050211
# ASCII letters and digits lowered, other bytes spaces: on ASCII text its split gives _TOKEN_RE's tokens
_TOKEN_TABLE = bytes(ord(chr(c).lower()) if chr(c).isascii() and chr(c).isalnum() else 32 for c in range(256))
_BLOCK_POSTS = 2048  # posts whose day offsets bin_daily adds at once: no post-word-sized temporary


@dataclass(frozen=True)
class ScanDay:
    day_index: int
    scan_performed: bool
    new_post_count: int = 0


@dataclass
class ScanLog:
    """Per-day record of whether the daily scan actually ran."""

    days: list[ScanDay]

    def __post_init__(self):
        for i, d in enumerate(self.days):
            for name, kind in (("day_index", int), ("scan_performed", bool), ("new_post_count", int)):
                value = getattr(d, name)
                if type(value) is not kind:  # not isinstance: JSON true must not pass as an integer
                    raise CorpusFormatError(f"scan log day {i}: {name} must be a JSON "
                                            f"{'boolean' if kind is bool else 'integer'}, got {value!r}")
            if d.day_index != i:
                raise CorpusFormatError(f"scan log days must be contiguous from 0, got {d.day_index} at {i}")
            if d.new_post_count < 0:
                raise CorpusFormatError(f"scan log day {i}: new_post_count must be >= 0, got {d.new_post_count}")

    @classmethod
    def from_json(cls, text: str) -> "ScanLog":
        try:
            raw = json.loads(text)
            days = [
                ScanDay(d["day_index"], d["scan_performed"], d.get("new_post_count", 0))
                for d in raw["days"]
            ]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CorpusFormatError(f"bad scan log: {exc}") from exc
        return cls(days)

@dataclass
class CleaningReport:
    """What :func:`clean_missing_scans` removed and why."""

    removed_days: list[int]
    reasons: dict[int, str]
    retained_horizon: int

    def to_dict(self) -> dict:
        """Day keys become strings, so sorted keys order them as text."""
        return {"removed_days": self.removed_days, "reasons": {str(d): r for d, r in self.reasons.items()},
                "retained_horizon": self.retained_horizon}


def tokenize(text: str) -> list[str]:
    """Split text into lowercased words.

    Markup is removed first; anything that is not a Unicode letter or
    digit separates tokens; empty tokens are dropped.  Text that is ASCII
    after decoding (``&nbsp;`` as a space) is cut through one byte table.
    """
    # Outside ASCII each token is lowered alone: lowering all the text splits 'İ', changes some 'Σ'.
    text = html.unescape(_TAG_RE.sub(" ", text)).replace("\xa0", " ")
    if text.isascii():
        return text.encode().translate(_TOKEN_TABLE).decode().split()
    return list(map(str.lower, _TOKEN_RE.findall(text)))


def bin_daily(posts: Iterable[tuple[int, str]]) -> WordDayMatrix:
    """Count, per word and day, the number of ``(day, text)`` posts containing the word.

    Day 0 is the earliest post's day and the horizon ends at the latest;
    the posts are read once, so they can be a generator.  A word occurring
    several times inside one post counts once for that post; two posts on
    the same day each containing it count twice.
    """
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # a new word gets the next id
    ids = array("q")  # the distinct words of each post, post after post
    bounds = array("q", [0])  # post i's words are ids[bounds[i]:bounds[i + 1]]
    post_days = array("q")
    for day, text in posts:
        ids.extend(map(vocab.__getitem__, set(tokenize(text))))
        bounds.append(len(ids))
        post_days.append(day)
    if not post_days:
        raise EmptyCorpusError("no posts to bin")
    epoch = min(post_days)
    horizon = max(post_days) - epoch + 1
    words = sorted(vocab)
    row = np.empty(len(words), dtype=np.int64)
    row[np.fromiter(map(vocab.__getitem__, words), np.int64, len(words))] = np.arange(len(words))
    # row * horizon + day, one per post-word, coded in ids' own buffer (mode="raise" would copy out)
    codes = np.frombuffer(ids, dtype=np.int64)
    np.take(row, codes, out=codes, mode="clip")
    codes *= horizon
    offsets = np.frombuffer(post_days, dtype=np.int64) - epoch
    for b in range(0, offsets.size, _BLOCK_POSTS):
        block = bounds[b:b + _BLOCK_POSTS + 1]
        codes[block[0]:block[-1]] += np.repeat(offsets[b:b + _BLOCK_POSTS], np.diff(block))
    codes.sort()
    first = np.ones(codes.size, dtype=bool)  # first code of each run of equal codes
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    cells = codes[first]
    del codes, ids  # the post-words' one buffer
    counts = np.flatnonzero(first)  # the run starts, turned into run lengths in place
    np.subtract(counts[1:], counts[:-1], out=counts[:-1])
    counts[-1:] = first.size - counts[-1:]
    rows, days = np.divmod(cells, horizon, out=(None, cells))  # the days overwrite the cells
    return WordDayMatrix.from_sorted_cells(horizon, words, rows, days, counts)


def clean_missing_scans(matrix: WordDayMatrix, log: ScanLog) -> tuple[WordDayMatrix, CleaningReport]:
    """Drop missed-scan days and the scanned day right after each gap.

    Posts accumulate onto the first scan after a gap, so that day's
    counts are spurious as well.  Remaining days are re-indexed
    contiguously and word totals recomputed; words left with no days
    disappear.
    """
    if len(log.days) != matrix.horizon:
        raise CorpusFormatError(f"scan log horizon {len(log.days)} != corpus horizon {matrix.horizon}")
    removed: dict[int, str] = {}
    in_gap = False
    for day in log.days:
        if not day.scan_performed:
            removed[day.day_index] = "missed-scan"
            in_gap = True
        elif in_gap:
            removed[day.day_index] = "day-after-missed-scan"
            in_gap = False
    retained = [d for d in range(matrix.horizon) if d not in removed]
    if not retained:
        raise EmptyCorpusError("cleaning removed every day of the corpus")
    cleaned = matrix.keep_days(retained)
    report = CleaningReport(
        removed_days=sorted(removed),
        reasons=removed,
        retained_horizon=len(retained),
    )
    return cleaned, report


def read_flat_corpus(path) -> Iterator[tuple[int, str]]:
    """Read a ``YYYY-MM-DD<TAB>feed_id<TAB>text`` file as ``(date ordinal, text)`` posts.

    The feed id must be present but is not kept.  The file is read once,
    one line at a time, as the posts are iterated; each line is checked as
    it is read.  Only LF ends a line: a CR inside a text is text, and the
    CR of a CRLF line end is dropped.
    """
    dates = {}  # date string -> ordinal: each distinct date is parsed once
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise CorpusFormatError(f"{path}:{lineno}: expected date<TAB>feed_id<TAB>text")
            date_s = parts[0]
            if date_s not in dates:
                try:
                    if not _DATE_RE.fullmatch(date_s):
                        raise ValueError(date_s)
                    dates[date_s] = dt.date.fromisoformat(date_s).toordinal()
                except ValueError:
                    raise CorpusFormatError(f"{path}:{lineno}: bad date {date_s!r}") from None
            yield dates[date_s], parts[2]
    if not dates:
        raise EmptyCorpusError(f"{path}: empty corpus")
