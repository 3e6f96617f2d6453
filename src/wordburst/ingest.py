"""Corpus ingestion: tokenization, daily binning, missed-scan cleaning.

The pipeline turns a flat dated corpus file into a cleaned
:class:`~wordburst.matrix.WordDayMatrix`:

    read_flat_corpus -> Post records -> bin_daily -> clean_missing_scans

Day indices count from the corpus epoch (the earliest date); a day's
entry for a word is the number of posts containing that word at least
once, never the within-post multiplicity.
"""
from __future__ import annotations

import datetime as dt
import html
import json
import re
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CorpusFormatError, EmptyCorpusError
from .matrix import WordDayMatrix

_TAG_RE = re.compile(r"<!--.*?-->|<[^>]*>", re.DOTALL)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# ASCII letters and digits lowered, other bytes spaces: on ASCII text its split gives _TOKEN_RE's tokens
_TOKEN_TABLE = bytes(ord(chr(c).lower()) if chr(c).isascii() and chr(c).isalnum() else 32 for c in range(256))


@dataclass(frozen=True)
class Post:
    """A dated text, the unit of word-presence counting."""

    feed_id: str
    day_index: int
    text: str


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

    @property
    def horizon(self) -> int:
        return len(self.days)

    @classmethod
    def all_scanned(cls, horizon: int) -> "ScanLog":
        return cls([ScanDay(i, True) for i in range(horizon)])

    @classmethod
    def from_json(cls, text: str) -> "ScanLog":
        try:
            raw = json.loads(text)
            days = [
                ScanDay(d["day_index"], d["scan_performed"], d.get("new_post_count", 0))
                for d in raw["days"]
            ]
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise CorpusFormatError(f"bad scan log: {exc}") from exc
        return cls(days)

    def to_dict(self) -> dict:
        return {"days": [asdict(d) for d in self.days]}


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


def bin_daily(posts: list[Post], horizon: int) -> WordDayMatrix:
    """Count, per word and day, the number of posts containing the word.

    A word occurring several times inside one post counts once for that
    post; two posts on the same day each containing it count twice.
    """
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # a new word gets the next id
    ids = array("q")  # the distinct words of each post, post after post
    ends = array("q")  # where each post's words end in ids
    days = array("q")
    for post in posts:
        if not 0 <= post.day_index < horizon:
            raise ValueError(f"post day {post.day_index} outside horizon [0, {horizon})")
        ids.extend(map(vocab.__getitem__, set(tokenize(post.text))))
        ends.append(len(ids))
        days.append(post.day_index)
    words = sorted(vocab)
    row = np.empty(len(words), dtype=np.int64)
    row[np.fromiter(map(vocab.__getitem__, words), np.int64, len(words))] = np.arange(len(words))
    codes = row[np.frombuffer(ids, dtype=np.int64)]  # row * horizon + day, one per post-word
    del ids  # arrays of one entry per post-word set the peak memory: hold at most two
    codes *= horizon
    codes += np.repeat(np.frombuffer(days, dtype=np.int64), np.diff(ends, prepend=0))
    codes.sort()
    first = np.ones(codes.size, dtype=bool)  # first code of each run of equal codes
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    cells, counts = codes[starts], np.diff(starts, append=codes.size)
    del codes
    return WordDayMatrix.from_sorted_cells(horizon, words, cells // horizon, cells % horizon, counts)


def clean_missing_scans(matrix: WordDayMatrix, log: ScanLog) -> tuple[WordDayMatrix, CleaningReport]:
    """Drop missed-scan days and the scanned day right after each gap.

    Posts accumulate onto the first scan after a gap, so that day's
    counts are spurious as well.  Remaining days are re-indexed
    contiguously and word totals recomputed; words left with no days
    disappear.
    """
    if log.horizon != matrix.horizon:
        raise CorpusFormatError(f"scan log horizon {log.horizon} != matrix horizon {matrix.horizon}")
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


def read_flat_corpus(path) -> tuple[list[Post], int]:
    """Read a ``YYYY-MM-DD<TAB>feed_id<TAB>text`` file into posts.

    The epoch is the earliest date present; day indices are calendar-day
    offsets from it and the horizon is the latest offset + 1.
    """
    dated: list[tuple[dt.date, str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise CorpusFormatError(f"{path}:{lineno}: expected date<TAB>feed_id<TAB>text")
            date_s, feed_id, text = parts
            try:
                date = dt.date.fromisoformat(date_s)
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: bad date {date_s!r}") from None
            dated.append((date, feed_id, text))
    if not dated:
        raise EmptyCorpusError(f"{path}: empty corpus")
    epoch = min(d for d, _, _ in dated)
    posts = [Post(feed_id=f, day_index=(d - epoch).days, text=t) for d, f, t in dated]
    horizon = max(p.day_index for p in posts) + 1
    return posts, horizon
