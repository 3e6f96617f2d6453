"""Corpus ingestion: feed parsing, scan diffing, tokenization, daily binning.

The pipeline turns raw RSS scans (or a flat dated corpus file) into a
cleaned :class:`~wordburst.matrix.WordDayMatrix`:

    parse_rss -> diff_scan -> Post records -> bin_daily -> clean_missing_scans

Day indices count from the corpus epoch (the first scan date); a day's
entry for a word is the number of posts containing that word at least
once, never the within-post multiplicity.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import html
import json
import re
import xml.etree.ElementTree as ET
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorpusFormatError,
    EmptyCorpusError,
    FeedParseError,
    FeedStructureError,
)
from .fileio import atomic_writer
from .matrix import WordDayMatrix

_TAG_RE = re.compile(r"<!--.*?-->|<[^>]*>", re.DOTALL)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# ASCII letters and digits lowered, other bytes spaces: on ASCII text its split gives _TOKEN_RE's tokens
_TOKEN_TABLE = bytes(ord(chr(c).lower()) if chr(c).isascii() and chr(c).isalnum() else 32 for c in range(256))
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class FeedItem:
    """One item element of a feed scan."""

    feed_id: str
    guid: str
    title: str
    description: str


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

    def missed_days(self) -> list[int]:
        return [d.day_index for d in self.days if not d.scan_performed]

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


def strip_markup(text: str) -> str:
    """Drop tag-like markup, decode entities, collapse whitespace."""
    text = _TAG_RE.sub(" ", text)
    text = html.unescape(text)
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    """Split text into lowercased words.

    Markup is removed first; anything that is not a Unicode letter or
    digit separates tokens; empty tokens are dropped.  Text that is ASCII
    after decoding (``&nbsp;`` as a space) is cut through one byte table.
    """
    # strip_markup without its whitespace collapse: whitespace only ever separates tokens.
    # Outside ASCII each token is lowered alone: lowering all the text splits 'İ', changes some 'Σ'.
    text = html.unescape(_TAG_RE.sub(" ", text)).replace("\xa0", " ")
    if text.isascii():
        return text.encode().translate(_TOKEN_TABLE).decode().split()
    return list(map(str.lower, _TOKEN_RE.findall(text)))


def content_guid(title: str, description: str) -> str:
    """Stable fallback identifier for items that carry no guid element."""
    payload = title.encode("utf-8") + b"\x00" + description.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def parse_rss(data: bytes, feed_id: str | None = None) -> list[FeedItem]:
    """Extract items from one RSS 2.0 document, in document order.

    Titles and descriptions come back markup-stripped.  Items without a
    guid get :func:`content_guid` of their title+description.  When
    ``feed_id`` is not given, the channel link (or title) is used.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        offset = _byte_offset(data, exc)
        raise FeedParseError(f"malformed XML at byte {offset}: {exc}", byte_offset=offset) from exc
    channel = root.find("channel") if root.tag != "channel" else root
    if channel is None:
        raise FeedStructureError(f"no channel element under root {root.tag!r}")
    if feed_id is None:
        feed_id = (channel.findtext("link") or channel.findtext("title") or "").strip()
    items = []
    seen: set[str] = set()
    for el in channel.findall("item"):
        title = strip_markup(el.findtext("title") or "")
        description = strip_markup(el.findtext("description") or "")
        guid = (el.findtext("guid") or "").strip()
        if not guid:
            guid = content_guid(title, description)
        if guid in seen:
            continue
        seen.add(guid)
        items.append(FeedItem(feed_id=feed_id, guid=guid, title=title, description=description))
    return items


def _byte_offset(data: bytes, exc: ET.ParseError) -> int | None:
    # expat reports (line, column); convert to a byte offset in the input
    try:
        line, column = exc.position
    except (AttributeError, TypeError):
        return None
    lines = data.split(b"\n")
    if line - 1 >= len(lines):
        return None
    return sum(len(l) + 1 for l in lines[: line - 1]) + column


def diff_scan(previous: set[str], current: list[FeedItem]) -> list[FeedItem]:
    """Items of the current scan whose guid was absent from the previous one.

    Items that disappeared since the previous scan are dropped silently.
    The caller is responsible for passing the guid set of the same feed.
    """
    return [item for item in current if item.guid not in previous]


class FeedSnapshotStore:
    """One file per feed holding the guid set seen at the last scan."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, feed_id: str) -> Path:
        name = hashlib.sha256(feed_id.encode("utf-8")).hexdigest()[:24]
        return self.directory / f"{name}.guids"

    def load(self, feed_id: str) -> set[str]:
        path = self._path(feed_id)
        if not path.exists():
            return set()
        with open(path, "r", encoding="utf-8") as fh:
            return {line.rstrip("\n") for line in fh if line.strip()}

    def save(self, feed_id: str, guids: set[str]) -> None:
        with atomic_writer(self._path(feed_id)) as fh:
            for guid in sorted(guids):
                fh.write(guid + "\n")


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
