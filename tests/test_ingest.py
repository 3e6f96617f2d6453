"""Ingestion pipeline: tokenization, binning, cleaning, the flat corpus."""
import datetime as dt
import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wordburst import matrix as matrix_module
from wordburst.errors import CorpusFormatError, EmptyCorpusError
from wordburst.ingest import (
    ScanDay,
    ScanLog,
    bin_daily,
    clean_missing_scans,
    read_flat_corpus,
    tokenize,
)
from wordburst.matrix import WordDayMatrix, load_matrix, save_matrix

from conftest import build_matrix, series


def narrowest(largest: int) -> type:
    """The narrowest of int8, int16, int32 and int64 whose range reaches ``largest``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("The cat, the hat!") == ["the", "cat", "the", "hat"]

    def test_markup_is_a_separator(self):
        assert tokenize("<b>Hello</b>world") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept_and_unicode_letters(self):
        assert tokenize("mp3 files, naïve café") == ["mp3", "files", "naïve", "café"]

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_dotted_capital_i_lowers_with_combining_mark(self):
        # 'İ' lowercases to 'i' + combining dot; splitting happens before
        # lowercasing, so the mark stays inside the token
        assert tokenize("İstanbul") == ["i̇stanbul"]

    @pytest.mark.parametrize("text, tokens", [
        ("A&nbsp;B", ["a", "b"]),  # &nbsp; decodes to a space, so the text stays ASCII
        ("x\x1fy", ["x", "y"]),
        ("MP3_Player", ["mp3", "player"]),
        ("a&#931;b", ["aσb"]),  # decodes to non-ASCII: the Unicode rule still holds
        ("a <!-- hidden <b> --> b", ["a", "b"]),  # a comment goes whole, tags inside it too
        ("a <!-- x > hidden --> b", ["a", "b"]),  # a comment ends at -->, not at its first >
    ])
    def test_ascii_byte_table_edges(self, text, tokens):
        assert tokenize(text) == tokens


class TestBinDaily:
    def test_multiplicity_within_post_counts_once(self):
        posts = [(0, "cat cat cat")]
        m = bin_daily(posts)
        assert series(m, "cat") == {0: 1}

    def test_two_posts_same_day_count_twice(self):
        posts = [(0, "cat here"), (0, "a cat there")]
        m = bin_daily(posts)
        assert series(m, "cat") == {0: 2}

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            bin_daily([])

    def test_days_count_from_the_earliest_post(self):
        m = bin_daily([(12, "cat"), (10, "cat hat")])
        assert m.horizon == 3
        assert (series(m, "cat"), series(m, "hat")) == ({0: 1, 2: 1}, {0: 1})

    def test_tokenless_corpus_bins_and_cleans_to_no_words(self):
        m = bin_daily([(0, "!!!"), (3, "")])
        assert (m.horizon, m.words) == (4, ())
        cleaned, report = clean_missing_scans(m, ScanLog([ScanDay(d, d != 1) for d in range(4)]))
        assert report.removed_days == [1, 2]
        assert (cleaned.horizon, cleaned.words, cleaned.days.size, cleaned.counts.size) == (2, (), 0, 0)
        cleaned.validate()

    def test_binning_conserves_distinct_word_mass(self):
        posts = [(0, "a b a"), (1, "b c"), (1, "c c d")]
        m = bin_daily(posts)
        assert int(m.counts.sum()) == sum(len(set(tokenize(text))) for _, text in posts)


class TestCleaning:
    def test_all_scans_performed_is_identity(self, tiny_matrix):
        log = ScanLog([ScanDay(d, True) for d in range(tiny_matrix.horizon)])
        cleaned, report = clean_missing_scans(tiny_matrix, log)
        assert cleaned == tiny_matrix
        assert report.removed_days == []
        assert report.retained_horizon == tiny_matrix.horizon

    def test_missed_run_removes_following_day_too(self):
        m = build_matrix({"w": {d: 1 for d in range(10)}}, horizon=10)
        log = ScanLog([ScanDay(d, d not in (5, 6)) for d in range(10)])
        cleaned, report = clean_missing_scans(m, log)
        assert report.removed_days == [5, 6, 7]
        assert report.reasons[5] == "missed-scan"
        assert report.reasons[7] == "day-after-missed-scan"
        assert cleaned.horizon == 7
        # days re-indexed contiguously: old day 8 -> new day 5
        assert series(cleaned, "w") == {d: 1 for d in range(7)}

    def test_234_days_down_to_214(self):
        horizon = 234
        missed = list(range(30, 40)) + list(range(100, 108))  # 18 missed days
        # runs [30..39] and [100..107]: +1 following day each -> 20 removed
        m = build_matrix({"w": {d: 1 for d in range(horizon)}}, horizon=horizon)
        log = ScanLog([ScanDay(d, d not in missed) for d in range(horizon)])
        cleaned, report = clean_missing_scans(m, log)
        assert report.retained_horizon == 214
        assert cleaned.horizon == 214

    def test_cleaning_is_idempotent(self, tiny_matrix):
        log = ScanLog([ScanDay(d, d != 4) for d in range(10)])
        once, report = clean_missing_scans(tiny_matrix, log)
        again, report2 = clean_missing_scans(once, ScanLog([ScanDay(d, True) for d in range(once.horizon)]))
        assert again == once
        assert report2.removed_days == []

    def test_totals_recomputed(self):
        m = build_matrix({"w": {0: 1, 1: 5, 2: 1}}, horizon=3)
        log = ScanLog([ScanDay(0, True), ScanDay(1, False), ScanDay(2, True)])
        cleaned, _ = clean_missing_scans(m, log)
        assert cleaned.totals().tolist() == [1]  # days 1 (missed) and 2 (after) dropped

    def test_all_days_removed_is_empty_corpus_error(self):
        m = build_matrix({"w": {0: 1}}, horizon=2)
        log = ScanLog([ScanDay(0, False), ScanDay(1, False)])
        with pytest.raises(EmptyCorpusError):
            clean_missing_scans(m, log)

    def test_horizon_mismatch(self, tiny_matrix):
        with pytest.raises(ValueError):
            clean_missing_scans(tiny_matrix, ScanLog([ScanDay(d, True) for d in range(3)]))


class TestScanLog:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            ScanLog([ScanDay(1, True)])

    def test_json_round_trip(self):
        log = ScanLog([ScanDay(0, True, 5), ScanDay(1, False, 0), ScanDay(2, True, 9)])
        again = ScanLog.from_json(json.dumps({"days": [vars(d) for d in log.days]}))
        assert again == log

    def test_bad_json(self):
        with pytest.raises(CorpusFormatError):
            ScanLog.from_json('{"days": [{"scan_performed": true}]}')


class TestFlatCorpus:
    def write(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_day_indices_from_epoch(self, tmp_path):
        path = self.write(tmp_path, "2005-02-11\tfeedA\thello world\n2005-02-13\tfeedB\tmore text\n")
        assert list(read_flat_corpus(path)) == [(dt.date(2005, 2, 11).toordinal(), "hello world"),
                                                (dt.date(2005, 2, 13).toordinal(), "more text")]
        m = bin_daily(read_flat_corpus(path))
        assert (m.horizon, series(m, "hello"), series(m, "more")) == (3, {0: 1}, {2: 1})

    def test_tabs_inside_text_are_kept(self, tmp_path):
        path = self.write(tmp_path, "2005-02-11\tf\ttext\twith\ttabs\n")
        assert list(read_flat_corpus(path)) == [(dt.date(2005, 2, 11).toordinal(), "text\twith\ttabs")]

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            list(read_flat_corpus(self.write(tmp_path, "")))

    def test_bad_line_reports_position(self, tmp_path):
        path = self.write(tmp_path, "2005-02-11\tf\tok\nnot a line\n")
        with pytest.raises(CorpusFormatError) as err:
            list(read_flat_corpus(path))
        assert ":2:" in str(err.value)

    def test_blank_lines_are_skipped(self, tmp_path):
        lines = ["2005-02-11\tf\tthe cat", "2005-02-13\tg\tthe hat"]
        plain = bin_daily(read_flat_corpus(self.write(tmp_path, "\n".join(lines) + "\n")))
        spaced = bin_daily(read_flat_corpus(self.write(tmp_path, "\n" + "\n\n".join(lines) + "\n\n")))
        assert spaced == plain

    def test_bad_date_reports_position(self, tmp_path):
        # from Python 3.11 on, date.fromisoformat alone also takes the basic and week forms
        for date in ["02/11/2005", "20050211", "2005-W06-5", "2005W065"]:
            path = self.write(tmp_path, f"2005-02-11\tf\ttext\n{date}\tf\ttext\n")
            with pytest.raises(CorpusFormatError) as err:
                list(read_flat_corpus(path))
            assert str(err.value) == f"{path}:2: bad date {date!r}"


class TestMatrixConstruction:
    @pytest.mark.parametrize("horizon, counts, message", [
        (3, {"w": {}}, "word 'w': no day entries"),
        (3, {"w": {1: 0}}, "word 'w': count 0 < 1"),
        (0, {}, "horizon must be >= 1"),
        # save_matrix would write these words, and load_matrix would split their lines
        *((3, {w: {0: 1}, "z": {1: 2}}, f"word {w!r}: contains TAB, LF or CR") for w in ["a\tb", "a\nb", "a\rb"]),
        # nor could save_matrix encode these
        *((3, {w: {0: 1}}, f"word {w!r}: holds a surrogate, which UTF-8 cannot encode")
          for w in ["a\ud800", "\u00e9\udfff", "\ud83d\ude00"]),
        (10**7 + 1, {}, "horizon must be <= 10000000"),
        (5, {"w": {2**32: 1}}, "word 'w': day 4294967296 outside horizon"),  # narrowed unchecked, day 0
    ])
    def test_from_mapping_rejects_broken_invariant(self, horizon, counts, message):
        with pytest.raises(ValueError) as err:  # from_sorted_cells checks the int64 cells before it narrows the days
            build_matrix(counts, horizon)
        assert str(err.value) == message

    @pytest.mark.parametrize("field", [None, "horizon", "words", "indptr", "days", "counts"])
    def test_eq_compares_every_field(self, tiny_matrix, field):
        """Every == and != on matrices in this suite rests on __eq__: a copy is
        equal, and a change to any one field makes it unequal."""
        parts = {name: np.array(v) if isinstance(v, np.ndarray) else v for name, v in vars(tiny_matrix).items()}
        if field == "horizon":
            parts[field] += 1
        elif field == "words":
            parts[field] = parts[field][:-1] + ("thf",)
        elif field is not None:
            parts[field][1] += 1
        other = WordDayMatrix(**parts)
        assert (other == tiny_matrix, other != tiny_matrix) == (field is None, field is not None)
        assert tiny_matrix.__eq__(vars(tiny_matrix)) is NotImplemented

    @settings(deadline=None)
    @given(st.integers(1, 12).flatmap(lambda horizon: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 2, 2**31 - 1]), min_size=horizon, max_size=horizon), max_size=5)),
        st.sampled_from([np.int64, np.int32]))
    @example([], np.int64).via("empty input")
    @example([[0, 0, 0], [0, 0, 0]], np.int64).via("only all-zero rows")
    @example([[0, 3, 0], [0, 0, 0], [2**31 - 1, 0, 1]], np.int32).via("int32 vectors around an all-zero row")
    def test_from_day_vectors_matches_from_mapping(self, vectors, dtype):
        horizon = len(vectors[0]) if vectors else 5
        rows = [(f"w{i}", np.array(v, dtype)) for i, v in enumerate(vectors)]
        m = WordDayMatrix.from_day_vectors(horizon, rows)
        assert m == build_matrix({w: {d: int(c) for d, c in enumerate(x) if c} for w, x in rows if x.any()}, horizon)
        # days take the narrowest signed type that holds horizon - 1, counts the narrowest that
        # holds the largest count; cell offsets are int64
        largest = max((int(c) for _, x in rows for c in x), default=0)
        assert (m.indptr.dtype, m.days.dtype, m.counts.dtype) == (np.int64, narrowest(horizon - 1), narrowest(largest))
        assert not any(a.flags.writeable for a in (m.indptr, m.days, m.counts))


class TestMatrixSerialization:
    def test_round_trip(self, tiny_matrix, tmp_path):
        path = tmp_path / "m.tsv"
        save_matrix(tiny_matrix, path)
        again = load_matrix(path)
        assert again.horizon == tiny_matrix.horizon
        assert again == tiny_matrix

    def test_header_and_sorted_words(self, tiny_matrix, tmp_path):
        path = tmp_path / "m.tsv"
        save_matrix(tiny_matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#T=10"
        words = [l.split("\t")[0] for l in lines[1:]]
        assert words == sorted(words)

    @pytest.mark.parametrize(
        "content, message",
        [pytest.param(content, message, id=content) for content, message in [
            ("no header\n", ": missing #T= header line"),
            ("#T=5\nw\t9:1\n", ":2: day 9 outside horizon"),
            ("#T=5\nw\t1:0\n", ":2: count 0 < 1"),
            ("#T=5\nw\t2:1,1:1\n", ":2: days not ascending"),
            ("#T=5\nw\t1:1\nw\t2:1\n", ":3: duplicate word"),
            ("#T=x\n", ": bad horizon in header '#T=x': not an integer in [1, 10000000]"),
            ("#T=0\n", ": bad horizon in header '#T=0': not an integer in [1, 10000000]"),  # empty horizon
            ("#T=5\nw\t1:1\nv\t2:1\n", ":3: words not sorted"),
            ("#T=5\nw\t1:1:1\n", ":2: bad cell '1:1:1'"),  # malformed cell
            ("#T=5\nw\t1:99999999999999999999\n", ":2: bad cell '1:99999999999999999999'"),  # beyond 64 bits
            ("#T=5\nw\t2147483648:1\n", ":2: day 2147483648 outside horizon"),  # day 2^31
            ("#T=5\nw\t4294967296:1\n", ":2: day 4294967296 outside horizon"),  # day 2^32, 0 if narrowed unchecked
            # the horizon takes the digits of days and counts, and no more days than any matrix may have
            *((f"#T={horizon}\nw\t0:1\n", f": bad horizon in header '#T={horizon}': not an integer in [1, 10000000]")
              for horizon in ["+5", " 5", "1_0", "\u0663", "10000001"]),
        ]] + [
            pytest.param("#T=" + "9" * 5000 + "\n",  # past int()'s default digit limit
                         f": bad horizon in header '#T={'9' * 5000}': not an integer in [1, 10000000]",
                         id="#T=5000 digits"),
        ],
    )
    def test_rejects_malformed(self, tmp_path, content, message):
        path = tmp_path / "bad.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}{message}"

    def test_day_order_is_checked_across_cell_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matrix_module, "_BLOCK_CELLS", 4)
        path = tmp_path / "m.tsv"
        # b's first cell starts the second block, below a's last day, as a row may
        path.write_text("#T=9\na\t0:1,1:1,2:1,4:1\nb\t0:1,5:1\n", encoding="utf-8")
        assert series(load_matrix(path), "b") == {0: 1, 5: 1}
        # the third block starts with a day equal to the one before it
        path.write_text("#T=9\na\t0:1,1:1,2:1,4:1\nb\t0:1,5:1,6:1,7:1,7:2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:3: days not ascending"

    @pytest.mark.parametrize("lines, message", [
        (["w\t4294967296:1"], "2: day 4294967296 outside horizon"),
        # checked after the word order, and only the first bad cell is named, in whichever block
        (["w\t4294967296:1", "v\t0:1"], "3: words not sorted"),
        (["a\t0:0", "w\t4294967296:1"], "2: count 0 < 1"),
        ([f"w{i:05d}\t0:1" for i in range(3000)] + ["x\t1:1,9223372036854775806:1"],
         "3002: day 9223372036854775806 outside horizon"),
        ([f"w{i:05d}\t0:1" for i in range(3000)] + ["x\t3:1,2:1,4294967296:1"], "3002: days not ascending"),
    ])
    def test_rejects_day_past_2_31_unwrapped(self, tmp_path, lines, message):
        path = tmp_path / "bad.tsv"
        path.write_text("#T=5\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:{message}"

    @pytest.mark.parametrize("cells, bad", [
        ("0:9223372036854775808", "0:9223372036854775808"),  # 2^63: the bulk parser would read 2^63 - 1
        ("0:1,1:00009223372036854775808", "1:00009223372036854775808"),
        ("0:+5", "0:+5"),
        ("0: 5", "0: 5"),
        ("0:1_0", "0:1_0"),
        ("0:\u0663", "0:\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("0:1,2:-1", "2:-1"),
        ("0:1,", ""),
    ])
    def test_rejects_cell_naming_its_line(self, tmp_path, cells, bad):
        path = tmp_path / "bad.tsv"
        path.write_text(f"#T=5\na\t0:1\nb\t{cells}\nc\t0:1\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:3: bad cell {bad!r}"

    def test_rejects_2_63_in_a_later_block(self, tmp_path):
        lines = [f"w{i:05d}\t0:1" for i in range(9000)]
        lines[8000] = "w08000\t0:1,1:9223372036854775808"
        path = tmp_path / "bad.tsv"
        path.write_text("#T=5\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"bad.tsv:8002: bad cell '1:9223372036854775808'"):
            load_matrix(path)

    def test_largest_count_loads(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("#T=5\nw\t0:9223372036854775807,4:0001\n", encoding="utf-8")
        assert series(load_matrix(path), "w") == {0: 2**63 - 1, 4: 1}

    @pytest.mark.parametrize("content", ["#T=5\n", "#T=5", "#T=5\n\n\n", "#T=0005\n",
                                         pytest.param("#T=" + "0" * 4999 + "5\n", id="#T=5 after 4999 zeros")])
    def test_empty_matrix_loads(self, tmp_path, content):
        path = tmp_path / "m.tsv"
        path.write_text(content, encoding="utf-8")
        assert load_matrix(path) == build_matrix({}, horizon=5)

    @pytest.mark.parametrize("horizon", [300, 80_000])
    def test_round_trip_across_blocks(self, tmp_path, horizon):
        # several blocks each way; at the long horizon a save block is one row,
        # and the row "long" alone holds more cells than a block of short rows
        rng = np.random.default_rng(3)
        counts = {f"w{i:05d}": {int(d): int(rng.integers(1, 2000)) for d in rng.choice(300, rng.integers(1, 40))}
                  for i in range(6000)}
        counts["long"] = {d: 1 + d % 7 for d in range(horizon)}
        m = build_matrix(counts, horizon)
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        expected = [f"#T={horizon}"] + [
            w + "\t" + ",".join(f"{d}:{c}" for d, c in sorted(counts[w].items())) for w in sorted(counts)]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
        assert load_matrix(path) == m

    @pytest.mark.parametrize("cells, bad", [("0:1,1:+5", "1:+5"), ("0:1,,1:1", ""), ("0:1 ", "0:1 ")])
    def test_rejects_bad_cell_in_a_later_block(self, tmp_path, cells, bad):
        lines = [f"w{i:05d}\t0:1" for i in range(9000)]
        lines[8000] = f"w08000\t{cells}"
        path = tmp_path / "bad.tsv"
        path.write_text("#T=5\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:8002: bad cell {bad!r}"


class TestNarrowTypes:
    """Days take the narrowest signed type that holds horizon - 1 and counts the
    narrowest that holds the largest count.  At each type's edges every
    constructor picks that type, and no value wraps on the way in or out."""

    @staticmethod
    def wide(counts: dict[str, dict[int, int]], horizon: int) -> WordDayMatrix:
        """The matrix of ``{word: {day: count}}`` in int64 arrays, built field by field."""
        words = sorted(counts)
        days, values = (np.array(column, np.int64) for column in
                        zip(*(cell for w in words for cell in sorted(counts[w].items()))))
        return WordDayMatrix(horizon, tuple(words), np.cumsum([0] + [len(counts[w]) for w in words]), days, values)

    @staticmethod
    def vectors(counts: dict[str, dict[int, int]], length: int):
        for word in sorted(counts):
            x = np.zeros(length, np.int64)
            x[list(counts[word])] = list(counts[word].values())
            yield word, x

    @pytest.mark.parametrize("horizon", [128, 129, 32768, 32769])
    @pytest.mark.parametrize("largest", [127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**63 - 1])
    def test_type_edges(self, tmp_path, horizon, largest):
        last = horizon - 1
        counts = {"a": {0: largest}, "b": {1: 1, last: largest - 1}, "c": {last: 1}}
        path = tmp_path / "m.tsv"
        path.write_text(_reference_tsv(self.wide(counts, horizon)), encoding="utf-8")
        # one more day, whose only cell (the largest count) keep_days drops
        longer = build_matrix(counts | {"d": {horizon: 2**63 - 1}}, horizon + 1)
        for m in (build_matrix(counts, horizon), WordDayMatrix.from_day_vectors(horizon, self.vectors(counts, horizon)),
                  load_matrix(path), longer.keep_days(range(horizon))):
            assert m == self.wide(counts, horizon)
            assert (m.days.dtype, m.counts.dtype) == (narrowest(horizon - 1), narrowest(largest))
            assert m.totals().tolist() == [sum(counts[w].values()) for w in sorted(counts)]
            save_matrix(m, path)
            assert path.read_text(encoding="utf-8") == _reference_tsv(self.wide(counts, horizon))
            again = load_matrix(path)
            assert again == m and (again.days.dtype, again.counts.dtype) == (m.days.dtype, m.counts.dtype)

    def test_widening_keeps_the_cells_before_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matrix_module, "_BLOCK_LINES", 2)
        monkeypatch.setattr(matrix_module, "_BLOCK_VECTOR_CELLS", 2)
        values = [1, 127, 128, 5, 32768, 2**31, 3, 2**63 - 1, 2]
        counts = {f"w{i}": {i % 7: c} for i, c in enumerate(values)}
        path = tmp_path / "m.tsv"
        path.write_text(_reference_tsv(self.wide(counts, 7)), encoding="utf-8")
        for m in (load_matrix(path), WordDayMatrix.from_day_vectors(7, self.vectors(counts, 7))):
            assert m == self.wide(counts, 7) and m.counts.dtype == np.int64
            assert m.totals().tolist() == values

    @pytest.mark.parametrize("horizon, day", [(214, 40000), (100, 200)])  # past int16, past int8
    def test_day_past_the_narrow_type_is_named_as_written(self, tmp_path, horizon, day):
        counts = {"a": {0: 1}, "w": {5: 3, day: 1}}
        path = tmp_path / "m.tsv"
        path.write_text(f"#T={horizon}\na\t0:1\nw\t5:3,{day}:1\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:3: day {day} outside horizon"
        for build in (lambda: build_matrix(counts, horizon),
                      lambda: WordDayMatrix.from_day_vectors(horizon, self.vectors(counts, day + 1))):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"word 'w': day {day} outside horizon"


class TestMatrixMemory:
    """A matrix being built holds its cells once, each in narrow types: the
    peak traced memory per cell stays near the final ``days`` + ``counts``
    bytes, not twice them, and far below the 12-byte cell of an int32 day
    and an int64 count."""

    @staticmethod
    def _peak_per_cell(build) -> float:
        build()  # lazy imports happen outside the traced run
        tracemalloc.start()
        try:
            m = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.days.dtype, m.counts.dtype) == (np.int16, np.int8)  # 3 bytes a cell
        return peak / m.days.size

    @staticmethod
    def _poisson_words(n_words: int, horizon: int):
        rng = np.random.default_rng(8)
        return ((f"w{i:05d}", rng.poisson(0.5, horizon)) for i in range(n_words))

    def test_from_day_vectors(self):
        per_cell = self._peak_per_cell(lambda: WordDayMatrix.from_day_vectors(214, self._poisson_words(3000, 214)))
        assert per_cell <= 1.6 * 12  # the bound of the 12-byte cell layout, in bytes
        assert per_cell <= 6

    def test_load_matrix(self, tmp_path, monkeypatch):
        path = tmp_path / "m.tsv"
        save_matrix(WordDayMatrix.from_day_vectors(214, self._poisson_words(3000, 214)), path)
        monkeypatch.setattr(matrix_module, "_BLOCK_LINES", 64)
        per_cell = self._peak_per_cell(lambda: load_matrix(path))
        assert per_cell <= 1.6 * 12  # the bound of the 12-byte cell layout, in bytes
        assert per_cell <= 6

    def test_validate_holds_no_cell_sized_temporary(self):
        """The invariants are checked a block of cells at a time."""
        m = WordDayMatrix.from_day_vectors(1000, self._poisson_words(3000, 1000))
        assert m.days.size >= 2**20
        m.validate()  # lazy imports happen outside the traced run
        tracemalloc.start()
        try:
            m.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.days.size

    def test_totals_holds_no_cell_sized_temporary(self):
        """Narrow counts are summed in int64 a block of rows at a time, never cast to int64 all at once."""
        m = WordDayMatrix.from_day_vectors(1000, self._poisson_words(3000, 1000))
        assert m.counts.dtype == np.int8 and m.days.size >= 2**20
        m.totals()
        tracemalloc.start()
        try:
            totals = m.totals()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert totals.dtype == np.int64
        assert peak < totals.nbytes + m.days.size


class TestReaderMemory:
    def test_ingest_holds_one_post_text_at_a_time(self, tmp_path):
        """Reading and binning a corpus of long posts peaks below a quarter of
        the size of its texts: the posts are read lazily and each text is
        freed once it has been tokenized."""
        rng = np.random.default_rng(5)
        words = np.array(["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa"])
        texts = [" ".join(rng.choice(words, 400)) for _ in range(2_000)]
        path = tmp_path / "corpus.txt"
        path.write_text("".join(f"2005-{1 + i % 12:02d}-{1 + i % 28:02d}\tfeed{i % 50}\t{text}\n"
                                for i, text in enumerate(texts)), encoding="utf-8")
        text_bytes = sum(map(sys.getsizeof, texts))
        del texts
        bin_daily(read_flat_corpus(path))  # lazy imports happen outside the traced run
        tracemalloc.start()
        try:
            bin_daily(read_flat_corpus(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < text_bytes / 4

    def test_bin_daily_holds_each_post_word_once(self):
        """Binning many post-words into few cells peaks near the post-words'
        own 8 bytes each: the cells are coded in the word ids' buffer and the
        days are added a block of posts at a time, with no post-word-sized copy."""
        rng = np.random.default_rng(6)
        vocabulary = np.array([f"w{i:03d}" for i in range(200)])
        posts = [(i % 10, " ".join(rng.choice(vocabulary, 50, replace=False))) for i in range(20_000)]
        bin_daily(posts[:10])  # lazy imports happen outside the traced run
        tracemalloc.start()
        try:
            m = bin_daily(posts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.horizon, m.vocabulary_size, int(m.counts.sum())) == (10, 200, 50 * len(posts))
        assert peak < 1.25 * 8 * 50 * len(posts)

    def test_cleaning_holds_no_row_per_cell(self):
        """Besides the two matrices, cleaning holds one renumbered day and one
        flag per cell, not a row index per cell.  A word whose only day is
        removed vanishes, and the cleaned matrix keeps every invariant."""
        horizon = 2_000
        lonely = np.zeros(horizon, np.int64)
        lonely[7] = 1
        m = WordDayMatrix.from_day_vectors(
            horizon, [("lonely", lonely)] + [(f"w{i:03d}", (np.arange(horizon) + i) % 3) for i in range(100)])
        log = ScanLog([ScanDay(d, d not in (7, 500)) for d in range(horizon)])
        clean_missing_scans(m, log)  # lazy imports happen outside the traced run
        tracemalloc.start()
        try:
            cleaned, report = clean_missing_scans(m, log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * m.days.size
        assert report.removed_days == [7, 8, 500, 501]
        assert cleaned.words == m.words[1:] and cleaned.horizon == horizon - 4
        cleaned.validate()


def _reference_tsv(m: WordDayMatrix) -> str:
    """matrix.tsv formatted row by row."""
    lines = [f"#T={m.horizon}"]
    for r, word in enumerate(m.words):
        cells = range(m.indptr[r], m.indptr[r + 1])
        lines.append(word + "\t" + ",".join(f"{m.days[i]}:{m.counts[i]}" for i in cells))
    return "\n".join(lines) + "\n"


_WORDS = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=4)
_COUNTS = st.one_of(st.integers(1, 200), st.sampled_from([9, 10, 99, 100, 10**18, 2**63 - 1]))


@st.composite
def _matrices(draw):
    horizon = draw(st.integers(1, 30))
    return build_matrix(draw(st.dictionaries(
        _WORDS, st.dictionaries(st.integers(0, horizon - 1), _COUNTS, min_size=1), max_size=6)), horizon)


def _digit_edges(horizon):
    """Counts on each side of every digit-count step that matters, under non-ASCII words."""
    counts = [9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1]
    return build_matrix({f"w{i}\u00e9\u4e2d": {i % horizon: c} for i, c in enumerate(counts)}
                        | {"\u00fc": {d: 1 + d for d in range(horizon)}}, horizon)


@settings(deadline=None)
@given(_matrices(), st.sampled_from([1, 8, 1 << 16]))
@example(_digit_edges(1), 1).via("horizon 1, one row per save block")
@example(_digit_edges(7), 1).via("one row per save block")
@example(_digit_edges(7), 1 << 16)
def test_save_matches_reference_formatter(m, block_cells):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(matrix_module, "_BLOCK_CELLS", block_cells):
        path = Path(tmp) / "m.tsv"
        save_matrix(m, path)
        assert path.read_text(encoding="utf-8") == _reference_tsv(m)
        assert load_matrix(path) == m


_CELL_TOKENS = [*"0123456789", ":", ",", "\n", "\r", " ", "-", "+", "_", "\u0663", ""]
_CELL_NUMBERS = ["0", "13", "042", "9223372036854775807", "9223372036854775808"]


@st.composite
def _cell_strings(draw):
    """A well-formed cell string, or one with one digit run emptied or one
    separator replaced by a token that is not a digit."""
    parts = []
    for i in range(2 * draw(st.integers(1, 3))):
        parts += [draw(st.sampled_from(_CELL_NUMBERS)), ",:"[i % 2 == 0]]
    parts[-1] = ""  # nothing follows the last count
    if draw(st.booleans()):
        k = draw(st.integers(0, len(parts) - 2))
        parts[k] = draw(st.sampled_from(_CELL_TOKENS[10:])) if k % 2 else ""
    return "".join(parts)


@settings(max_examples=500)
@given(st.lists(st.one_of(_cell_strings(), st.lists(st.sampled_from(_CELL_TOKENS), max_size=12).map("".join)),
                min_size=1, max_size=4))
@example([":0"]).via("a leading separator")
@example(["0:"]).via("a trailing separator")
@example(["0::1"]).via("touching separators")
@example(["0:1", ""]).via("an empty line")
@example(["0:1\n2:3"]).via("a line break inside one line's cells")
@example(["0:1\r2:3"]).via("a CR, which universal newlines would split on")
@example(["0:\u0663"]).via("a non-ASCII digit")
def test_block_check_accepts_exactly_what_the_line_regex_accepts(cells):
    values = matrix_module._block_values("\n".join(cells).encode(), len(cells))
    assert (values is not None) == all(matrix_module._CELLS_RE.fullmatch(c) for c in cells)
    if values is not None:  # the bulk parser reads every value from 2^63 up as 2^63 - 1
        expected = [min(int(v), 2**63 - 1) for c in cells for v in re.split("[:,]", c)]
        assert values.tolist() == expected
