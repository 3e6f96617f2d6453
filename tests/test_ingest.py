"""Ingestion pipeline: tokenization, binning, cleaning, the flat corpus."""
import json

import numpy as np
import pytest

from wordburst.errors import CorpusFormatError, EmptyCorpusError
from wordburst.ingest import (
    Post,
    ScanDay,
    ScanLog,
    bin_daily,
    clean_missing_scans,
    read_flat_corpus,
    tokenize,
)
from wordburst.matrix import WordDayMatrix, load_matrix, merge_matrices, save_matrix

from conftest import build_matrix


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
        posts = [Post("f", 0, "cat cat cat")]
        m = bin_daily(posts, horizon=3)
        assert m.series("cat") == {0: 1}

    def test_two_posts_same_day_count_twice(self):
        posts = [Post("f", 0, "cat here"), Post("g", 0, "a cat there")]
        m = bin_daily(posts, horizon=1)
        assert m.series("cat") == {0: 2}

    def test_empty_corpus(self):
        m = bin_daily([], horizon=5)
        assert m.vocabulary_size == 0

    def test_day_out_of_range(self):
        with pytest.raises(ValueError):
            bin_daily([Post("f", 7, "x")], horizon=7)

    def test_binning_conserves_distinct_word_mass(self):
        posts = [Post("f", 0, "a b a"), Post("f", 1, "b c"), Post("g", 1, "c c d")]
        m = bin_daily(posts, horizon=2)
        total = sum(m.total(w) for w in m.words)
        assert total == sum(len(set(tokenize(p.text))) for p in posts)


class TestCleaning:
    def test_all_scans_performed_is_identity(self, tiny_matrix):
        log = ScanLog.all_scanned(tiny_matrix.horizon)
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
        assert cleaned.series("w") == {d: 1 for d in range(7)}

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
        again, report2 = clean_missing_scans(once, ScanLog.all_scanned(once.horizon))
        assert again == once
        assert report2.removed_days == []

    def test_totals_recomputed(self):
        m = build_matrix({"w": {0: 1, 1: 5, 2: 1}}, horizon=3)
        log = ScanLog([ScanDay(0, True), ScanDay(1, False), ScanDay(2, True)])
        cleaned, _ = clean_missing_scans(m, log)
        assert cleaned.total("w") == 1  # days 1 (missed) and 2 (after) dropped

    def test_all_days_removed_is_empty_corpus_error(self):
        m = build_matrix({"w": {0: 1}}, horizon=2)
        log = ScanLog([ScanDay(0, False), ScanDay(1, False)])
        with pytest.raises(EmptyCorpusError):
            clean_missing_scans(m, log)

    def test_horizon_mismatch(self, tiny_matrix):
        with pytest.raises(ValueError):
            clean_missing_scans(tiny_matrix, ScanLog.all_scanned(3))


class TestScanLog:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            ScanLog([ScanDay(1, True)])

    def test_json_round_trip(self):
        log = ScanLog([ScanDay(0, True, 5), ScanDay(1, False, 0), ScanDay(2, True, 9)])
        again = ScanLog.from_json(json.dumps(log.to_dict()))
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
        posts, horizon = read_flat_corpus(path)
        assert [p.day_index for p in posts] == [0, 2]
        assert horizon == 3

    def test_tabs_inside_text_are_kept(self, tmp_path):
        path = self.write(tmp_path, "2005-02-11\tf\ttext\twith\ttabs\n")
        (post,), _ = read_flat_corpus(path)
        assert post.text == "text\twith\ttabs"

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            read_flat_corpus(self.write(tmp_path, ""))

    def test_bad_line_reports_position(self, tmp_path):
        path = self.write(tmp_path, "2005-02-11\tf\tok\nnot a line\n")
        with pytest.raises(CorpusFormatError) as err:
            read_flat_corpus(path)
        assert ":2:" in str(err.value)

    def test_blank_lines_are_skipped(self, tmp_path):
        lines = ["2005-02-11\tf\tthe cat", "2005-02-13\tg\tthe hat"]
        plain = bin_daily(*read_flat_corpus(self.write(tmp_path, "\n".join(lines) + "\n")))
        spaced = bin_daily(*read_flat_corpus(self.write(tmp_path, "\n" + "\n\n".join(lines) + "\n\n")))
        assert spaced == plain

    def test_bad_date_reports_position(self, tmp_path):
        path = self.write(tmp_path, "02/11/2005\tf\ttext\n")
        with pytest.raises(CorpusFormatError) as err:
            read_flat_corpus(path)
        assert ":1:" in str(err.value)


class TestMatrixConstruction:
    @pytest.mark.parametrize("horizon, counts, message", [
        (3, {"w": {}}, "word 'w': no day entries"),
        (3, {"w": {1: 0}}, "word 'w': count 0 < 1"),
        (0, {}, "horizon must be >= 1"),
    ])
    def test_from_mapping_rejects_broken_invariant(self, horizon, counts, message):
        with pytest.raises(ValueError) as err:
            WordDayMatrix.from_mapping(horizon, counts)
        assert str(err.value) == message

    def test_merge_rejects_nothing_other_horizon_and_overlap(self):
        a = build_matrix({"w": {0: 1}}, horizon=3)
        for matrices, message in [
            ([], "nothing to merge"),
            ([a, build_matrix({"v": {0: 1}}, horizon=4)], "horizon mismatch: 4 != 3"),
            ([a, build_matrix({"v": {1: 1}, "w": {2: 1}}, horizon=3)], "vocabulary overlap on merge: ['w']"),
        ]:
            with pytest.raises(ValueError) as err:
                merge_matrices(matrices)
            assert str(err.value) == message


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
        "content",
        [
            "no header\n",
            "#T=5\nw\t9:1\n",          # day outside horizon
            "#T=5\nw\t1:0\n",          # zero count
            "#T=5\nw\t2:1,1:1\n",      # days not ascending
            "#T=5\nw\t1:1\nw\t2:1\n",  # duplicate word
            "#T=x\n",
            "#T=0\n",                  # empty horizon
            "#T=5\nw\t1:1\nv\t2:1\n",  # words not sorted
            "#T=5\nw\t1:1:1\n",       # malformed cell
            "#T=5\nw\t1:99999999999999999999\n",  # count beyond 64 bits
        ],
    )
    def test_rejects_malformed(self, tmp_path, content):
        path = tmp_path / "bad.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_matrix(path)

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
        assert load_matrix(path).series("w") == {0: 2**63 - 1, 4: 1}

    @pytest.mark.parametrize("content", ["#T=5\n", "#T=5", "#T=5\n\n\n"])
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
