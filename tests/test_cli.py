"""End-to-end command-line pipelines and exit codes."""
import builtins
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import wordburst.cli as cli
from wordburst import rankstats
from wordburst.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from wordburst.ensembles import build_ensembles, select_dilute
from wordburst.errors import EmptySampleError, FitDidNotConverge
from wordburst.fileio import write_json
from wordburst.matrix import WordDayMatrix, load_matrix, save_matrix
from wordburst.waiting import aggregate_distribution, ensemble_distribution, fit_stretched_exponential, risk_function

from conftest import build_matrix, exhaust_least_squares, series


NESTING = 100_000  # nested JSON arrays, far past the decoder's recursion limit


def write_spec(tmp_path, **kw):
    spec = dict(process="poisson", horizon=400, n_words=800, seed=4, rate=0.05)
    spec.update(kw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_in_process(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so that numpy's warnings reach stderr as a user sees them."""
    import wordburst

    src = str(Path(wordburst.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "wordburst.cli", *map(str, argv)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        spec = write_spec(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["simulate", "--spec", str(spec), "--output", str(out1)]) == EXIT_OK
        assert main(["simulate", "--spec", str(spec), "--output", str(out2)]) == EXIT_OK
        assert (out1 / "matrix.tsv").read_bytes() == (out2 / "matrix.tsv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
        for name in manifest["outputs"]:
            assert (out1 / name).exists()

    def test_seed_changes_matrix(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--spec", str(write_spec(tmp_path, seed=4)), "--output", str(out1)])
        main(["simulate", "--spec", str(write_spec(tmp_path, seed=5)), "--output", str(out2)])
        assert (out1 / "matrix.tsv").read_bytes() != (out2 / "matrix.tsv").read_bytes()

    def test_invalid_spec_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"process": "poisson", "horizon": 400, "n_words": 10, "seed": 0}',
                        encoding="utf-8")
        code = main(["simulate", "--spec", str(path), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "rate" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, offending", [
        ({"rate": "abc"}, "rate"),                    # a string where a number belongs
        ({"rate": True}, "rate"),                     # a boolean is not a number
        ({"rate": float("nan")}, "rate"),
        ({"rate": 1e300}, "rate"),                    # beyond numpy's Poisson sampler
        ({"process": "heterogeneous-poisson", "rate_distribution": "log-uniform",
          "tau_min": "1", "tau_max": 5.0}, "tau_min"),
        ({"process": "heterogeneous-poisson", "rate_distribution": "log-uniform",
          "tau_min": 1.0, "tau_max": [5.0]}, "tau_max"),
        ({"process": "heterogeneous-poisson", "rate_distribution": "two-point",
          "tau_values": 5, "weights": [0.5, 0.5]}, "tau_values"),  # a number where a pair belongs
        ({"process": "heterogeneous-poisson", "rate_distribution": "two-point",
          "tau_values": [1.0, 10.0], "weights": ["a", "b"]}, "weights"),
        ({"process": "stretched-renewal", "a": "0.1", "nu": 0.5}, "a"),
        ({"process": "stretched-renewal", "a": 0.1, "nu": None}, "nu"),
        ({"process": "stretched-renewal", "a": 1e12, "nu": 0.5}, "a"),  # 10^13 events per word
        ({"seed": -1}, "seed"),
        ({"horizon": None}, "horizon"),
        ({"horizon": 10**30}, "horizon"),             # numpy cannot allocate the day vector
        ({"rate": 1e17}, "rate"),                     # a word total of 4e19 would not fit in int64
        ({"process": "heterogeneous-poisson", "rate_distribution": "log-uniform",
          "tau_min": 1e-17, "tau_max": 5.0}, "tau_min"),
        ({"process": "heterogeneous-poisson", "rate_distribution": "two-point",
          "tau_values": [1e-17, 10.0], "weights": [0.5, 0.5]}, "tau_values"),
        ({"horizon": 2, "n_words": 10**30, "seed": 1, "rate": 1e-9}, "n_words"),  # no 32-bit stream index
        ({"n_words": 2**32 + 1}, "n_words"),
        ({"process": "heterogeneous-poisson", "rate_distribution": "gamma"}, "rate_distribution"),
        ({"n_words": True}, "n_words"),               # a JSON boolean is not an integer
        ({"seed": True}, "seed"),
        ({"process": "stretched-renewal", "a": 1.0, "nu": 0.005}, "nu"),  # both gammas overflow
        ({"process": "stretched-renewal", "a": 1.0, "nu": 0.008}, "nu"),  # gamma(2/nu) overflows: no finite mean gap
        ({"process": "stretched-renewal", "a": 1e-309, "nu": 0.5}, "a"),  # a mean gap past the float range
    ])
    def test_bad_spec_value_gives_one_line(self, tmp_path, capsys, fields, offending):
        spec = write_spec(tmp_path, **fields)
        assert main(["simulate", "--spec", str(spec), "--output", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("wordburst: invalid generator spec") and err.count("\n") == 1
        assert repr(offending) in err
        assert not (tmp_path / "out").exists()  # refused before the output directory is touched

    def test_spec_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('[{"process": "poisson"}]', encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--output", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == "wordburst: spec must be a JSON object\n"

    def test_missing_spec_fields_are_listed(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"process": "poisson", "rate": 0.1}', encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--output", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == "wordburst: missing spec fields: ['horizon', 'n_words', 'seed']\n"

    def test_overflowing_gaps_print_no_warning(self, tmp_path):
        """With a tiny a the gaps overflow to inf, past the horizon: no word, and no warning."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"process": "stretched-renewal", "horizon": 214, "n_words": 2000, "seed": 1,
                                    "a": 3.4e-296, "nu": 0.1}), encoding="utf-8")
        proc = run_in_process("simulate", "--spec", spec, "--output", tmp_path / "out")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert (tmp_path / "out" / "matrix.tsv").read_bytes() == b"#T=214\n"

    def test_total_histogram_centered_on_rate_times_horizon(self, tmp_path):
        spec = write_spec(tmp_path, horizon=214, n_words=10_000, rate=0.2, seed=6)
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(spec), "--output", str(out)]) == EXIT_OK
        m = load_matrix(out / "matrix.tsv")
        totals = m.totals()
        assert totals.mean() == pytest.approx(42.8, rel=0.05)


class TestIngest:
    def corpus(self, tmp_path, lines, name="corpus.txt"):
        path = tmp_path / name
        path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        return path

    def test_basic_pipeline(self, tmp_path):
        corpus = self.corpus(tmp_path, [
            "2005-02-11\tf1\tthe cat sat",
            "2005-02-12\tf1\tthe hat",
            "2005-02-13\tf2\tanother cat day",
        ])
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        m = load_matrix(out / "matrix.tsv")
        assert m.horizon == 3
        assert series(m, "cat") == {0: 1, 2: 1}
        report = json.loads((out / "cleaning_report.json").read_text(encoding="utf-8"))
        assert report["removed_days"] == []
        assert report["retained_horizon"] == 3

    def test_scan_log_cleaning(self, tmp_path):
        corpus = self.corpus(tmp_path, [
            "2005-02-11\tf\tday zero words",
            "2005-02-12\tf\tday one words",
            "2005-02-13\tf\tday two pileup",
            "2005-02-14\tf\tday three words",
        ])
        log = tmp_path / "scans.json"
        log.write_text(json.dumps({"days": [
            {"day_index": 0, "scan_performed": True},
            {"day_index": 1, "scan_performed": False},
            {"day_index": 2, "scan_performed": True},
            {"day_index": 3, "scan_performed": True},
        ]}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["ingest", "--input", str(corpus), "--scan-log", str(log),
                     "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "cleaning_report.json").read_text(encoding="utf-8"))
        assert report["removed_days"] == [1, 2]
        assert report["reasons"]["1"] == "missed-scan"
        assert report["reasons"]["2"] == "day-after-missed-scan"
        assert load_matrix(out / "matrix.tsv").horizon == 2

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path, [])
        code = main(["ingest", "--input", str(corpus), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "empty corpus" in capsys.readouterr().err

    def test_malformed_scan_log_is_refused_before_the_corpus_is_read(self, tmp_path, capsys, monkeypatch):
        corpus = self.corpus(tmp_path, ["2005-02-11\tf\tthe cat", "2005-02-12\tf\tthe hat"])
        log = tmp_path / "scans.json"
        log.write_text(json.dumps({"days": [{"day_index": 0, "scan_performed": True},
                                            {"day_index": 1, "scan_performed": "false"}]}), encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "read_flat_corpus", calls.append)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(corpus), "--scan-log", str(log), "--output", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("wordburst: ") and err.count("\n") == 1
        assert calls == []
        assert not out.exists()

    def test_bad_line_diagnoses_position(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path, ["2005-02-11\tf\tok", "broken line"])
        code = main(["ingest", "--input", str(corpus), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert ":2:" in capsys.readouterr().err

    def test_no_scan_log_on_the_widest_dates_is_quick(self, tmp_path):
        # 3,652,059 days: with no log, no per-day record is built and no day is renumbered
        corpus = self.corpus(tmp_path, ["0001-01-01\tf\tfirst post", "9999-12-31\tg\tlast post"])
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["ingest", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        assert time.perf_counter() - start < 2
        assert (out / "matrix.tsv").read_bytes() == b"#T=3652059\nfirst\t0:1\nlast\t3652058:1\npost\t0:1,3652058:1\n"
        assert (out / "cleaning_report.json").read_bytes() == (
            b'{\n  "reasons": {},\n  "removed_days": [],\n  "retained_horizon": 3652059\n}\n')

    @pytest.mark.parametrize("case", ["bad-line", "bad-date", "empty-corpus", "scan-log-one-day-short",
                                      "scan-log-removes-every-day"])
    def test_bad_corpus_is_refused_before_the_directory_is_touched(self, tmp_path, capsys, case):
        good = self.corpus(tmp_path, ["2005-02-11\tf\tthe cat", "2005-02-13\tf\tthe hat"])
        log = tmp_path / "scans.json"
        log.write_text(json.dumps({"days": [{"day_index": d, "scan_performed": True} for d in range(3)]}),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(good), "--scan-log", str(log), "--output", str(out)]) == EXIT_OK
        before = file_bytes(out)
        lines = {"bad-line": ["2005-02-11\tf\tok", "broken line"],
                 "bad-date": ["2005-02-11\tf\tok", "2005-02-30\tf\tx"],
                 "empty-corpus": [],
                 "scan-log-one-day-short": ["2005-02-11\tf\tthe cat", "2005-02-14\tf\tthe hat"],
                 "scan-log-removes-every-day": ["2005-02-11\tf\tthe cat", "2005-02-13\tf\tthe hat"]}[case]
        bad = self.corpus(tmp_path, lines, "bad.txt")
        if case == "scan-log-removes-every-day":
            log.write_text(json.dumps({"days": [{"day_index": d, "scan_performed": False} for d in range(3)]}),
                           encoding="utf-8")
        assert main(["ingest", "--input", str(bad), "--scan-log", str(log), "--output", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("wordburst: ") and err.count("\n") == 1
        if case == "scan-log-one-day-short":
            assert err == "wordburst: scan log horizon 3 != corpus horizon 4\n"
        assert file_bytes(out) == before

    @pytest.mark.parametrize("text, end", [("the\rcat", "\n"), ("the cat", "\r\n")])
    def test_only_lf_ends_a_line(self, tmp_path, text, end):
        """A CR inside a post is text; a CRLF corpus, blank lines too, ingests like its LF copy."""
        plain = self.corpus(tmp_path, ["2005-02-11\tf\tthe cat", "2005-02-12\tf\thello world"])
        other = tmp_path / "other.txt"
        other.write_bytes(f"2005-02-11\tf\t{text}{end}{end}2005-02-12\tf\thello world{end}".encode())
        assert main(["ingest", "--input", str(plain), "--output", str(tmp_path / "plain")]) == EXIT_OK
        assert main(["ingest", "--input", str(other), "--output", str(tmp_path / "other")]) == EXIT_OK
        for name in ("matrix.tsv", "cleaning_report.json"):
            assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_a_pipe_ingests_like_the_file(self, tmp_path):
        corpus = self.corpus(tmp_path, ["2005-02-11\tf\tthe cat", "2005-02-13\tg\tthe hat"])
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:  # the reader may have gone
                fh.write(corpus.read_bytes())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert main(["ingest", "--input", str(fifo), "--output", str(tmp_path / "pipe")]) == EXIT_OK
        finally:  # a writer still blocked in open() waits for a reader: give it one
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert main(["ingest", "--input", str(corpus), "--output", str(tmp_path / "file")]) == EXIT_OK
        for name in ("matrix.tsv", "cleaning_report.json"):
            assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestAnalyzeRank:
    def test_single_word_degenerate(self, tmp_path):
        save_matrix(build_matrix({"only": {0: 5}}, horizon=3), tmp_path / "m.tsv")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "rank",
                     "--output", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "rank.csv")
        assert len(rows) == 1
        fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        assert fit["degenerate"] is True

    def test_fit_json_has_baselines(self, tmp_path):
        rng = np.random.default_rng(3)
        counts = {f"w{i:05d}": {0: int(c)} for i, c in enumerate(
            np.maximum(np.round(1e5 / (1 + 0.3 * np.arange(1, 2001) ** 0.8)), 1))}
        save_matrix(build_matrix(counts, horizon=1), tmp_path / "m.tsv")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "rank",
                     "--output", str(out)]) == EXIT_OK
        fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        assert {"A", "a1", "a2", "gamma1", "gamma2", "residual", "baselines"} <= set(fit)
        assert {"zipf", "zipf_mandelbrot"} <= set(fit["baselines"])

    def test_fit_out_of_budget_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rankstats, "SIMPLEX_BUDGET", 3)
        x = np.arange(1, 5001)
        counts = np.maximum(np.round(1e5 / (1 + 0.5 * x**0.8 + 1e-3 * x**1.6)), 1)
        save_matrix(build_matrix({f"w{i:04d}": {0: int(c)} for i, c in enumerate(counts)}, horizon=1),
                    tmp_path / "m.tsv")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "rank",
                     "--output", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "wordburst: numeric failure: simplex exhausted its budget on every start\n"
        assert not (out / "manifest.json").exists()


    def test_steep_curve_prints_no_warning(self, tmp_path):
        """Simplex vertices of a steep curve overflow the denominator: their non-finite cost
        makes them bad vertices, silently, and the fit keeps its bytes."""
        counts = {f"w{x:05d}": {0: int(1e15 // x**4.557)} for x in range(1, 1784)}
        save_matrix(build_matrix(counts, horizon=1), tmp_path / "m.tsv")
        proc = run_in_process("analyze", "--input", tmp_path / "m.tsv", "--mode", "rank", "--output", tmp_path / "out")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert sha256(tmp_path / "out" / "rank.csv") == "bd43e2efb5b13ce9d9885abfd504de85def6e0f61c1ea7814a7c3d992ffadbb6"
        assert sha256(tmp_path / "out" / "fit.json") == "68706308550858d834be945d27a2cfa4c334c4a77f43ea6d6cb6c720678f861e"


class TestAnalyzeDilute:
    def test_memoryless_corpus_dispersion_near_two(self, tmp_path):
        spec = write_spec(tmp_path, horizon=400, n_words=1500, rate=0.05, seed=8)
        sim = tmp_path / "sim"
        main(["simulate", "--spec", str(spec), "--output", str(sim)])
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(sim / "matrix.tsv"), "--mode", "dilute",
                     "--seed", "1", "--output", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "zeta.csv")
        solid = [float(r["zeta"]) for r in rows if int(r["n_k"]) >= 40]
        assert solid
        assert 1.6 < np.mean(solid) < 2.2
        for name in ("waiting.csv", "rescaled.csv", "meancheck.csv",
                     "spectrum.csv", "aggregate.csv", "fits.json", "manifest.json"):
            assert (out / name).exists()

    def test_k_window_restricts_rows(self, tmp_path):
        spec = write_spec(tmp_path, horizon=400, n_words=800, rate=0.05, seed=9)
        sim = tmp_path / "sim"
        main(["simulate", "--spec", str(spec), "--output", str(sim)])
        out = tmp_path / "out"
        main(["analyze", "--input", str(sim / "matrix.tsv"), "--mode", "dilute",
              "--k-min", "15", "--k-max", "25", "--output", str(out)])
        ks = {int(r["k"]) for r in read_csv(out / "zeta.csv")}
        assert ks and all(15 <= k <= 25 for k in ks)

    def test_unconverged_fits_are_recorded_as_skipped(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, horizon=400, n_words=800, rate=0.05, seed=9)
        main(["simulate", "--spec", str(spec), "--output", str(tmp_path / "sim")])
        argv = ["analyze", "--input", str(tmp_path / "sim" / "matrix.tsv"), "--mode", "dilute", "--output"]
        assert main(argv + [str(tmp_path / "ok")]) == EXIT_OK
        exhaust_least_squares(monkeypatch)
        assert main(argv + [str(tmp_path / "out")]) == EXIT_OK
        fits = json.loads((tmp_path / "ok" / "fits.json").read_text(encoding="utf-8"))
        fitted = [k for k, record in fits.items() if "skipped" not in record]
        assert "aggregate" in fitted and len(fitted) > 1
        skipped = {"skipped": "no optimizer start converged within its budget"}
        fits.update((k, skipped) for k in fitted)
        assert json.loads((tmp_path / "out" / "fits.json").read_text(encoding="utf-8")) == fits

    def test_long_horizon_tables_follow_the_gaps(self, tmp_path, monkeypatch):
        """At #T=1000000 a class's horizon-long float64 array alone is 8 MB. Ten words on
        consecutive days (classes k = 2..11, every gap 1 day) stay far below one per class:
        each table ends at its class's longest gap."""
        path = tmp_path / "m.tsv"
        path.write_text("#T=1000000\n" + "".join(f"w{k:02d}\t" + ",".join(f"{d}:1" for d in range(k)) + "\n"
                                                for k in range(2, 12)), encoding="utf-8")
        real, peaks = cli._dilute_tables, []

        def traced(*args):
            tracemalloc.start()
            try:
                return real(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_dilute_tables", traced)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # no fit worker
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--mode", "dilute", "--output", str(out)]) == EXIT_OK
        assert [int(r["k"]) for r in read_csv(out / "meancheck.csv")] == list(range(2, 12))
        assert read_csv(out / "aggregate.csv") == [{"tau": "1", "f": "1", "R": "1"}]
        assert peaks[0] < 40 * 2**20

    @staticmethod
    def reference_fits(path) -> dict:
        """``fits.json`` of ``analyze --mode dilute`` with every fit run in-process, one after another."""
        matrix = load_matrix(path)
        index = build_ensembles(matrix)

        def record(risk):
            try:
                return dataclasses.asdict(fit_stretched_exponential(risk))
            except (EmptySampleError, FitDidNotConverge) as exc:
                return {"skipped": str(exc)}

        fits = {}
        for ens in select_dilute(index):
            with contextlib.suppress(EmptySampleError):  # a class without gaps has no record
                fits[str(ens.k)] = record(risk_function(ensemble_distribution(ens, matrix)))
        with contextlib.suppress(EmptySampleError):
            fits["aggregate"] = record(risk_function(aggregate_distribution(index, matrix)))
        return fits

    @pytest.mark.parametrize("corpus", ["skipped-class", "no-gaps"])
    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys, monkeypatch, corpus):
        if corpus == "skipped-class":
            spec = write_spec(tmp_path, process="heterogeneous-poisson", horizon=60, n_words=120, rate=None,
                              rate_distribution="log-uniform", tau_min=0.05, tau_max=300.0)
            assert main(["simulate", "--spec", str(spec), "--output", str(tmp_path / "sim")]) == EXIT_OK
            path = tmp_path / "sim" / "matrix.tsv"
        else:
            path = tmp_path / "m.tsv"
            save_matrix(build_matrix({"a": {0: 1}, "b": {2: 1}}, horizon=5), path)
        reference = self.reference_fits(path)
        fitted = [key for key, record in reference.items() if "nu" in record]
        if corpus == "skipped-class":
            assert "aggregate" in fitted and 1 < len(fitted) < len(reference)  # fitted and skipped classes
        else:
            assert reference == {}
        write_json(tmp_path / "reference.json", reference)
        real_table, real_fit, parent = cli.write_table, cli.fit_stretched_exponential, os.getpid()
        outputs = {}
        for cpus, workers in ((1, 0), (3, 2), (6, 3)):
            seen, parent_fits = [], []

            def write_table(path, *args, **kwargs):  # waiting.csv is written while the pool is open
                if path.name == "waiting.csv":
                    seen.append(len(multiprocessing.active_children()))
                return real_table(path, *args, **kwargs)

            def fit_stretched_exponential(risk):  # the forked workers inherit it, but append to their own copy
                parent_fits.append(os.getpid() == parent)
                return real_fit(risk)

            with monkeypatch.context() as m:
                m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                m.setattr(cli, "write_table", write_table)
                m.setattr(cli, "fit_stretched_exponential", fit_stretched_exponential)
                out = tmp_path / f"out-{cpus}"
                assert main(["analyze", "--input", str(path), "--mode", "dilute", "--output", str(out)]) == EXIT_OK
            assert seen == [workers]
            assert multiprocessing.active_children() == []
            assert all(parent_fits)
            if workers == 0:  # the parent fits every record itself
                assert len(parent_fits) == len(reference)
            else:  # the parent fits the aggregate at least; the workers fit what it does not
                assert ("aggregate" in reference) <= len(parent_fits) <= len(reference)
            warned = "wordburst: warning: no waiting times in any sparse class\n"
            assert capsys.readouterr().err == (warned if corpus == "no-gaps" else "")
            assert (out / "fits.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
            outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outputs[1] == outputs[3] == outputs[6]

    def test_workers_are_forked_from_one_thread(self, tmp_path, monkeypatch, command_argv):
        """Python 3.12 and later warn (an error under this suite's filters) when a process that
        runs other threads forks; they count the threads in the parent right after the fork."""
        if not Path("/proc/self/status").exists():
            pytest.skip("counts threads through /proc")
        real_fork, threads = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                status = Path("/proc/self/status").read_text(encoding="ascii")
                threads.append(int(re.search(r"^Threads:\s+(\d+)", status, re.M).group(1)))
            return pid

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert main(command_argv[1]["dilute"] + ["--output", str(tmp_path / "out")]) == EXIT_OK
        assert threads == [1, 1]

    def test_no_cpu_affinity_forks_no_worker(self, tmp_path, monkeypatch, command_argv):
        """macOS's os module has no sched_getaffinity; the command then fits every class itself."""
        argv = command_argv[1]["dilute"]
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert main(argv + ["--output", str(tmp_path / "one-cpu")]) == EXIT_OK
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert main(argv + ["--output", str(tmp_path / "no-affinity")]) == EXIT_OK
        one_cpu, no_affinity = ({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
                                for name in ("one-cpu", "no-affinity"))
        assert one_cpu == no_affinity


class TestAnalyzeDense:
    def make_dense_matrix(self, tmp_path, seed=11):
        rng = np.random.default_rng(seed)
        words = {}
        for i in range(80):
            k = int(rng.integers(1000, 2001))
            counts = rng.multinomial(k, np.full(214, 1 / 214))
            words[f"w{i:04d}"] = {int(d): int(c) for d, c in enumerate(counts) if c}
        m = build_matrix(words, horizon=214)
        path = tmp_path / "dense.tsv"
        save_matrix(m, path)
        return path

    def test_outputs_and_determinism(self, tmp_path):
        path = self.make_dense_matrix(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            code = main(["analyze", "--input", str(path), "--mode", "dense",
                         "--seed", "3", "--output", str(out)])
            assert code == EXIT_OK
        assert (out1 / "xtilde.csv").read_bytes() == (out2 / "xtilde.csv").read_bytes()
        sidecar = json.loads((out1 / "dense.json").read_text(encoding="utf-8"))
        assert sidecar["seed"] == 3
        assert sidecar["word_count"] == 80

    def test_partitions_input_once_and_builds_no_null_matrix(self, tmp_path, monkeypatch):
        path = self.make_dense_matrix(tmp_path)
        calls = []
        totals = WordDayMatrix.totals

        def counted(matrix):
            calls.append(matrix.words[0])
            return totals(matrix)

        monkeypatch.setattr(WordDayMatrix, "totals", counted)
        assert main(["analyze", "--input", str(path), "--mode", "dense", "--output", str(tmp_path / "o")]) == EXIT_OK
        assert calls == ["w0000"]

    def test_empty_range_warns_and_succeeds(self, tmp_path, capsys):
        save_matrix(build_matrix({"w": {0: 3}}, horizon=5), tmp_path / "m.tsv")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "dense",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert "no words" in capsys.readouterr().err
        rows = read_csv(out / "xtilde.csv")
        assert all(float(r["density_empirical"]) == 0 for r in rows)

    def test_warning_counts_zero_spread_words(self, tmp_path, capsys):
        # the only word in [1000, 2000] has the same count every day
        save_matrix(build_matrix({"a": {d: 150 for d in range(10)}}, horizon=10), tmp_path / "m.tsv")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "dense", "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ("wordburst: warning: no words with totals in [1000, 2000] and nonzero"
                                           " daily spread; zero-spread words skipped: 1\n")
        assert json.loads((out / "dense.json").read_text(encoding="utf-8"))["skipped_words"] == 1

    def test_emit_plots(self, tmp_path):
        path = self.make_dense_matrix(tmp_path, seed=12)
        out = tmp_path / "out"
        main(["analyze", "--input", str(path), "--mode", "dense", "--seed", "1",
              "--emit-plots", "--output", str(out)])
        plot = (out / "plot_xtilde.csv").read_text(encoding="utf-8")
        assert plot.startswith("# xtilde empirical null\n")


# scan-log cases: (day entry, field, a JSON value of the wrong type that int() or bool() would coerce,
# or out of range)
SCAN_LOG_FIELDS = {
    "scan-log-performed-string": (1, "scan_performed", "false"),
    "scan-log-performed-no": (1, "scan_performed", "no"),
    "scan-log-performed-null": (1, "scan_performed", None),
    "scan-log-performed-list": (1, "scan_performed", []),
    "scan-log-performed-zero": (1, "scan_performed", 0),
    "scan-log-day-float": (0, "day_index", 0.9),
    "scan-log-day-bool": (1, "day_index", True),
    "scan-log-day-string": (0, "day_index", "0"),
    "scan-log-count-float": (1, "new_post_count", 2.5),
    "scan-log-count-bool": (1, "new_post_count", True),
    "scan-log-count-negative": (1, "new_post_count", -1),
}
# dense-mode k flags that leave an empty k-range: (flags, the error line, which names each bound's source)
K_RANGES = {
    "k-range-inverted": (["--k-min", "5", "--k-max", "2"], "--k-min 5 exceeds --k-max 2"),
    "k-max-below-dense-default": (["--k-max", "999"], "--k-max 999 is below dense mode's default --k-min 1000"),
    "k-min-above-dense-default": (["--k-min", "2500"], "--k-min 2500 exceeds dense mode's default --k-max 2000"),
}


class TestExitCodes:
    @pytest.mark.parametrize("mode", ["rank", "dilute", "dense"])
    def test_word_total_past_2_63_is_data_error(self, tmp_path, capsys, mode):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("#T=5\nv\t1:2\nw\t0:9223372036854775807,4:1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(matrix), "--mode", mode, "--output", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "wordburst: word 'w': total count exceeds 2^63 - 1\n"
        assert not (out / "manifest.json").exists()

    @staticmethod
    def seeded_matrix(tmp_path):
        """A sparse class of two words (the zeta bootstrap draws from the seed)
        and a word of total 1045 (the dense null draws from it)."""
        path = tmp_path / "m.tsv"
        save_matrix(build_matrix({"a": {0: 1, 3: 1}, "b": {1: 1, 5: 1}, "c": {d: 100 + d for d in range(10)}},
                                 horizon=10), path)
        return path

    @pytest.mark.parametrize("mode", ["rank", "dilute", "dense"])
    def test_negative_seed_is_usage_error_writing_nothing(self, tmp_path, capsys, mode):
        out = tmp_path / "out"
        argv = ["analyze", "--input", str(self.seeded_matrix(tmp_path)), "--mode", mode, "--seed", "-3"]
        assert main(argv + ["--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: must be an integer >= 0, got -3\n")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["dilute", "dense"])
    def test_seed_past_2_64_runs(self, tmp_path, mode):
        out = tmp_path / "out"
        argv = ["analyze", "--input", str(self.seeded_matrix(tmp_path)), "--mode", mode, "--seed", str(2**200)]
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]["seed"] == 2**200

    def test_usage_error_is_one(self, capsys):
        assert main(["analyze", "--mode", "nonsense"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "nope.tsv"), "--mode", "rank",
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("case, expected", [
        ("scan-log-not-contiguous", EXIT_DATA),
        ("scan-log-other-horizon", EXIT_DATA),
        ("scan-log-empty-path", EXIT_DATA),
        ("input-is-directory", EXIT_DATA),
        ("matrix-horizon-zero", EXIT_DATA),
        ("matrix-horizon-10^14", EXIT_DATA),  # past the largest horizon; dilute mode would allocate 728 TiB
        ("matrix-not-utf8", EXIT_DATA),
        ("matrix-negative-cell", EXIT_DATA),
        ("matrix-cell-2^63", EXIT_DATA),
        *((case, EXIT_USAGE) for case in K_RANGES),
        ("spec-seed-5000-digits", EXIT_DATA),  # past int()'s digit limit
        ("spec-nested-arrays", EXIT_DATA),  # past the JSON decoder's recursion limit
        ("scan-log-nested-arrays", EXIT_DATA),
        *((case, EXIT_DATA) for case in SCAN_LOG_FIELDS),
    ])
    def test_bad_input_gives_one_line_and_exit_code(self, tmp_path, capsys, case, expected):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("2005-02-11\tf\tthe cat\n2005-02-12\tf\tthe hat\n", encoding="utf-8")
        log = tmp_path / "scans.json"
        matrix = tmp_path / "m.tsv"
        save_matrix(build_matrix({"w": {0: 1, 2: 1}}, horizon=3), matrix)
        argv = ["analyze", "--input", str(matrix), "--mode", "dilute"]
        if case.startswith("scan-log"):
            days = {"scan-log-not-contiguous": [0, 2], "scan-log-other-horizon": [0, 1, 2]}.get(case, [0, 1])
            entries = [{"day_index": d, "scan_performed": True} for d in days]
            if case in SCAN_LOG_FIELDS:
                day, field, value = SCAN_LOG_FIELDS[case]
                entries[day][field] = value
            log.write_text("[" * NESTING if case == "scan-log-nested-arrays" else json.dumps({"days": entries}),
                           encoding="utf-8")
            argv = ["ingest", "--input", str(corpus), "--scan-log", "" if case == "scan-log-empty-path" else str(log)]
        elif case in K_RANGES:
            argv = ["analyze", "--input", str(matrix), "--mode", "dense", *K_RANGES[case][0]]
        elif case == "input-is-directory":
            argv[2] = str(tmp_path)
        elif case == "spec-seed-5000-digits":
            spec = write_spec(tmp_path, seed=0)
            spec.write_text(spec.read_text(encoding="utf-8").replace('"seed": 0', '"seed": ' + "7" * 5000),
                            encoding="utf-8")
            argv = ["simulate", "--spec", str(spec)]
        elif case == "spec-nested-arrays":
            spec = tmp_path / "spec.json"
            spec.write_text("[" * NESTING, encoding="utf-8")
            argv = ["simulate", "--spec", str(spec)]
        elif case == "matrix-horizon-zero":
            matrix.write_text("#T=0\n", encoding="utf-8")
        elif case == "matrix-horizon-10^14":
            matrix.write_text("#T=100000000000000\nw\t0:1,2:1\n", encoding="utf-8")
        elif case == "matrix-negative-cell":
            matrix.write_text("#T=3\nw\t0:1,2:-1\n", encoding="utf-8")
        elif case == "matrix-cell-2^63":
            matrix.write_text("#T=3\nw\t0:9223372036854775808\n", encoding="utf-8")
        else:
            matrix.write_bytes(b"#T=3\n\xff\xfe\t0:1\n")
        assert main(argv + ["--output", str(tmp_path / "out")]) == expected
        err = capsys.readouterr().err
        assert err.startswith("wordburst: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
        if case in K_RANGES:
            assert err == f"wordburst: error: {K_RANGES[case][1]}\n"
        if case in SCAN_LOG_FIELDS:
            day, field, _ = SCAN_LOG_FIELDS[case]
            assert f"day {day}: {field}" in err
        if case in ("spec-seed-5000-digits", "spec-nested-arrays"):
            assert err.startswith("wordburst: spec is not valid JSON: ")
        if case == "scan-log-nested-arrays":
            assert err.startswith("wordburst: bad scan log: ")
        if case in ("scan-log-empty-path", "spec-nested-arrays", "scan-log-nested-arrays"):
            assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    def test_reused_directory_keeps_no_stale_outputs(self, tmp_path):
        spec = write_spec(tmp_path, process="heterogeneous-poisson", horizon=60, n_words=400, rate=None,
                          rate_distribution="log-uniform", tau_min=0.05, tau_max=300.0)
        assert main(["simulate", "--spec", str(spec), "--output", str(tmp_path / "sim")]) == EXIT_OK
        path = tmp_path / "sim" / "matrix.tsv"
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--mode", "dense", "--k-min", "100", "--k-max", "1500",
                     "--emit-plots", "--output", str(out)]) == EXIT_OK
        assert (out / "sigma_scaling.csv").exists() and (out / "plot_xtilde.csv").exists()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--mode", "rank", "--output", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json", "notes.txt"])
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"

    def test_inputs_listed_by_the_previous_manifest_survive(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--spec", str(write_spec(tmp_path)), "--output", str(sim)]) == EXIT_OK
        assert main(["analyze", "--input", str(sim / "matrix.tsv"), "--mode", "rank",
                     "--output", str(sim)]) == EXIT_OK
        assert (sim / "matrix.tsv").exists() and (sim / "rank.csv").exists()
        assert not (sim / "spec.json").exists()

    def test_nested_manifest_counts_as_no_manifest(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("[" * NESTING, encoding="utf-8")
        assert main(["simulate", "--spec", str(write_spec(tmp_path)), "--output", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == listed_files(out)
        assert listed_files(out) == ["manifest.json", "matrix.tsv", "spec.json"]

    def test_manifest_cannot_delete_outside_the_directory(self, tmp_path):
        outside = tmp_path / "precious.txt"
        outside.write_text("precious", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"outputs": ["../precious.txt", str(outside)]}),
                                           encoding="utf-8")
        save_matrix(build_matrix({"w": {0: 1}}, horizon=2), tmp_path / "m.tsv")
        assert main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "rank",
                     "--output", str(out)]) == EXIT_OK
        assert outside.read_text(encoding="utf-8") == "precious"


@pytest.fixture(scope="module")
def command_argv(tmp_path_factory):
    """Each command's arguments, minus ``--output``, on small inputs that
    take every write branch: the analyses write σ-scaling, the aggregate
    and plot files."""
    root = tmp_path_factory.mktemp("inputs")
    spec = write_spec(root, process="heterogeneous-poisson", horizon=60, n_words=120, rate=None,
                      rate_distribution="log-uniform", tau_min=0.05, tau_max=300.0)
    assert main(["simulate", "--spec", str(spec), "--output", str(root / "sim")]) == EXIT_OK
    corpus = root / "corpus.txt"
    corpus.write_text("2005-02-11\tf\tthe cat\n2005-02-12\tf\tthe hat\n2005-02-13\tf\ta cat\n",
                      encoding="utf-8")
    log = root / "scans.json"
    log.write_text(json.dumps({"days": [{"day_index": d, "scan_performed": d != 1} for d in range(3)]}),
                   encoding="utf-8")
    analyze = ["analyze", "--input", str(root / "sim" / "matrix.tsv"), "--emit-plots", "--mode"]
    return root, {
        "simulate": ["simulate", "--spec", str(spec)],
        "ingest": ["ingest", "--input", str(corpus), "--scan-log", str(log)],
        "rank": analyze + ["rank"],
        "dilute": analyze + ["dilute", "--k-max", "3"],  # two classes keep the stretched fits quick
        "dense": analyze + ["dense", "--k-min", "100", "--k-max", "1500"],
    }


def file_bytes(root: Path) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def listed_files(out: Path) -> list[str]:
    """The manifest's outputs plus the manifest itself."""
    return sorted(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"] + ["manifest.json"])


class TestFailedRun:
    """A command that fails after its first write removes every file it wrote."""

    @staticmethod
    def patch_writers(monkeypatch, calls: list, fail_at=None, error=OSError):
        """Record each writer call in ``calls`` as ``(name, position)``; the
        call equal to ``fail_at`` raises ``error`` instead of writing."""
        writers = [name for name, value in vars(cli).items()
                   if callable(value) and (re.match(r"_?write_", name) or name == "save_matrix")]
        assert {"save_matrix", "write_json", "_write_manifest", "write_table"} <= set(writers)
        for name in writers:
            def writer(*args, _name=name, _real=getattr(cli, name), **kwargs):
                call = (_name, sum(1 for c in calls if c[0] == _name))
                calls.append(call)
                if call == fail_at:
                    raise error(f"injected at {_name} call {call[1]}")
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, writer)

    @pytest.mark.parametrize("command", ["simulate", "ingest", "rank", "dilute", "dense"])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, command_argv, command):
        root, argvs = command_argv
        argv = argvs[command]
        inputs = file_bytes(root)
        calls = []
        with monkeypatch.context() as m:
            self.patch_writers(m, calls)
            assert main(argv + ["--output", str(tmp_path / "probe")]) == EXIT_OK
        assert len(calls) >= 4
        for fail_at in calls:
            out = tmp_path / f"{fail_at[0]}-{fail_at[1]}"
            out.mkdir()
            (out / "notes.txt").write_text("kept", encoding="utf-8")
            capsys.readouterr()
            with monkeypatch.context() as m:
                self.patch_writers(m, [], fail_at)
                assert main(argv + ["--output", str(out)]) == EXIT_DATA, fail_at
            assert capsys.readouterr().err == f"wordburst: injected at {fail_at[0]} call {fail_at[1]}\n"
            assert sorted(p.name for p in out.iterdir()) == ["notes.txt"], fail_at
            assert multiprocessing.active_children() == [], fail_at
            assert main(argv + ["--output", str(out)]) == EXIT_OK
            assert sorted(p.name for p in out.iterdir()) == sorted(listed_files(out) + ["notes.txt"]), fail_at
            assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
        assert file_bytes(root) == inputs

    def test_interrupt_cleans_up_and_propagates(self, tmp_path, monkeypatch, command_argv):
        _, argvs = command_argv
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        self.patch_writers(monkeypatch, [], ("write_table", 2), KeyboardInterrupt)  # zeta.csv, the pool open
        with pytest.raises(KeyboardInterrupt):
            main(argvs["dilute"] + ["--output", str(out)])
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert multiprocessing.active_children() == []

    def test_dead_fit_worker_is_numeric_failure(self, tmp_path, capsys, monkeypatch, command_argv):
        _, argvs = command_argv
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        real_fit, parent = cli.fit_stretched_exponential, os.getpid()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # the forked worker inherits the patch and dies on its first fit; the parent fits as usual
        monkeypatch.setattr(cli, "fit_stretched_exponential",
                            lambda risk: real_fit(risk) if os.getpid() == parent else os._exit(1))
        assert main(argvs["dilute"] + ["--output", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("wordburst: numeric failure: a fit worker process died: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert multiprocessing.active_children() == []

    def test_ctrl_c_interrupts_the_parent_only(self, tmp_path, command_argv):
        """A terminal's Ctrl-C sends SIGINT to the whole process group: the fit workers
        must not print tracebacks of their own, nor outlive the parent."""
        _, argvs = command_argv
        code = ("import os, signal, sys\nimport wordburst.cli as cli\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                "def load_matrix(path):\n"  # the workers exist and are importing scipy
                "    os.killpg(0, signal.SIGINT)\n    signal.pause()\n"
                "cli.load_matrix = load_matrix\nsys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", code, *argvs["dilute"], "--output", str(tmp_path / "out")],
                                stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src},
                                start_new_session=True)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode != 0
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt"), err
        assert not (tmp_path / "out" / "waiting.csv").exists()
        with pytest.raises(ProcessLookupError):  # the child's own process group is empty
            os.killpg(proc.pid, 0)

    @pytest.mark.parametrize("name", ["SIGKILL", "SIGTERM"])
    def test_no_fit_worker_outlives_its_command(self, tmp_path, command_argv, name):
        """A command killed by a signal sent to its PID alone, as by the OOM killer or a job scheduler,
        runs no signal handler; each of its three workers, importing scipy or not, exits within seconds.
        Nothing reaps an orphan where PID 1 does not, so a worker in state Z has exited."""
        if not Path("/proc/self/stat").exists():
            pytest.skip("reads process states through /proc")
        _, argvs, signum = *command_argv, getattr(signal, name)
        code = ("import multiprocessing, os, signal, sys\nimport wordburst.cli as cli\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
                "def load_matrix(path):\n"  # the workers exist; each may still be importing scipy
                "    print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
                f"    os.kill(os.getpid(), {int(signum)})\n    signal.pause()\n"
                "cli.load_matrix = load_matrix\nsys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])

        def running(pid) -> bool:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")  # exited, or being reaped

        with open(tmp_path / "stderr.txt", "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-c", code, *argvs["dilute"], "--output", str(tmp_path / "out")],
                                    stdout=subprocess.PIPE, stderr=err, text=True,
                                    env={**os.environ, "PYTHONPATH": src})
        with proc, contextlib.ExitStack() as stack:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            for pid in workers:  # whatever the outcome, no worker outlives the test
                stack.callback(lambda pid=pid: running(pid) and os.kill(pid, signal.SIGKILL))
            assert proc.wait(timeout=60) == -signum
            assert len(workers) == 3, (tmp_path / "stderr.txt").read_text(encoding="utf-8")
            deadline = time.monotonic() + 5
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if running(pid)] == []

    def test_failed_load_stops_idle_fit_workers(self, tmp_path, capsys, monkeypatch):
        """A worker still importing scipy is terminated, not waited for, when the command fails."""
        def slow_import(*args):  # the pool's initializer, which the forked worker runs first
            time.sleep(30)
            return builtins.__import__(*args)

        matrix = tmp_path / "m.tsv"
        matrix.write_text("#T=3\nw\t0:x\n", encoding="utf-8")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "__import__", slow_import, raising=False)
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
        start = time.monotonic()
        argv = ["analyze", "--input", str(matrix), "--mode", "dilute", "--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_DATA
        assert time.monotonic() - start < 10
        assert len(forks) == 1  # the worker existed while the load failed
        assert multiprocessing.active_children() == []
        err = capsys.readouterr().err
        assert err.startswith("wordburst: ") and err.count("\n") == 1, err

    def test_missing_input_forks_no_worker(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        missing = tmp_path / "nope.tsv"
        assert main(["analyze", "--input", str(missing), "--mode", "dilute", "--output", str(tmp_path / "out")]) \
            == EXIT_DATA
        assert capsys.readouterr().err == f"wordburst: [Errno 2] No such file or directory: '{missing}'\n"


class TestManifestMatchesFiles:
    """On every branch of every mode, ``manifest.json`` lists exactly the new files."""

    @pytest.mark.parametrize("mode, plots", [(m, p) for m in ("rank", "dilute", "dense") for p in (False, True)])
    def test_each_mode_with_and_without_plots(self, tmp_path, command_argv, mode, plots):
        argv = [a for a in command_argv[1][mode] if plots or a != "--emit-plots"]
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == listed_files(out)
        assert any(n.startswith("plot_") for n in names) == plots
        assert {"dilute": "aggregate.csv", "dense": "sigma_scaling.csv"}.get(mode, "rank.csv") in names

    @pytest.mark.parametrize("case, absent", [
        ("dense-sigma-skipped", "sigma_scaling.csv"),
        ("dense-empty-range", "sigma_scaling.csv"),
        ("dilute-no-gaps", "aggregate.csv"),
    ])
    def test_skipped_branches(self, tmp_path, case, absent):
        if case == "dense-sigma-skipped":
            path = TestAnalyzeDense().make_dense_matrix(tmp_path)  # every k in [1000, 2000]: under a decade
        else:
            path = tmp_path / "m.tsv"
            words = {"w": {0: 3}} if case == "dense-empty-range" else {"a": {0: 1}, "b": {2: 1}}
            save_matrix(build_matrix(words, horizon=5), path)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--mode", case.split("-")[0], "--output", str(out)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == listed_files(out)
        assert absent not in names
        if case == "dense-empty-range":
            assert json.loads((out / "dense.json").read_text(encoding="utf-8"))["word_count"] == 0


def test_every_traced_stage_is_a_cli_function():
    """The benchmark's tracer wraps these names in ``wordburst.cli``; a stage
    the CLI stops importing would silently drop out of its spans."""
    spec = importlib.util.spec_from_file_location(
        "trace_cmd", Path(__file__).resolve().parents[1] / "perfbench" / "trace_cmd.py")
    trace_cmd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cmd)
    import wordburst.cli as cli

    assert [name for name in trace_cmd.SPAN_NAMES if not callable(getattr(cli, name, None))] == []
    assert any(trace_cmd.WRITER.match(name) and callable(value) for name, value in vars(cli).items())


@pytest.mark.parametrize("mode, cpus", [("dilute", 1), ("dilute", 2), ("rank", 1)])
def test_matrix_is_freed_before_the_first_fit(tmp_path, monkeypatch, command_argv, mode, cpus):
    """The fits import scipy; the word-day matrix must be gone by then, so the two never add up
    in the peak.  A forked fit worker holds no matrix either, as it is forked before the load."""
    real_load, matrices, fitted = cli.load_matrix, [], []

    def load_matrix(path):
        matrix = real_load(path)
        matrices.append(weakref.ref(matrix))
        return matrix

    def after_the_matrix(fit):
        def checked(*args):
            assert [ref for ref in matrices if ref() is not None] == []
            fitted.append(fit.__name__)
            return fit(*args)
        return checked

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(cli, "load_matrix", load_matrix)
    for name in ("fit_stretched_exponential", "fit_modified_power_law"):
        monkeypatch.setattr(cli, name, after_the_matrix(getattr(cli, name)))
    assert main(command_argv[1][mode] + ["--output", str(tmp_path / "out")]) == EXIT_OK
    assert len(matrices) == 1 and fitted  # the parent fitted at least the aggregate or the rank curve


def test_commands_without_fits_do_not_import_scipy(tmp_path):
    """scipy costs about half a second per process; only the dilute fits and the
    special functions may load it.  Rank mode's simplex is a port, not an import."""
    import wordburst

    spec = write_spec(tmp_path, horizon=214, n_words=300, rate=7.0)
    stretched_spec = tmp_path / "stretched.json"
    stretched_spec.write_text(json.dumps({"process": "stretched-renewal", "horizon": 214, "n_words": 300,
                                          "seed": 1, "a": 1.0, "nu": 0.5}), encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("2005-02-11\tf\tthe cat\n2005-02-12\tf\tthe hat\n", encoding="utf-8")
    commands = [
        ["--version"],
        ["simulate", "--spec", str(spec), "--output", str(tmp_path / "sim")],
        ["simulate", "--spec", str(stretched_spec), "--output", str(tmp_path / "sim-stretched")],
        ["ingest", "--input", str(corpus), "--output", str(tmp_path / "ing")],
        ["analyze", "--input", str(tmp_path / "sim" / "matrix.tsv"), "--mode", "dense",
         "--output", str(tmp_path / "out")],
        ["analyze", "--input", str(tmp_path / "sim" / "matrix.tsv"), "--mode", "rank",
         "--output", str(tmp_path / "rank-sim")],
        ["analyze", "--input", str(tmp_path / "ing" / "matrix.tsv"), "--mode", "rank",
         "--output", str(tmp_path / "rank-ing")],
    ]
    code = ("import json, sys\nfrom wordburst.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    src = str(Path(wordburst.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * 7, proc.stderr
    assert scipy_modules == []
    assert (tmp_path / "out" / "xtilde.csv").is_file() and json.loads(
        (tmp_path / "out" / "dense.json").read_text(encoding="utf-8"))["word_count"] > 0
    # the simulated curve is fitted by the simplex; the three-word corpus is degenerate
    assert not json.loads((tmp_path / "rank-sim" / "fit.json").read_text(encoding="utf-8"))["degenerate"]
    assert (tmp_path / "rank-ing" / "rank.csv").is_file()


def test_dilute_run_does_not_import_scipy_optimize(tmp_path, command_argv):
    """The stretched fit is a port of scipy's least_squares: a dilute run, its fits all in the
    parent, loads scipy.special and scipy.linalg and no scipy.optimize."""
    import wordburst

    code = ("import json, os, sys\nfrom wordburst.cli import main\nos.sched_getaffinity = lambda pid: {0}\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    out = tmp_path / "out"
    src = str(Path(wordburst.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(command_argv[1]["dilute"] + ["--output", str(out)])],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    code, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == EXIT_OK, proc.stderr
    fits = json.loads((out / "fits.json").read_text(encoding="utf-8"))
    assert any("skipped" not in record for record in fits.values())
    assert {"scipy.linalg", "scipy.special"} <= set(scipy_modules)
    assert [m for m in scipy_modules if m.startswith("scipy.optimize")] == []


def test_fit_workers_preload_only_what_the_fits_import(tmp_path, monkeypatch, command_argv):
    """A worker forked by ``_fit_worker``'s pool holds exactly the scipy modules that importing
    scipy.special and scipy.linalg loads, and its parent none of them until it imports those itself."""
    from concurrent.futures import process

    initializers = []

    class Recorded(process.ProcessPoolExecutor):
        def __init__(self, workers, context, initializer):
            initializers.append(initializer)
            super().__init__(workers, context, initializer)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(command_argv[1]["dilute"] + ["--output", str(tmp_path / "out")]) == EXIT_OK
    assert initializers == [cli._fit_worker]
    code = ("import json, multiprocessing, sys\nfrom concurrent.futures import ProcessPoolExecutor\n"
            "import wordburst.cli as cli\n"
            "def scipy_modules():\n    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "with ProcessPoolExecutor(1, multiprocessing.get_context('fork'), cli._fit_worker) as pool:\n"
            "    before, worker = scipy_modules(), pool.submit(scipy_modules).result()\n"
            "import scipy.special, scipy.linalg\nprint(json.dumps([before, worker, scipy_modules()]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    before, worker, imported = json.loads(proc.stdout.splitlines()[-1])
    assert before == [] and {"scipy.linalg", "scipy.special"} <= set(worker)
    assert worker == imported
