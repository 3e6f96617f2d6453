"""End-to-end command-line pipelines and exit codes."""
import csv
import json

import numpy as np
import pytest

from wordburst.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wordburst.matrix import load_matrix, save_matrix

from conftest import build_matrix


def write_spec(tmp_path, **kw):
    spec = dict(process="poisson", horizon=400, n_words=800, seed=4, rate=0.05)
    spec.update(kw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


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
    ])
    def test_bad_spec_value_gives_one_line(self, tmp_path, capsys, fields, offending):
        spec = write_spec(tmp_path, **fields)
        assert main(["simulate", "--spec", str(spec), "--output", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("wordburst: invalid generator spec") and err.count("\n") == 1
        assert repr(offending) in err

    def test_missing_spec_fields_are_listed(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"process": "poisson", "rate": 0.1}', encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--output", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == "wordburst: missing spec fields: ['horizon', 'n_words', 'seed']\n"

    def test_total_histogram_centered_on_rate_times_horizon(self, tmp_path):
        spec = write_spec(tmp_path, horizon=214, n_words=10_000, rate=0.2, seed=6)
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(spec), "--output", str(out)]) == EXIT_OK
        m = load_matrix(out / "matrix.tsv")
        totals = np.array([m.total(w) for w in m.words])
        assert totals.mean() == pytest.approx(42.8, rel=0.05)


class TestIngest:
    def corpus(self, tmp_path, lines):
        path = tmp_path / "corpus.txt"
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
        assert m.series("cat") == {0: 1, 2: 1}
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

    def test_bad_line_diagnoses_position(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path, ["2005-02-11\tf\tok", "broken line"])
        code = main(["ingest", "--input", str(corpus), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert ":2:" in capsys.readouterr().err


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

    def test_empty_range_warns_and_succeeds(self, tmp_path, capsys):
        save_matrix(build_matrix({"w": {0: 3}}, horizon=5), tmp_path / "m.tsv")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "dense",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert "no words" in capsys.readouterr().err
        rows = read_csv(out / "xtilde.csv")
        assert all(float(r["density_empirical"]) == 0 for r in rows)

    def test_emit_plots(self, tmp_path):
        path = self.make_dense_matrix(tmp_path, seed=12)
        out = tmp_path / "out"
        main(["analyze", "--input", str(path), "--mode", "dense", "--seed", "1",
              "--emit-plots", "--output", str(out)])
        plot = (out / "plot_xtilde.csv").read_text(encoding="utf-8")
        assert plot.startswith("# xtilde empirical null\n")


class TestExitCodes:
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
        ("k-range-inverted", EXIT_USAGE),
        ("input-is-directory", EXIT_DATA),
        ("matrix-horizon-zero", EXIT_DATA),
        ("matrix-not-utf8", EXIT_DATA),
        ("matrix-negative-cell", EXIT_DATA),
        ("matrix-cell-2^63", EXIT_DATA),
    ])
    def test_bad_input_gives_one_line_and_exit_code(self, tmp_path, capsys, case, expected):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("2005-02-11\tf\tthe cat\n2005-02-12\tf\tthe hat\n", encoding="utf-8")
        log = tmp_path / "scans.json"
        matrix = tmp_path / "m.tsv"
        save_matrix(build_matrix({"w": {0: 1, 2: 1}}, horizon=3), matrix)
        argv = ["analyze", "--input", str(matrix), "--mode", "dilute"]
        if case.startswith("scan-log"):
            days = [0, 2] if case == "scan-log-not-contiguous" else [0, 1, 2]
            log.write_text(json.dumps({"days": [{"day_index": d, "scan_performed": True} for d in days]}),
                           encoding="utf-8")
            argv = ["ingest", "--input", str(corpus), "--scan-log", str(log)]
        elif case == "k-range-inverted":
            argv = ["analyze", "--input", str(matrix), "--mode", "dense", "--k-min", "5", "--k-max", "2"]
        elif case == "input-is-directory":
            argv[2] = str(tmp_path)
        elif case == "matrix-horizon-zero":
            matrix.write_text("#T=0\n", encoding="utf-8")
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
