"""Arbitrary bytes as every CLI input file: the exit code is 0, 2 or 3,
nothing escapes ``main`` as an exception (which a user would see as a
traceback), and no temp file is left behind."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from wordburst.cli import main


def _damaged(valid):
    """Well-formed inputs, the same with a few bytes spliced in, and raw
    bytes: the well-formed ones reach the analysis stages, the others the
    parsers' error paths."""
    def splice(data):
        return st.tuples(st.integers(0, len(data)), st.integers(0, 3), st.binary(max_size=4)).map(
            lambda cut: data[:cut[0]] + cut[2] + data[cut[0] + cut[1]:])

    return st.one_of(valid, valid.flatmap(splice), st.binary(max_size=120))


_text = st.lists(st.sampled_from(["cat", "hat", "the", "Σ", "İ", "<b>", "&amp;", " "]), max_size=6).map("".join)
_corpus = st.lists(
    st.tuples(st.sampled_from(["2005-02-11", "2005-02-12", "2005-02-14", "2005-02-30"]),
              st.sampled_from(["f", "g"]), _text),
    max_size=8,
).map(lambda posts: "".join(f"{d}\t{f}\t{t}\n" for d, f, t in posts).encode())

_scan_log = st.lists(st.booleans(), min_size=1, max_size=5).map(lambda scanned: json.dumps({"days": [
    {"day_index": i, "scan_performed": s} for i, s in enumerate(scanned)]}).encode())

_matrix = st.integers(1, 40).flatmap(lambda horizon: st.tuples(
    st.just(horizon),
    st.dictionaries(st.sampled_from(["a", "b", "cat", "w1", "w2", "Σ"]),
                    st.dictionaries(st.integers(0, horizon - 1), st.integers(1, 60), min_size=1), max_size=5),
)).map(lambda m: (f"#T={m[0]}\n" + "".join(
    f"{w}\t" + ",".join(f"{d}:{c}" for d, c in sorted(m[1][w].items())) + "\n" for w in sorted(m[1]))).encode())

# small corpora keep each example fast; corpus size is not under test
_size = {"horizon": st.integers(2, 30), "n_words": st.integers(1, 5), "seed": st.integers(0, 3)}
_valid_spec = st.one_of(
    st.fixed_dictionaries({**_size, "process": st.just("poisson"), "rate": st.floats(0.01, 3)}),
    st.fixed_dictionaries({**_size, "process": st.just("heterogeneous-poisson"),
                           "rate_distribution": st.just("log-uniform"),
                           "tau_min": st.floats(0.2, 5), "tau_max": st.floats(5, 50)}),
    st.fixed_dictionaries({**_size, "process": st.just("heterogeneous-poisson"),
                           "rate_distribution": st.just("two-point"),
                           "tau_values": st.tuples(st.floats(0.2, 50), st.floats(0.2, 50)),
                           "weights": st.floats(0, 1).map(lambda w: (w, 1 - w))}),
    st.fixed_dictionaries({**_size, "process": st.just("stretched-renewal"),
                           "a": st.floats(0.05, 3), "nu": st.floats(0.1, 2)}),
)
_number = st.one_of(st.floats(), st.integers(-1, 3), st.just("x"), st.none())
_free_spec = st.fixed_dictionaries(
    {"process": st.sampled_from(["poisson", "heterogeneous-poisson", "stretched-renewal", "x"]),
     "horizon": st.integers(-1, 30), "n_words": st.integers(-1, 5), "seed": st.integers(-1, 3)},
    optional={
        "rate_distribution": st.sampled_from(["log-uniform", "two-point", "x"]),
        **{name: _number for name in ("rate", "tau_min", "tau_max", "a", "nu")},
        **{name: st.one_of(st.lists(_number, max_size=3), _number) for name in ("tau_values", "weights")},
    },
)
_spec = st.one_of(_valid_spec, _free_spec).map(lambda spec: json.dumps(spec).encode())


def _commands(d: Path) -> list[list]:
    return [
        ["ingest", "--input", d / "corpus", "--output", d / "ingest"],
        ["ingest", "--input", d / "corpus", "--scan-log", d / "scan_log", "--output", d / "cleaned"],
        ["simulate", "--spec", d / "spec", "--output", d / "sim"],
        ["analyze", "--input", d / "matrix", "--mode", "rank", "--output", d / "rank"],
        ["analyze", "--input", d / "matrix", "--mode", "dilute", "--seed", 1, "--output", d / "dilute"],
        ["analyze", "--input", d / "matrix", "--mode", "dense", "--k-min", 1, "--k-max", 200, "--seed", 1,
         "--output", d / "dense"],
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=_damaged(_corpus), scan_log=_damaged(_scan_log), matrix=_damaged(_matrix), spec=_damaged(_spec))
def test_arbitrary_input_bytes(corpus, scan_log, matrix, spec):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, data in (("corpus", corpus), ("scan_log", scan_log), ("matrix", matrix), ("spec", spec)):
            (d / name).write_bytes(data)
        for argv in _commands(d):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv])
            assert code in (0, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
        assert not list(d.rglob("*.tmp"))
