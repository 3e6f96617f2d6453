"""Rank curve construction and the two-exponent fit against baselines."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wordburst import rankstats
from wordburst.errors import EmptyCorpusError, FitDidNotConverge
from wordburst.ingest import bin_daily
from wordburst.rankstats import (
    RankCurve,
    fit_modified_power_law,
    fit_zipf,
    fit_zipf_mandelbrot,
    rank_curve,
    write_rank_csv,
)

from conftest import build_matrix

TRUE = dict(A=1e8, a1=0.2, a2=4e-4, g1=0.65, g2=1.5)


def curve_from_model(n_ranks: int, noise: float = 0.0, seed: int = 0, **params) -> RankCurve:
    p = {**TRUE, **params}
    x = np.arange(1, n_ranks + 1, dtype=float)
    y = p["A"] / (1 + p["a1"] * x ** p["g1"] + p["a2"] * x ** p["g2"])
    if noise:
        y = y * np.random.default_rng(seed).lognormal(0.0, noise, x.size)
    counts = np.maximum(np.round(y), 1).astype(np.int64)
    words = tuple(f"w{i:06d}" for i in range(n_ranks))
    return RankCurve(ranks=x.astype(np.int64), counts=counts, words=words)


class TestRankCurve:
    def test_tie_broken_by_word(self):
        m = build_matrix({"b": {0: 3}, "c": {0: 3}, "a": {0: 5}}, horizon=1)
        curve = rank_curve(m)
        assert curve.counts.tolist() == [5, 3, 3]
        assert curve.words == ("a", "b", "c")
        assert curve.ranks.tolist() == [1, 2, 3]

    def test_single_word(self):
        m = build_matrix({"only": {0: 2, 1: 1}}, horizon=2)
        curve = rank_curve(m)
        assert curve.ranks.tolist() == [1]
        assert curve.counts.tolist() == [3]

    def test_english_corpus_puts_the_first(self):
        texts = [
            "the cat sat on the mat",
            "a dog chased the cat over the hill",
            "the rain in spain stays mainly on the plain",
            "to be or not to be, that is the question",
            "she sold sea shells by the sea shore",
            "the quick brown fox jumps over the lazy dog",
        ]
        posts = [(i % 3, t) for i, t in enumerate(texts)]
        curve = rank_curve(bin_daily(posts))
        assert curve.words[0] == "the"

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyCorpusError):
            rank_curve(build_matrix({}, 3))


class TestModifiedPowerLawFit:
    def test_exact_recovery_within_one_percent(self):
        fit = fit_modified_power_law(curve_from_model(100_000))
        assert fit.A == pytest.approx(TRUE["A"], rel=0.01)
        assert fit.a1 == pytest.approx(TRUE["a1"], rel=0.01)
        assert fit.a2 == pytest.approx(TRUE["a2"], rel=0.01)
        assert fit.gamma1 == pytest.approx(TRUE["g1"], rel=0.01)
        assert fit.gamma2 == pytest.approx(TRUE["g2"], rel=0.01)
        assert not fit.degenerate

    def test_exponent_order(self):
        fit = fit_modified_power_law(curve_from_model(10_000))
        assert fit.gamma2 > fit.gamma1 > 0

    def test_pure_power_law(self):
        x = np.arange(1, 50_001, dtype=float)
        y = np.round(1e7 / x**0.9).astype(np.int64)
        curve = RankCurve(ranks=x.astype(np.int64), counts=np.maximum(y, 1),
                          words=tuple(f"w{i}" for i in range(x.size)))
        fit = fit_modified_power_law(curve)
        assert fit.residual < 1e-3
        assert fit.gamma1 == pytest.approx(0.9, abs=0.02)
        # the second term is idle: negligible share of the denominator
        tail_share = fit.a2 * x.max() ** fit.gamma2 / (fit.a1 * x.max() ** fit.gamma1)
        assert tail_share < 0.01

    def test_exhausted_budget_raises_with_best_start(self, monkeypatch):
        monkeypatch.setattr(rankstats, "SIMPLEX_BUDGET", 3)
        with pytest.raises(FitDidNotConverge) as info:
            fit_modified_power_law(curve_from_model(5000, A=1e5, a1=0.5, a2=1e-3, g1=0.8, g2=1.6))
        best = info.value.best
        assert not best.degenerate
        # the first start is the true (a1, a2, g1, g2); three evaluations do not leave it
        assert (best.A, best.a1, best.a2, best.gamma1, best.gamma2, best.residual) == pytest.approx(
            (99998.79716540035, 0.5, 1e-3, 0.8, 1.6, 0.0009846130297773456), rel=1e-9)

    def test_flat_curve_degenerate(self):
        counts = np.full(5000, 42, dtype=np.int64)
        curve = RankCurve(ranks=np.arange(1, 5001), counts=counts,
                          words=tuple(f"w{i}" for i in range(5000)))
        fit = fit_modified_power_law(curve)
        assert fit.degenerate
        assert fit.a1 == fit.a2 == 0.0
        assert fit.residual == pytest.approx(0.0, abs=1e-12)
        assert fit.A == pytest.approx(42.0)

    def test_tiny_curve_degenerate(self):
        curve = RankCurve(ranks=np.arange(1, 4), counts=np.array([9, 5, 2]),
                          words=("a", "b", "c"))
        assert fit_modified_power_law(curve).degenerate

    def test_fitted_curve_strictly_decreasing(self):
        fit = fit_modified_power_law(curve_from_model(20_000, noise=0.05, seed=4))
        y = fit.predict(np.arange(1, 20_001))
        assert np.all(np.diff(y) < 0)

    def test_scale_equivariance(self):
        base = curve_from_model(20_000)
        scaled = RankCurve(ranks=base.ranks, counts=base.counts * 1000, words=base.words)
        f1 = fit_modified_power_law(base)
        f2 = fit_modified_power_law(scaled)
        assert f2.A / f1.A == pytest.approx(1000.0, rel=1e-6)
        assert f2.a1 == pytest.approx(f1.a1, rel=1e-6)
        assert f2.a2 == pytest.approx(f1.a2, rel=1e-6)
        assert f2.gamma1 == pytest.approx(f1.gamma1, rel=1e-6)
        assert f2.gamma2 == pytest.approx(f1.gamma2, rel=1e-6)

    def test_refit_on_own_output(self):
        first = fit_modified_power_law(curve_from_model(30_000, noise=0.05, seed=9))
        x = np.arange(1, 30_001)
        refit_curve = RankCurve(
            ranks=x, counts=np.maximum(np.round(first.predict(x)), 1).astype(np.int64),
            words=tuple(f"w{i}" for i in range(x.size)),
        )
        second = fit_modified_power_law(refit_curve)
        assert second.a1 == pytest.approx(first.a1, rel=0.01)
        assert second.a2 == pytest.approx(first.a2, rel=0.01)
        assert second.gamma1 == pytest.approx(first.gamma1, rel=0.01)
        assert second.gamma2 == pytest.approx(first.gamma2, rel=0.01)


class TestBaselines:
    def test_zipf_recovers_pure_power_law(self):
        x = np.arange(1, 10_001, dtype=float)
        counts = np.maximum(np.round(5e5 / x**1.1), 1).astype(np.int64)
        curve = RankCurve(ranks=x.astype(np.int64), counts=counts,
                          words=tuple(f"w{i}" for i in range(x.size)))
        fit = fit_zipf(curve)
        assert fit.lam == pytest.approx(1.1, abs=0.02)

    def test_zipf_mandelbrot_recovers_itself(self):
        x = np.arange(1, 50_001, dtype=float)
        y = 1e7 / (1 + 0.05 * x) ** 1.3
        curve = RankCurve(ranks=x.astype(np.int64),
                          counts=np.maximum(np.round(y), 1).astype(np.int64),
                          words=tuple(f"w{i}" for i in range(x.size)))
        fit = fit_zipf_mandelbrot(curve)
        assert fit.a == pytest.approx(0.05, rel=0.05)
        assert fit.nu == pytest.approx(1.3, rel=0.05)

    def test_two_exponent_data_beats_baselines(self):
        curve = curve_from_model(100_000, noise=0.05, seed=2)
        fit = fit_modified_power_law(curve)
        assert fit.residual < fit_zipf(curve).residual
        assert fit.residual < fit_zipf_mandelbrot(curve).residual


def test_rank_csv(tmp_path):
    curve = curve_from_model(200)
    fit = fit_modified_power_law(curve)
    path = tmp_path / "rank.csv"
    write_rank_csv(path, curve, fit)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "rank,count,fitted"
    assert len(lines) == 201


class TestNelderMeadPort:
    """``_nelder_mead`` is scipy's Nelder-Mead step for step: the same ``x`` bits, ``fun`` (NaN
    equal to NaN) and ``success``.  scipy is the reference here only; the fits never import it."""

    @staticmethod
    def assert_matches_scipy(f, x0, maxfev, xatol=1e-4, fatol=1e-9):
        from scipy import optimize

        with np.errstate(invalid="ignore"):  # inf - inf in the convergence test, in both
            want = optimize.minimize(f, x0, method="Nelder-Mead",
                                     options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
            got = rankstats._nelder_mead(f, x0, maxfev, xatol, fatol)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.fun == want.fun or (np.isnan(got.fun) and np.isnan(want.fun))
        assert got.success == want.success

    @staticmethod
    def objective(kind, center, weights, bound):
        """A quadratic or Rosenbrock-like bowl: plain, floored to whole steps so that costs tie,
        at 1e12 outside a box as the rank fits are, or at inf and nan past two faces of the box."""

        def bowl(x):
            if kind.startswith("rosenbrock"):
                return float(np.sum(weights[1:] * (x[1:] - x[:-1] ** 2) ** 2 + (center[:-1] - x[:-1]) ** 2))
            return float(np.sum(weights * (x - center) ** 2))

        def f(x):
            if kind.endswith("box") and np.any(np.abs(x - center) > bound):
                return 1e12
            if kind.endswith("nonfinite") and x[0] - center[0] > bound:
                return np.inf
            if kind.endswith("nonfinite") and x[-1] - center[-1] < -bound:
                return np.nan
            return float(np.floor(bowl(x))) if kind.endswith("steps") else bowl(x)

        return f

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_scipy(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        coordinates = st.one_of(st.just(0.0), st.floats(-3, 3, allow_subnormal=False))
        x0 = np.array(data.draw(st.lists(coordinates, min_size=n, max_size=n), label="x0"))
        center = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n), label="center"))
        weights = np.array(data.draw(st.lists(st.floats(0.1, 100), min_size=n, max_size=n), label="weights"))
        kind = data.draw(st.sampled_from([f"{bowl}{wall}" for bowl in ("quadratic", "rosenbrock")
                                          for wall in ("", "-steps", "-box", "-nonfinite")]), label="kind")
        bound = data.draw(st.floats(0.05, 4), label="bound")
        maxfev = data.draw(st.one_of(st.integers(0, n + 1), st.integers(n + 2, 400), st.just(2000)), label="maxfev")
        xatol = data.draw(st.sampled_from([1e-4, 1e-10]), label="xatol")
        fatol = data.draw(st.sampled_from([1e-9, 1.0]), label="fatol")  # step costs differ by exactly 1.0
        self.assert_matches_scipy(self.objective(kind, center, weights, bound), x0, maxfev, xatol, fatol)

    @pytest.mark.parametrize("kind, x0, center, weights, bound", [
        ("quadratic-box", (0.4, -0.3, 0.3), (0.2, 0.6, -0.6), (44.0, 30.0, 20.0), 0.9),
        ("quadratic-nonfinite", (-0.4, 0.8, -0.1), (0.5, 0.3, 0.6), (31.0, 34.0, 16.0), 0.7),
        ("quadratic-steps", (0.6, -0.6, 0.8), (-0.8, -0.1, 0.2), (32.0, 35.0, 45.0), 1.0),
    ])
    def test_every_budget_including_inside_a_shrink(self, kind, x0, center, weights, bound):
        """Every budget up to convergence, so runs stop after each evaluation once: inside the
        initial evaluations, inside an iteration, and part way through each of many shrinks
        (these simplices press against the 1e12 or inf wall, or meet tied costs)."""
        from scipy import optimize

        x0 = np.array(x0)
        f = self.objective(kind, np.array(center), np.array(weights), bound)
        calls, ends = [], [x0.size + 1]  # evaluations spent when each scipy iteration ended

        def counted(x):
            calls.append(1)
            return f(x)

        used = optimize.minimize(counted, x0, method="Nelder-Mead", callback=lambda result: ends.append(len(calls)),
                                 options={"maxfev": 10_000, "xatol": 1e-4, "fatol": 1e-9}).nfev
        # a shrink follows a failed reflection and contraction, then evaluates every other vertex
        shrinks = [start for start, end in zip(ends, ends[1:]) if end - start == x0.size + 2]
        assert len(shrinks) >= 10 and used < 300
        for maxfev in range(used + 2):
            self.assert_matches_scipy(f, x0, maxfev)
