"""Gap statistics: distributions, risk functions, rescaling, fits, dispersion."""
import contextlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from wordburst import stretched, waiting
from wordburst.ensembles import build_ensembles, select_dilute
from wordburst.errors import EmptySampleError, FitDidNotConverge
from wordburst.matrix import WordDayMatrix
from wordburst.seeding import substream
from wordburst.waiting import (
    MeanWaitingCheck,
    ZetaRow,
    aggregate_distribution,
    distribution_from_sample,
    ensemble_distribution,
    fit_stretched_exponential,
    log_binned_density,
    max_exponential_deviation,
    max_pairwise_deviation,
    mean_waiting_check,
    rescale_time,
    rescaled_survival,
    risk_function,
    zeta,
    zeta_by_ensemble,
)

from conftest import build_matrix, exhaust_least_squares


def bernoulli_matrix(p: float, n_words: int, horizon: int, seed: int) -> WordDayMatrix:
    """Test-local oracle corpus: each day an independent coin at rate p."""
    rng = np.random.default_rng(seed)
    words = {}
    hits = rng.random((n_words, horizon)) < p
    for i in range(n_words):
        days = np.nonzero(hits[i])[0]
        if days.size:
            words[f"b{i:06d}"] = {int(d): 1 for d in days}
    return build_matrix(words, horizon)


class TestWaitingTimes:
    @staticmethod
    def gaps(days, horizon):
        """The gaps ``WordDayMatrix.gaps`` finds for one word with ``{day: count}`` cells."""
        return build_matrix({"w": days}, horizon).gaps([0])[1]

    def test_event_day_differences(self):
        assert self.gaps({3: 1, 7: 2, 8: 1}, horizon=10).tolist() == [4, 1]

    def test_single_event_day_yields_empty(self):
        assert self.gaps({4: 2}, horizon=10).size == 0

    def test_daily_word_is_periodic(self):
        taus = self.gaps({d: 1 for d in range(30)}, horizon=30)
        assert set(taus.tolist()) == {1}
        assert zeta(taus).zeta == pytest.approx(1.0)

    def test_multiplicity_ignored(self):
        assert self.gaps({0: 9, 5: 1}, horizon=6).tolist() == [5]

    def test_pooled_order_is_word_order(self, tiny_matrix):
        _, taus = tiny_matrix.gaps([tiny_matrix.words.index("cat"), tiny_matrix.words.index("hat")])
        assert taus.tolist() == [3, 4, 1, 4]


class TestDistributions:
    def test_single_word_two_events(self):
        m = build_matrix({"w": {0: 1, 5: 1}}, horizon=10)
        index = build_ensembles(m)
        dist = ensemble_distribution(index[2], m)
        assert dist.f[4] == 1.0  # tau = 5
        assert dist.sample_count == 1

    def test_pooling_duplicate_series_matches_single(self):
        m1 = build_matrix({"w": {0: 1, 2: 1, 7: 1}}, horizon=10)
        m2 = build_matrix(
            {"w": {0: 1, 2: 1, 7: 1}, "v": {0: 1, 2: 1, 7: 1}}, horizon=10
        )
        d1 = ensemble_distribution(build_ensembles(m1)[3], m1)
        d2 = ensemble_distribution(build_ensembles(m2)[3], m2)
        np.testing.assert_allclose(d1.f, d2.f)

    def test_normalization_tight(self):
        rng = np.random.default_rng(0)
        taus = rng.integers(1, 200, size=10_000)
        dist = distribution_from_sample(taus, horizon=300)
        assert abs(dist.f.sum() - 1.0) < 1e-12

    def test_geometric_class_distribution(self):
        # Bernoulli-per-day thinning at rate p: gaps are geometric.  In a
        # finite window a gap of length tau has T - tau possible start
        # positions, so the observed law is (T - tau) * (1-p)**(tau-1),
        # normalized; Monte Carlo corpus against that closed form.
        p, horizon = 0.05, 400
        m = bernoulli_matrix(p, 4000, horizon, seed=3)
        index = build_ensembles(m)
        dist = aggregate_distribution(index, m)
        assert dist.sample_count > 50_000
        tau = dist.support.astype(float)
        windowed = (horizon - tau) * np.power(1 - p, tau - 1)
        windowed /= windowed.sum()
        sup = np.max(np.abs(np.cumsum(dist.f) - np.cumsum(windowed)))
        assert sup < 0.01
        # and the plain geometric is already close at this window size
        geo = p * np.power(1 - p, tau - 1)
        assert np.max(np.abs(np.cumsum(dist.f) - np.cumsum(geo))) < 0.03

    def test_dense_class_rejected(self):
        m = build_matrix({"w": {0: 6}}, horizon=3)
        index = build_ensembles(m)
        with pytest.raises(ValueError):
            ensemble_distribution(index[6], m)

    def test_empty_pool_is_error(self):
        m = build_matrix({"w": {0: 1}}, horizon=5)
        index = build_ensembles(m)
        with pytest.raises(EmptySampleError):
            ensemble_distribution(index[1], m)


class TestAggregateMixing:
    def test_two_decade_rate_mixture_overpopulates_tail(self):
        # words at rates spanning two decades; pooled tail must exceed
        # the single exponential carrying the pooled mean
        rng = np.random.default_rng(17)
        horizon = 400
        words = {}
        rates = np.exp(rng.uniform(np.log(0.01), np.log(1.0), 3000))
        for i, r in enumerate(rates):
            days = np.nonzero(rng.random(horizon) < 1 - np.exp(-r))[0]
            if days.size >= 2:
                words[f"w{i:05d}"] = {int(d): 1 for d in days}
        m = build_matrix(words, horizon)
        dist = aggregate_distribution(build_ensembles(m), m)
        taus = np.repeat(dist.support, dist.counts)
        mean = taus.mean()
        emp_tail = np.mean(taus > 5 * mean)
        assert emp_tail > 1.5 * np.exp(-5)

    def test_degenerate_mixture_is_single_class(self):
        m = bernoulli_matrix(0.1, 500, 300, seed=5)
        index = build_ensembles(m)
        agg = aggregate_distribution(index, m)
        pooled = np.concatenate(
            [m.gaps(index[k].rows)[1] for k in index.ks() if k < m.horizon]
        )
        np.testing.assert_allclose(agg.f, distribution_from_sample(pooled, m.horizon).f)
        # the histogram ends at the longest gap: the horizon-long one holds only zeros past it
        reference = np.bincount(pooled, minlength=m.horizon)[1:]
        assert agg.counts.size == pooled.max() < m.horizon - 1
        np.testing.assert_array_equal(agg.counts, reference[:agg.counts.size])
        assert not reference[agg.counts.size:].any()
        assert agg.counts.sum() == agg.sample_count
        np.testing.assert_array_equal(agg.f, agg.counts / agg.sample_count)

    def test_two_point_mixture_dispersion(self):
        # continuous-mixture oracle: equal-weight exp(1) and exp(10) gaps
        # give <tau> = 5.5, <tau^2> = 101, ratio ~ 3.34
        rng = np.random.default_rng(11)
        gaps = np.concatenate([rng.exponential(1.0, 300_000), rng.exponential(10.0, 300_000)])
        z = zeta(gaps)
        assert z.mean_tau == pytest.approx(5.5, rel=0.02)
        assert z.second_moment == pytest.approx(101.0, rel=0.03)
        assert z.zeta == pytest.approx(101 / 30.25, rel=0.03)
        assert z.zeta > 2


class TestRiskFunction:
    def test_point_mass(self):
        m = build_matrix({"w": {0: 1, 5: 1}}, horizon=10)
        dist = ensemble_distribution(build_ensembles(m)[2], m)
        risk = risk_function(dist)
        np.testing.assert_allclose(risk.values[:5], 1.0)
        np.testing.assert_allclose(risk.values[5:], 0.0)

    def test_geometric_closed_form(self):
        p = 0.3
        tau = np.arange(1, 100)
        f = p * np.power(1 - p, tau - 1)
        f = np.concatenate([f, [1 - f.sum()]])  # fold the tail into the last cell
        dist = distribution_from_sample(
            np.repeat(np.arange(1, 101), np.round(f * 10**7).astype(int)), horizon=101
        )
        risk = risk_function(dist)
        expected = np.power(1 - p, np.arange(0, 99))
        # R ends at the longest gap (44 days; the tail's rounded counts are 0) and is 0 past it
        n = risk.values.size
        assert n == dist.f.size == 44
        np.testing.assert_allclose(risk.values, expected[:n], atol=5e-7)
        np.testing.assert_allclose(expected[n:], 0.0, atol=5e-7)

    def test_starts_at_one_and_recovers_f(self):
        rng = np.random.default_rng(2)
        dist = distribution_from_sample(rng.integers(1, 50, 5000), horizon=60)
        risk = risk_function(dist)
        assert risk.values[0] == pytest.approx(1.0, abs=1e-12)
        recovered = -np.diff(np.concatenate([risk.values, [0.0]]))
        np.testing.assert_allclose(recovered, dist.f, atol=1e-15)
        assert np.all(np.diff(risk.values) <= 1e-15)


class TestRescaling:
    def test_identity_at_k_equals_horizon(self):
        dist = distribution_from_sample(np.array([1, 1, 2, 3]), horizon=10)
        risk = risk_function(dist)
        curve = rescale_time(risk, k=10)
        np.testing.assert_allclose(curve.t_r, risk.support)

    def test_half_rate_arithmetic(self):
        dist = distribution_from_sample(np.array([1, 2, 4, 5]), horizon=8)
        risk = risk_function(dist)
        curve = rescale_time(risk, k=4)  # k = T/2
        assert curve.t_r[3] == pytest.approx(2.0)  # t = 4 -> 2
        np.testing.assert_allclose(curve.values, risk.values)

    def test_rescaling_preserves_dispersion(self):
        rng = np.random.default_rng(8)
        taus = rng.integers(1, 40, 1000).astype(float)
        scaled = taus * (25 / 214)
        assert zeta(scaled).zeta == pytest.approx(zeta(taus).zeta, rel=1e-12)

    def test_poisson_collapse_onto_exponential(self):
        horizon = 214
        curves = []
        for k, n_words in ((25, 1500), (105, 400)):
            m = bernoulli_matrix(1 - np.exp(-k / horizon), n_words, horizon, seed=k)
            dist = aggregate_distribution(build_ensembles(m), m)
            assert dist.sample_count > 10_000
            curves.append(rescaled_survival(dist, k=k))
        for c in curves:
            assert max_exponential_deviation(c) < 0.05
        assert max_pairwise_deviation(curves) < 0.05


class TestStretchedFit:
    def day_binned_sample(self, a, nu, n_gaps, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(stretched.sample(rng, n_gaps, a, nu))
        days = np.unique(np.floor(times).astype(np.int64))
        return np.diff(days)

    def test_recovers_half_shape(self):
        taus = self.day_binned_sample(0.1, 0.5, 120_000, seed=21)
        dist = distribution_from_sample(taus, horizon=int(taus.max()) + 2)
        fit = fit_stretched_exponential(risk_function(dist))
        assert fit.nu == pytest.approx(0.5, abs=0.05)
        assert fit.a == pytest.approx(0.1, rel=0.10)

    def test_exponential_data(self):
        rng = np.random.default_rng(22)
        times = np.cumsum(rng.exponential(15.0, 400_000))
        taus = np.diff(np.unique(np.floor(times).astype(np.int64)))
        dist = distribution_from_sample(taus, horizon=int(taus.max()) + 2)
        fit = fit_stretched_exponential(risk_function(dist))
        assert fit.nu == pytest.approx(1.0, abs=0.05)
        assert 1 / fit.a == pytest.approx(15.0, rel=0.10)

    def test_normalization_constant_at_half_shape(self):
        taus = self.day_binned_sample(0.1, 0.5, 120_000, seed=23)
        dist = distribution_from_sample(taus, horizon=int(taus.max()) + 2)
        fit = fit_stretched_exponential(risk_function(dist))
        # C always equals the closed-form normalization of (a, nu), and
        # at shape exactly 1/2 that normalization is a/2
        assert fit.C == pytest.approx(stretched.normalization(fit.a, fit.nu), rel=1e-12)
        assert stretched.normalization(fit.a, 0.5) == pytest.approx(fit.a / 2, rel=1e-12)
        assert fit.C == pytest.approx(fit.a / 2, rel=0.08)  # since nu is near 1/2

    def test_no_converged_start_raises_with_best_iterate(self, monkeypatch):
        taus = self.day_binned_sample(0.1, 0.5, 20_000, seed=24)
        risk = risk_function(distribution_from_sample(taus, horizon=int(taus.max()) + 2))
        fit = fit_stretched_exponential(risk)
        exhaust_least_squares(monkeypatch)
        with pytest.raises(FitDidNotConverge) as info:
            fit_stretched_exponential(risk)
        assert (info.value.best.a, info.value.best.nu) == (fit.a, fit.nu)

    def test_too_few_points_rejected(self):
        dist = distribution_from_sample(np.array([3, 3, 3, 4]), horizon=10)
        with pytest.raises(EmptySampleError):
            fit_stretched_exponential(risk_function(dist))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLeastSquaresPort:
    """``_least_squares`` is scipy's bounded TRF ``least_squares`` step for step: the same ``x``
    bytes, ``cost`` and ``status``.  scipy is the reference here only; the fits never import it."""

    @staticmethod
    def day_binned(a, nu, size, offset, seed):
        """Day gaps of ``size`` stretched draws, each lengthened by ``offset`` mean gaps of the law:
        0 gives the plain law, and a larger offset more regular gaps, which press nu against 2."""
        gaps = stretched.sample(np.random.default_rng(seed), size, a, nu) + offset * stretched.moment(1, a, nu)
        return np.diff(np.unique(np.floor(np.cumsum(gaps)).astype(np.int64)))

    @staticmethod
    def fit_starts(taus):
        """``(residuals, x0, kinds)`` of each start of the fit of ``taus``, where ``kinds`` are the
        steps that start took: "inside" the bounds, "constrained", "reflected" or "gradient"."""
        def parallel(u, w):
            return abs(u[0] * w[1] - u[1] * w[0]) <= 1e-9 * np.hypot(*u) * np.hypot(*w)

        def select_step(x, j_h, diag_h, g_h, p, p_h, *rest):
            inside, direction = np.all((x + p >= waiting._LB) & (x + p <= waiting._UB)), p_h.copy()
            step, step_h, reduction = real_select(x, j_h, diag_h, g_h, p, p_h, *rest)
            starts[-1][2].append("inside" if inside else "gradient" if parallel(step_h, g_h)
                                 else "constrained" if parallel(step_h, direction) else "reflected")
            return step, step_h, reduction

        def least_squares(fun, x0, max_nfev):
            starts.append((fun, x0.copy(), []))
            return real_least_squares(fun, x0, max_nfev)

        starts, real_select, real_least_squares = [], waiting._select_step, waiting._least_squares
        with pytest.MonkeyPatch.context() as patch, contextlib.suppress(EmptySampleError, FitDidNotConverge):
            patch.setattr(waiting, "_select_step", select_step)
            patch.setattr(waiting, "_least_squares", least_squares)
            fit_stretched_exponential(risk_function(distribution_from_sample(taus, horizon=int(taus.max()) + 2)))
        return starts

    @staticmethod
    def assert_matches_scipy(fun, x0, max_nfev=200):
        from scipy import optimize

        want = optimize.least_squares(fun, x0, bounds=([-30.0, 0.02], [5.0, 2.0]), max_nfev=max_nfev)
        got = waiting._least_squares(fun, x0, max_nfev)
        assert (got.x.tobytes(), got.cost, got.status) == (want.x.tobytes(), want.cost, want.status)
        return want

    def test_matches_scipy(self):
        """The drawn start, and every start that reflects or takes the gradient step.  With a in
        [0.02, 0.2], nu in [1, 2] and the gaps offset by one to four mean gaps, a class is regular
        enough for its nu0 = 1.5 start to take a gradient step about one time in ten.  The draws
        are derandomized, so that the count of those steps is the same in every run."""
        taken = Counter()

        @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
        @given(st.floats(0.02, 0.2), st.floats(1, 2), st.integers(20, 300), st.one_of(st.just(0.0), st.floats(1, 4)),
               st.integers(0, 2**32 - 1), st.integers(0, 4))
        def check(a, nu, size, offset, seed, start):
            taus = self.day_binned(a, nu, size, offset, seed)
            assume(taus.size > 0)
            starts = self.fit_starts(taus)
            assume(starts)
            for i, (fun, x0, kinds) in enumerate(starts):
                if i == start or {"reflected", "gradient"} & set(kinds):
                    self.assert_matches_scipy(fun, x0)
                    taken.update(kinds)

        check()
        assert taken["reflected"] >= 10 and taken["gradient"] >= 10, taken

    @pytest.mark.parametrize("a, nu, size, offset, seed, start", [
        (0.1, 0.5, 2000, 0.0, 25, 1),  # the paper's law from the nu0 = 0.5 start
        (0.1, 2.0, 150, 2.0, 36, 4),  # regular gaps: nu0 = 1.5 reflects, takes a gradient step, ends on nu = 2
    ])
    def test_every_budget(self, a, nu, size, offset, seed, start):
        """Every max_nfev from 1 to one past convergence, so that runs stop at each evaluation."""
        fun, x0, kinds = self.fit_starts(self.day_binned(a, nu, size, offset, seed))[start]
        want = self.assert_matches_scipy(fun, x0)
        assert want.status > 0
        if offset:
            assert want.x[1] == np.nextafter(2.0, 0.0) and {"reflected", "gradient"} <= set(kinds)
        for max_nfev in range(1, want.nfev + 2):
            self.assert_matches_scipy(fun, x0, max_nfev)


class TestZeta:
    def test_exponential_gaps_give_two(self):
        rng = np.random.default_rng(30)
        z = zeta(rng.exponential(7.0, 500_000))
        assert z.zeta == pytest.approx(2.0, abs=0.02)

    def test_stretched_half_gives_ten_thirds(self):
        rng = np.random.default_rng(31)
        z = zeta(stretched.sample(rng, 1_000_000, 0.1, 0.5))
        assert z.zeta == pytest.approx(10 / 3, abs=0.05)
        assert stretched.moment(2, 1, 0.5) / stretched.moment(1, 1, 0.5) ** 2 == pytest.approx(10 / 3, rel=1e-12)

    def test_periodic_gives_one(self):
        assert zeta(np.full(50, 6)).zeta == pytest.approx(1.0)

    def test_at_least_one(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            sample = rng.integers(1, 100, size=rng.integers(2, 50))
            assert zeta(sample).zeta >= 1.0

    def test_distribution_input_matches_sample_input(self):
        taus = np.array([1, 1, 4, 9, 9, 2])
        dist = distribution_from_sample(taus, horizon=12)
        assert zeta(dist).zeta == pytest.approx(zeta(taus).zeta, rel=1e-12)

    def test_small_samples_rejected(self):
        with pytest.raises(EmptySampleError):
            zeta(np.array([], dtype=np.int64))
        with pytest.raises(EmptySampleError):
            zeta(np.array([4]))


class TestMeanWaitingCheck:
    def test_daily_word_exact(self):
        horizon = 214
        m = build_matrix({"w": {d: 1 for d in range(horizon)}}, horizon=horizon)
        dist = distribution_from_sample(m.gaps([0])[1], horizon, k=horizon - 1)
        # k == T would not be a sparse class; check the identity directly
        check = mean_waiting_check(dist, k=horizon)
        assert check.mean_tau == pytest.approx(1.0)
        assert check.deviation == pytest.approx(abs(1 - horizon / horizon))

    def test_exact_k_class_deviation_small(self):
        rng = np.random.default_rng(40)
        horizon, k = 214, 50
        words = {}
        for i in range(500):
            counts = rng.multinomial(k, np.full(horizon, 1 / horizon))
            words[f"w{i:03d}"] = {int(d): int(c) for d, c in enumerate(counts) if c}
        m = build_matrix(words, horizon)
        dist = ensemble_distribution(build_ensembles(m)[k], m)
        check = mean_waiting_check(dist)
        assert check.deviation < 0.1
        assert not check.low_sample

    def test_single_gap_flagged_low_sample(self):
        dist = distribution_from_sample(np.array([7]), horizon=20, k=2)
        check = mean_waiting_check(dist)
        assert isinstance(check, MeanWaitingCheck)
        assert check.low_sample


class TestZetaByEnsemble:
    def test_rows_and_determinism(self):
        m = bernoulli_matrix(0.08, 800, 300, seed=50)
        index = build_ensembles(m)
        rows1 = zeta_by_ensemble(select_dilute(index), m, seed=7)
        rows2 = zeta_by_ensemble(select_dilute(index), m, seed=7)
        assert rows1 == rows2
        assert all(r.zeta >= 1 for r in rows1)
        assert all(r.zeta_err >= 0 for r in rows1)
        ks = [r.k for r in rows1]
        assert ks == sorted(ks)

    def test_k_window(self):
        m = bernoulli_matrix(0.08, 400, 300, seed=51)
        index = build_ensembles(m)
        window = [e for e in select_dilute(index) if 20 <= e.k <= 30]
        rows = zeta_by_ensemble(window, m, seed=1)
        assert rows and all(20 <= r.k <= 30 for r in rows)
        # each class draws from its own substream, so a window keeps its rows
        assert rows == [r for r in zeta_by_ensemble(select_dilute(index), m, seed=1) if 20 <= r.k <= 30]


def per_resample_zeta_rows(classes, m, n_boot=200, seed=0, gaps=None):
    """Reference: the bootstrap drawn one resample at a time, on the gaps that
    ``gaps(rows)`` returns (``m.gaps`` unless given)."""
    rows = []
    for ens in classes:
        n, taus = (gaps or m.gaps)(ens.rows)
        if taus.size < 2:
            continue
        z = zeta(taus)
        err = 0.0
        word = np.repeat(np.arange(n.size), n)
        sums = np.stack([n, np.bincount(word, taus, n.size), np.bincount(word, taus**2, n.size)])[:, n > 0]
        n_words = sums.shape[1]
        if n_words > 1 and n_boot > 0:
            rng = substream(seed, ens.k)
            zs = np.empty(n_boot)
            for b in range(n_boot):
                count, s1, s2 = sums[:, rng.integers(0, n_words, size=n_words)].sum(axis=1)
                zs[b] = (s2 / count) / (s1 / count) ** 2 if count >= 2 else np.nan
            err = float(np.nanstd(zs))
        rows.append(ZetaRow(k=ens.k, zeta=z.zeta, zeta_err=err, n_k=ens.n_k, sample_count=z.sample_count))
    return rows


class TestZetaBlocks:
    def test_blocks_equal_one_draw_per_resample(self, monkeypatch):
        rng = np.random.default_rng(52)
        counts = {}
        # (k, words): odd and even word counts and one word alone
        for k, n_words in [(3, 9), (5, 1), (6, 8), (9, 13), (12, 40)]:
            for i in range(n_words):
                days, per_day = np.unique(rng.integers(0, 60, size=k), return_counts=True)
                counts[f"k{k}w{i}"] = dict(zip(days.tolist(), per_day.tolist()))
        counts["k3gapless"] = {4: 3}  # in its class, but not among the words resampled
        m = build_matrix(counts, 60)
        classes = select_dilute(build_ensembles(m))
        assert [e.n_k for e in classes] == [10, 1, 8, 13, 40]
        for seed in (0, 7):
            expected = per_resample_zeta_rows(classes, m, seed=seed)
            assert [r.k for r in expected] == [3, 5, 6, 9, 12]
            assert zeta_by_ensemble(classes, m, seed=seed) == expected
            # one resample per block, then blocks of 97 // n_words resamples, which do not divide 200
            for picks in (1, 97):
                monkeypatch.setattr(waiting, "BOOT_BLOCK_PICKS", picks)
                assert zeta_by_ensemble(classes, m, seed=seed) == expected
            monkeypatch.undo()

    def test_gaps_longer_than_46340_days_stay_exact(self):
        """Such a gap's square passes 2^31: the gaps are int64, so the
        squared-gap sums equal those of gaps computed from Python ints."""
        horizon = 100_000
        rng = np.random.default_rng(53)
        counts = {f"k{k}w{i}": {d: 1 for d in rng.choice(horizon, k, replace=False).tolist()}
                  for k in (2, 3, 4) for i in range(6)}
        counts["far"] = {0: 1, horizon - 1: 1}
        m = build_matrix(counts, horizon)

        def python_gaps(rows):
            days = [sorted(counts[m.words[r]]) for r in rows]
            return np.array([len(d) - 1 for d in days]), np.array([b - a for d in days for a, b in zip(d, d[1:])])

        taus = m.gaps(range(m.vocabulary_size))[1]
        assert taus.dtype == np.int64 and taus.max() == horizon - 1 and (taus > 46_340).sum() > 5
        classes = select_dilute(build_ensembles(m))
        for seed in (0, 7):
            expected = per_resample_zeta_rows(classes, m, seed=seed, gaps=python_gaps)
            assert [r.k for r in expected] == [2, 3, 4]
            assert zeta_by_ensemble(classes, m, seed=seed) == expected


class TestLogBinning:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(60)
        taus = rng.integers(1, 500, 20_000)
        lo, hi, center, density = log_binned_density(taus)
        assert np.sum(density * (hi - lo)) == pytest.approx(1.0, rel=1e-9)
        assert np.all(density > 0)
        assert np.all(hi / lo == pytest.approx(1.25, rel=1e-9))

    def test_requires_data(self):
        with pytest.raises(EmptySampleError):
            log_binned_density(np.array([]))
