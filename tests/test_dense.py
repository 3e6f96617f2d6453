"""Daily-count distributions, standardized pooling, box-allocation nulls."""
import numpy as np
import pytest
from scipy import stats

from wordburst import dense
from wordburst.dense import (
    BIN_WIDTH,
    matched_poisson_null,
    pool_rescaled,
    sigma_scaling,
    write_xtilde_csv,
)
from wordburst.ensembles import build_ensembles, select_dense

from conftest import box_null, build_matrix, burst_matrix, union


def in_range(m, k_lo, k_hi):
    """The frequency classes of ``m`` with k in [k_lo, k_hi]."""
    return select_dense(build_ensembles(m), k_lo, k_hi)


class TestDailyCountDistribution:
    def test_box_allocation_spread(self):
        # multinomial day variance is k*(1/T)*(1-1/T); at k=1000, T=214
        # the standard deviation is about 2.156
        k, horizon = 1000, 214
        target = np.sqrt(k / horizon * (1 - 1 / horizon))
        assert target == pytest.approx(2.156, abs=1e-3)
        # two tiny classes let the scaling fit span a decade
        m = union([box_null([k] * 400, horizon, seed=9, prefix="a"),
                   box_null([100] * 2, horizon, seed=10, prefix="b"),
                   box_null([300] * 2, horizon, seed=11, prefix="c")])
        row = next(r for r in sigma_scaling(build_ensembles(m), m).rows if r.k == k)
        assert row.n_words == 400
        assert row.sigma_abs == pytest.approx(target, rel=0.01)


class TestRescaledPooling:
    def test_day_at_the_mean_maps_to_zero(self):
        m = build_matrix({"w": {0: 2, 1: 2, 2: 3, 3: 1}}, horizon=4)  # k=8, mean 2; days 0,1 sit at the mean
        pooled = pool_rescaled(in_range(m, 8, 8), m)
        zero_bin = np.searchsorted(pooled.bin_edges, 0.0, side="right") - 1
        assert pooled.density[zero_bin] * BIN_WIDTH == 0.5  # two of the four days; the others are at +-sqrt(2)

    def test_degenerate_word_returns_none(self):
        """A zero-spread word has no standardized values: the pool skips it."""
        m = build_matrix({"w": {0: 2, 1: 2}}, horizon=2)
        pooled = pool_rescaled(in_range(m, 4, 4), m)
        assert (pooled.word_count, pooled.skipped_words) == (0, 1)

    def test_null_pool_is_standardized(self):
        m = box_null([1500] * 500, 214, seed=12)
        pooled = pool_rescaled(in_range(m, 1000, 2000), m)
        assert pooled.word_count == 500
        assert pooled.skipped_words == 0
        centers = pooled.bin_centers
        w = np.diff(pooled.bin_edges)
        mean = np.sum(centers * pooled.density * w)
        var = np.sum(centers**2 * pooled.density * w) - mean**2
        assert abs(mean) < 0.05
        assert abs(var - 1.0) < 0.1

    def test_density_normalized_over_bins(self):
        m = box_null([1200] * 100, 214, seed=13)
        pooled = pool_rescaled(in_range(m, 1000, 2000), m)
        assert np.sum(pooled.density * np.diff(pooled.bin_edges)) == pytest.approx(1.0, rel=1e-9)

    def test_bursty_words_fatten_the_right_tail(self):
        horizon, seed = 214, 14
        ks = [1000 + 17 * i for i in range(120)]
        bursty = burst_matrix(ks, horizon, n_days=10, seed=seed)
        tail_b = pool_rescaled(in_range(bursty, 1000, 2000), bursty).tail_mass(4.0)
        tail_n = matched_poisson_null(in_range(bursty, 1000, 2000), horizon, seed=seed).tail_mass(4.0)
        assert tail_b > 2 * max(tail_n, 1e-12)

    def test_extreme_concentration_is_clipped_and_counted(self):
        m = build_matrix({"spike": {0: 1000, 1: 1}}, horizon=214)
        pooled = pool_rescaled(in_range(m, 900, 1100), m)
        assert pooled.clipped_count > 0

    def test_long_horizon_pools_in_bounded_blocks(self):
        import tracemalloc

        horizon = 500_000
        m = build_matrix({f"w{i:02d}": {i: 400, horizon - 1 - i: 600} for i in range(20)}, horizon=horizon)
        tracemalloc.start()
        try:
            pooled = pool_rescaled(in_range(m, 1000, 1100), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pooled.word_count == 20
        assert peak < 60 * 2**20  # one 20 x 500k block of floats alone would be 80 MB

    def test_empty_range(self):
        m = build_matrix({"w": {0: 3}}, horizon=5)
        pooled = pool_rescaled(in_range(m, 1000, 2000), m)
        assert pooled.word_count == 0
        assert np.all(pooled.density == 0)


class TestBlocks:
    def test_block_size_changes_no_result(self, monkeypatch):
        horizon = 30
        parts = [box_null([k] * 7, horizon, seed=40 + i, prefix=f"n{i}_") for i, k in enumerate([40, 90, 200, 450])]
        parts.append(burst_matrix([90, 90, 200, 450, 450], horizon, n_days=5, seed=45, name_prefix="b"))
        parts.append(build_matrix({f"flat{i}": {d: 15 for d in range(horizon)} for i in range(3)}, horizon))
        m = union(parts)  # classes of 3 to 12 words, zero-spread words among them
        index = build_ensembles(m)
        classes = [index[k] for k in index.ks()]
        pooled, table = pool_rescaled(classes, m), sigma_scaling(index, m)
        assert len(table.rows) == 4 and pooled.skipped_words == 3
        # one word per block, then blocks of three words that split classes and span them
        for cells in (horizon, 3 * horizon + 1):
            monkeypatch.setattr(dense, "BLOCK_CELLS", cells)
            blocked = pool_rescaled(classes, m)
            assert np.array_equal(blocked.density, pooled.density)
            assert (blocked.word_count, blocked.skipped_words, blocked.clipped_count) == (
                pooled.word_count, pooled.skipped_words, pooled.clipped_count)
            assert sigma_scaling(index, m) == table


class TestPoissonNullEnsemble:
    """``dense._box_draws``, the box-allocation draws of ``matched_poisson_null``."""

    @staticmethod
    def draws(k, horizon, n_words, seed):
        return np.stack(list(dense._box_draws([k] * n_words, horizon, seed)))

    def test_single_event_lands_once(self):
        assert (self.draws(1, 214, 50, seed=3).sum(axis=1) == 1).all()

    def test_exact_totals(self):
        assert (self.draws(1000, 214, 30, seed=4).sum(axis=1) == 1000).all()

    def test_reproducible_bit_for_bit(self):
        a = self.draws(500, 214, 40, seed=77)
        assert np.array_equal(a, self.draws(500, 214, 40, seed=77))
        assert not np.array_equal(a, self.draws(500, 214, 40, seed=78))

    def test_day_counts_match_binomial_oracle(self):
        k, horizon, n_words = 1000, 214, 500
        xs = self.draws(k, horizon, n_words, seed=5).ravel()
        observed = np.bincount(xs)
        law = stats.binom(k, 1 / horizon)
        # group cells so every expected count is >= 5
        edges, exp_p = [], []
        lo = 0
        acc = 0.0
        for x in range(observed.size + 20):
            acc += law.pmf(x)
            if acc * xs.size >= 5:
                edges.append((lo, x))
                exp_p.append(acc)
                lo, acc = x + 1, 0.0
        exp_p.append(1 - sum(exp_p))
        edges.append((lo, None))
        obs = []
        for a, b in edges:
            if b is None:
                obs.append(np.sum(observed[a:]) + (xs >= observed.size).sum())
            else:
                obs.append(np.sum(observed[a : b + 1]))
        chi2, p = stats.chisquare(obs, np.array(exp_p) * xs.size)
        assert p > 0.01


class TestMatchedNull:
    @staticmethod
    def reference(classes, horizon, seed):
        """The null as a matrix, pooled: word i is the box-allocation twin of
        the i-th lowest row of ``classes``."""
        null = box_null([k for _, k in sorted((r, e.k) for e in classes for r in e.rows.tolist())], horizon, seed)
        index = build_ensembles(null)
        return pool_rescaled([index[k] for k in index.ks()], null)

    @pytest.mark.parametrize("horizon, ks", [
        # k=1 and k=2 words put values past the window's right edge
        (214, [1500, 2, 1000, 1, 1500, 214, 2, 1000, 1500, 1, 214, 1000]),
        # three days: a word with one event on every day has zero spread
        (3, [6, 3, 9, 3, 6, 3, 3, 9, 6, 3, 3, 6]),
    ])
    def test_equals_pooled_matrix_of_draws(self, monkeypatch, horizon, ks):
        m = build_matrix({f"w{i:02d}": {0: k} for i, k in enumerate(ks)}, horizon)
        classes = in_range(m, 1, max(ks))  # class order is k order, not row order
        expected = self.reference(classes, horizon, seed=5)
        assert expected.word_count > 0 and expected.skipped_words + expected.clipped_count > 0
        # the module's block size, one word per block, then blocks that split classes
        for cells in (dense.BLOCK_CELLS, horizon, 3 * horizon + 1):
            monkeypatch.setattr(dense, "BLOCK_CELLS", cells)
            null = matched_poisson_null(classes, horizon, seed=5)
            assert np.array_equal(null.bin_edges, expected.bin_edges)
            assert np.array_equal(null.density, expected.density)
            assert (null.word_count, null.skipped_words, null.clipped_count) == (
                expected.word_count, expected.skipped_words, expected.clipped_count)

    def test_peak_memory_is_below_a_null_matrix(self):
        import tracemalloc

        horizon = 214
        m = box_null([1500] * 3000, horizon, seed=7)  # a matched null's cells take as many bytes
        classes = in_range(m, 1000, 2000)
        matched_poisson_null(classes, horizon, seed=8)  # lazy imports happen outside the traced run
        tracemalloc.start()
        try:
            null = matched_poisson_null(classes, horizon, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert null.word_count == 3000
        assert peak < 12 * m.days.size / 2  # half the matrix in the 12-byte cell of an int32 day and an int64 count


class TestSigmaScaling:
    def build_null_by_k(self, ks, n_words, seed):
        return union([box_null([k] * n_words, 214, seed + i, prefix=f"n{i}_") for i, k in enumerate(ks)])

    def test_null_exponents(self):
        m = self.build_null_by_k([100, 300, 1000, 3000], 80, seed=21)
        table = sigma_scaling(build_ensembles(m), m)
        assert table.exponent_rel == pytest.approx(-0.5, abs=0.05)
        assert table.exponent_abs == pytest.approx(+0.5, abs=0.05)

    def test_doubling_k_shrinks_relative_spread_by_root_two(self):
        m = self.build_null_by_k([200, 400, 2000, 4000], 150, seed=22)
        table = sigma_scaling(build_ensembles(m), m)
        r = {row.k: row.sigma_rel for row in table.rows}
        assert r[400] / r[200] == pytest.approx(1 / np.sqrt(2), rel=0.03)
        assert r[4000] / r[2000] == pytest.approx(1 / np.sqrt(2), rel=0.03)

    def test_needs_a_decade(self):
        m = self.build_null_by_k([100, 200, 300], 20, seed=23)
        with pytest.raises(ValueError):
            sigma_scaling(build_ensembles(m), m)


class TestCsv:
    def test_written_columns(self, tmp_path):
        m = box_null([1200] * 50, 214, seed=32)
        pooled = pool_rescaled(in_range(m, 1000, 2000), m)
        path = tmp_path / "xtilde.csv"
        write_xtilde_csv(path, pooled, pooled)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "xtilde,density_empirical,density_null"
