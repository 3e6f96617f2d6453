"""Synthetic corpus generators: determinism, laws, special cases."""
import json

import numpy as np
import pytest
from scipy import stats

from wordburst import stretched
from wordburst.ensembles import build_ensembles
from wordburst.errors import SpecValidationError
from wordburst.matrix import save_matrix
from wordburst.nullmodels import (
    SyntheticCorpusSpec,
    generate,
    generate_heterogeneous,
    generate_poisson,
    generate_stretched_renewal,
)
from wordburst.waiting import aggregate_distribution, zeta


def poisson_spec(**kw):
    base = dict(process="poisson", horizon=214, n_words=1000, seed=1, rate=0.2)
    return SyntheticCorpusSpec(**{**base, **kw})


class TestSpecValidation:
    def test_json_round_trip(self):
        spec = SyntheticCorpusSpec(
            process="heterogeneous-poisson", horizon=214, n_words=10, seed=3,
            rate_distribution="two-point", tau_values=(1.0, 10.0), weights=(0.5, 0.5),
        )
        again = SyntheticCorpusSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec

    def test_unknown_fields_listed(self):
        with pytest.raises(SpecValidationError) as err:
            SyntheticCorpusSpec.from_json('{"process": "poisson", "horizon": 214, '
                                          '"n_words": 5, "seed": 0, "rate": 1.0, "bogus": 3}')
        assert "bogus" in err.value.fields

    def test_missing_rate_listed(self):
        with pytest.raises(SpecValidationError) as err:
            SyntheticCorpusSpec.from_json('{"process": "poisson", "horizon": 214, '
                                          '"n_words": 5, "seed": 0}')
        assert err.value.fields == ["rate"]

    def test_nonpositive_tau_min_rejected(self):
        spec = SyntheticCorpusSpec(
            process="heterogeneous-poisson", horizon=100, n_words=5, seed=0,
            rate_distribution="log-uniform", tau_min=0.0, tau_max=10.0,
        )
        with pytest.raises(SpecValidationError) as err:
            spec.validate()
        assert "tau_min" in err.value.fields

    def test_bad_process_and_horizon(self):
        with pytest.raises(SpecValidationError) as err:
            SyntheticCorpusSpec(process="weird", horizon=1, n_words=0, seed=0).validate()
        assert {"process", "horizon", "n_words"} <= set(err.value.fields)

    def test_stretched_shape_range(self):
        spec = SyntheticCorpusSpec(process="stretched-renewal", horizon=100,
                                   n_words=5, seed=0, a=0.1, nu=2.5)
        with pytest.raises(SpecValidationError) as err:
            spec.validate()
        assert err.value.fields == ["nu"]


class TestDeterminism:
    def test_identical_spec_identical_matrix(self):
        a = generate(poisson_spec())
        b = generate(poisson_spec())
        assert a == b

    def test_serialized_output_identical(self, tmp_path):
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_matrix(generate(poisson_spec()), pa)
        save_matrix(generate(poisson_spec()), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_output(self):
        assert generate(poisson_spec()) != generate(poisson_spec(seed=2))

    def test_word_order_independent(self):
        # substreams are keyed by word index, not by generation order
        m = generate(poisson_spec(n_words=50))
        m2 = generate(poisson_spec(n_words=60))
        shared = set(m.words) & set(m2.words)
        assert shared
        assert all(m.series(w) == m2.series(w) for w in shared)


class TestPoisson:
    def test_mean_total_near_rate_times_horizon(self):
        m = generate_poisson(poisson_spec(n_words=10_000))
        totals = [m.total(w) for w in m.words]
        # absent words are exponentially unlikely at this rate
        assert len(totals) == 10_000
        assert np.mean(totals) == pytest.approx(0.2 * 214, rel=0.05)
        # the bulk of the vocabulary lands in classes near rate * horizon
        index = build_ensembles(m)
        modal_k = max(index.ks(), key=lambda k: index[k].n_k)
        assert 35 <= modal_k <= 50

    def test_vanishing_rate_leaves_words_absent(self):
        m = generate_poisson(poisson_spec(rate=1e-4, n_words=2000, seed=5))
        assert m.vocabulary_size < 100

    def test_pooled_dispersion_matches_memoryless_value(self):
        m = generate_poisson(poisson_spec(rate=0.07, n_words=4000, seed=6))
        dist = aggregate_distribution(build_ensembles(m), m)
        assert dist.sample_count > 40_000
        assert zeta(dist).zeta == pytest.approx(2.0, abs=0.15)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 5.0])
    def test_day_counts_pass_poisson_gof(self, rate):
        spec = poisson_spec(rate=rate, n_words=1000, seed=int(rate * 10) + 7)
        m = generate_poisson(spec)
        xs = m.dense_block(np.arange(m.vocabulary_size)).ravel()
        zeros_of_absent = (spec.n_words - m.vocabulary_size) * spec.horizon
        observed = np.bincount(xs)
        observed[0] += zeros_of_absent
        n = xs.size + zeros_of_absent
        law = stats.poisson(rate)
        cells_obs, cells_exp = [], []
        lo, acc = 0, 0.0
        for x in range(observed.size + 30):
            acc += law.pmf(x)
            if acc * n >= 5:
                cells_obs.append(observed[lo : x + 1].sum() if lo < observed.size else 0)
                cells_exp.append(acc * n)
                lo, acc = x + 1, 0.0
        cells_obs.append(observed[lo:].sum() if lo < observed.size else 0)
        cells_exp.append(max(n - sum(cells_exp), 1e-9))
        chi2, p = stats.chisquare(cells_obs, np.array(cells_exp) * (sum(cells_obs) / sum(cells_exp)))
        assert p > 0.01


class TestHeterogeneous:
    def test_point_mass_matches_plain_poisson_pathwise(self):
        tau_c = 5.0
        plain = generate_poisson(poisson_spec(rate=1 / tau_c, n_words=300, seed=9))
        log_uniform = generate_heterogeneous(SyntheticCorpusSpec(
            process="heterogeneous-poisson", horizon=214, n_words=300, seed=9,
            rate_distribution="log-uniform", tau_min=tau_c, tau_max=tau_c,
        ))
        two_point = generate_heterogeneous(SyntheticCorpusSpec(
            process="heterogeneous-poisson", horizon=214, n_words=300, seed=9,
            rate_distribution="two-point", tau_values=(tau_c, tau_c), weights=(0.5, 0.5),
        ))
        assert log_uniform == plain
        assert two_point == plain

    def test_three_decade_mixture_overpopulates_tail(self):
        m = generate_heterogeneous(SyntheticCorpusSpec(
            process="heterogeneous-poisson", horizon=214, n_words=8000, seed=10,
            rate_distribution="log-uniform", tau_min=1.0, tau_max=1000.0,
        ))
        dist = aggregate_distribution(build_ensembles(m), m)
        taus = np.repeat(dist.support, dist.counts)
        mean = taus.mean()
        assert np.mean(taus > 5 * mean) > 1.5 * np.exp(-5)
        assert zeta(dist).zeta > 2.5

    def test_two_point_mixture_distinguishable_from_memoryless(self):
        m = generate_heterogeneous(SyntheticCorpusSpec(
            process="heterogeneous-poisson", horizon=214, n_words=4000, seed=11,
            rate_distribution="two-point", tau_values=(1.0, 10.0), weights=(0.5, 0.5),
        ))
        dist = aggregate_distribution(build_ensembles(m), m)
        z = zeta(dist).zeta
        # day-resolution analogue of the equal-weight two-scale mixture:
        # weights by expected gap count, geometric moments per scale
        p1, p2 = 1 - np.exp(-1.0), 1 - np.exp(-0.1)
        w1, w2 = 214 * p1 - 1, 214 * p2 - 1
        m1 = (w1 / p1 + w2 / p2) / (w1 + w2)
        m2 = (w1 * (2 - p1) / p1**2 + w2 * (2 - p2) / p2**2) / (w1 + w2)
        predicted = m2 / m1**2
        assert z == pytest.approx(predicted, rel=0.15)
        assert z > 2.5


class TestStretchedRenewal:
    def spec(self, **kw):
        base = dict(process="stretched-renewal", horizon=30_000, n_words=60,
                    seed=12, a=0.05, nu=0.5)
        return SyntheticCorpusSpec(**{**base, **kw})

    def test_exponential_shape_reduces_to_memoryless(self):
        m = generate_stretched_renewal(self.spec(nu=1.0, a=1 / 15, horizon=10_000, n_words=40))
        dist = aggregate_distribution(build_ensembles(m), m)
        assert zeta(dist).zeta == pytest.approx(2.0, abs=0.1)

    def test_half_shape_moments(self):
        a = 0.05
        m = generate_stretched_renewal(self.spec(a=a, n_words=120, seed=13))
        dist = aggregate_distribution(build_ensembles(m), m)
        z = zeta(dist)
        assert z.sample_count > 20_000
        assert z.mean_tau == pytest.approx(6 / a, rel=0.05)
        assert z.second_moment == pytest.approx(120 / a**2, rel=0.10)
        assert z.zeta == pytest.approx(10 / 3, abs=0.15)

    def test_sampler_ks_against_analytic_survival(self):
        a, nu, n = 0.1, 0.5, 10_000
        rng = np.random.default_rng(14)
        sample = stretched.sample(rng, n, a, nu)
        result = stats.kstest(sample, lambda t: 1 - stretched.survival(t, a, nu))
        assert result.statistic < 1.63 / np.sqrt(n)

    def test_events_respect_horizon(self):
        m = generate_stretched_renewal(self.spec(horizon=500, n_words=30, a=0.2))
        for w in m.words:
            assert max(m.series(w)) < 500


def test_generate_dispatch_validates():
    with pytest.raises(SpecValidationError):
        generate(SyntheticCorpusSpec(process="poisson", horizon=214, n_words=5, seed=0))
