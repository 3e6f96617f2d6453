"""Block-derived random streams against numpy's own SeedSequence derivation."""
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from wordburst import dense, nullmodels, seeding
from wordburst.matrix import WordDayMatrix
from wordburst.nullmodels import SyntheticCorpusSpec, generate, tau_c_draws
from wordburst.seeding import (
    BLOCK,
    EVENT_CHANNEL,
    MAX_INDEX,
    PARAM_CHANNEL,
    _pcg64_states,
    first_doubles,
    substream,
    substreams,
)

from conftest import box_null

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9]  # the last has more entropy words than the pool


def reference_state(seed, index, channel):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index, channel))).state


@pytest.mark.parametrize("channel", [EVENT_CHANNEL, PARAM_CHANNEL])
@pytest.mark.parametrize("seed", SEEDS)
def test_states_match_seed_sequence(seed, channel):
    count = BLOCK + 3
    states = [rng.bit_generator.state for rng in substreams(seed, count, channel)]
    assert len(states) == count
    assert states == [reference_state(seed, i, channel) for i in range(count)]
    # the last index a 32-bit entropy word can hold
    (state, inc), = _pcg64_states(seed, np.array([MAX_INDEX]), channel)
    assert {"state": state, "inc": inc} == reference_state(seed, MAX_INDEX, channel)["state"]


def test_rejected_arguments():
    for seed, count in [(-1, 3), (0, MAX_INDEX + 2)]:
        with pytest.raises(ValueError) as expected:
            next(substreams(seed, count))
        with pytest.raises(ValueError) as err:  # the array pass refuses what the generators refuse
            next(first_doubles(seed, count, PARAM_CHANNEL))
        assert str(err.value) == str(expected.value)


def per_word_substreams(seed, count, channel=EVENT_CHANNEL):
    return (substream(seed, i, channel) for i in range(count))


@pytest.mark.parametrize("fields", [
    dict(process="poisson", rate=0.05),
    dict(process="heterogeneous-poisson", rate_distribution="log-uniform", tau_min=0.5, tau_max=200.0),
    dict(process="heterogeneous-poisson", rate_distribution="two-point", tau_values=(2.0, 40.0), weights=(0.3, 0.7)),
    dict(process="stretched-renewal", a=0.2, nu=0.5),
])
def test_generate_matches_per_word_streams(monkeypatch, fields):
    spec = SyntheticCorpusSpec(horizon=60, n_words=BLOCK + 5, seed=11, **fields)
    blocked = generate(spec)
    monkeypatch.setattr(nullmodels, "substreams", per_word_substreams)
    assert blocked == generate(spec)
    assert len(blocked.words) > BLOCK // 2


def test_box_allocation_matches_per_word_streams():
    ks = [1 + i % 9 for i in range(BLOCK + 5)]
    blocked = np.stack(list(dense._box_draws(ks, 30, seed=3)))
    assert np.array_equal(blocked, box_null(ks, 30, seed=3).dense_block(range(len(ks))))


@pytest.mark.parametrize("channel", [EVENT_CHANNEL, PARAM_CHANNEL])
@pytest.mark.parametrize("seed", SEEDS)
def test_first_doubles_match_generator_random(monkeypatch, seed, channel):
    count = BLOCK + 3
    blocks = list(first_doubles(seed, count, channel))
    assert [b.size for b in blocks] == [BLOCK, 3] and all(b.dtype == np.float64 for b in blocks)
    assert np.concatenate(blocks).tolist() == [substream(seed, i, channel).random() for i in range(count)]
    # the last index: its one-stream block, stepped and read as the full-size pass does
    monkeypatch.setattr(seeding, "_state_blocks", lambda seed, count, channel: iter(
        [_pcg64_states(seed, np.array([MAX_INDEX]), channel)]))
    (u,), = first_doubles(seed, 1, channel)
    assert u == substream(seed, MAX_INDEX, channel).random()


def heterogeneous_spec(seed, n_words, **law):
    return SyntheticCorpusSpec(process="heterogeneous-poisson", horizon=60, n_words=n_words, seed=seed, **law)


LAWS = [
    dict(rate_distribution="log-uniform", tau_min=0.05, tau_max=2000.0),
    dict(rate_distribution="log-uniform", tau_min=3, tau_max=7),  # integers, as a JSON spec may give them
    dict(rate_distribution="two-point", tau_values=(2.0, 40.0), weights=(0.3, 0.7)),
    dict(rate_distribution="two-point", tau_values=(2.0, 40.0), weights=(0.25, 0.7500000005)),  # normalised
    dict(rate_distribution="two-point", tau_values=(2.0, 40.0), weights=(0.0, 1.0)),
    dict(rate_distribution="two-point", tau_values=(2.0, 40.0), weights=(1.0, 0.0)),
]


def per_word_tau_c(spec, index):
    """tau_c as a per-word Generator on the parameter stream draws it."""
    rng = substream(spec.seed, index, PARAM_CHANNEL)
    if spec.rate_distribution == "log-uniform":
        return float(np.exp(rng.uniform(np.log(spec.tau_min), np.log(spec.tau_max))))
    return float(np.asarray(spec.tau_values, dtype=float)[rng.choice(2, p=spec.weights)])


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("seed", SEEDS)
def test_tau_c_draws_match_per_word_generators(seed, law):
    spec = heterogeneous_spec(seed, BLOCK + 3, **law)
    spec.validate()
    draws = list(tau_c_draws(spec))
    assert all(type(t) is float for t in draws)
    assert draws == [per_word_tau_c(spec, i) for i in range(spec.n_words)]


def test_two_point_boundary_is_choice_normalised_cdf(monkeypatch):
    # a double at or past w0 / (w0 + w1) picks the second value, as Generator.choice's
    # searchsorted(side="right") on its normalised cdf does; draws rarely land this close
    spec = heterogeneous_spec(0, 4, rate_distribution="two-point", tau_values=(2.0, 40.0), weights=(0.25, 0.7500000005))
    edge = 0.25 / (0.25 + 0.7500000005)
    monkeypatch.setattr(nullmodels, "first_doubles", lambda seed, count, channel: iter(
        [np.array([np.nextafter(edge, 0), edge, 0.25, np.nextafter(1, 0)])]))
    assert list(tau_c_draws(spec)) == [2.0, 40.0, 40.0, 40.0]


def test_point_mass_tau_c_draws_nothing(monkeypatch):
    monkeypatch.setattr(nullmodels, "first_doubles", None)  # a draw would fail
    spec = heterogeneous_spec(5, BLOCK + 3, rate_distribution="log-uniform", tau_min=4.5, tau_max=4.5)
    assert list(tau_c_draws(spec)) == [4.5] * (BLOCK + 3)


@pytest.mark.parametrize("law", [LAWS[0], LAWS[2]])
def test_heterogeneous_generate_matches_per_word_oracle(law):
    spec = heterogeneous_spec(11, BLOCK + 5, **law)
    width = max(6, len(str(spec.n_words - 1)))
    oracle = WordDayMatrix.from_day_vectors(spec.horizon, (
        (f"w{i:0{width}d}", substream(spec.seed, i).poisson(1.0 / per_word_tau_c(spec, i), spec.horizon))
        for i in range(spec.n_words)))
    assert generate(spec) == oracle
    assert len(oracle.words) > BLOCK // 2


@pytest.mark.parametrize("law", [LAWS[0], LAWS[2]])
def test_tau_c_stream_holds_no_value_per_word(law):
    spec = heterogeneous_spec(3, MAX_INDEX + 1, **law)
    spec.validate()
    next(tau_c_draws(spec))  # one-time numpy allocations happen outside the traced run
    tracemalloc.start()
    try:
        tau_c = next(islice(tau_c_draws(spec), 3 * BLOCK, None))  # the fourth block's first value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau_c == per_word_tau_c(spec, 3 * BLOCK)
    assert peak < 2**20  # one double per word would be 32 GiB
