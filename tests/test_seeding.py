"""Block-derived random streams against numpy's own SeedSequence derivation."""
import numpy as np
import pytest

from wordburst import dense, nullmodels
from wordburst.nullmodels import SyntheticCorpusSpec, generate
from wordburst.seeding import BLOCK, EVENT_CHANNEL, MAX_INDEX, PARAM_CHANNEL, _pcg64_states, substream, substreams

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
    with pytest.raises(ValueError):
        next(substreams(-1, 3))
    with pytest.raises(ValueError):
        next(substreams(0, MAX_INDEX + 2))


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


def test_box_allocation_matches_per_word_streams(monkeypatch):
    blocked = dense.poisson_null_ensemble(7, 30, BLOCK + 5, seed=3)
    monkeypatch.setattr(dense, "substreams", per_word_substreams)
    assert blocked == dense.poisson_null_ensemble(7, 30, BLOCK + 5, seed=3)
