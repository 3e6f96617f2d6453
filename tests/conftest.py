import numpy as np
import pytest

from wordburst.matrix import WordDayMatrix


def build_matrix(counts: dict[str, dict[int, int]], horizon: int) -> WordDayMatrix:
    m = WordDayMatrix.from_mapping(horizon, counts)
    m.validate()
    return m


def burst_matrix(ks, horizon, n_days, seed, name_prefix="bursty") -> WordDayMatrix:
    """Words whose events all land inside ``n_days`` randomly chosen days."""
    rng = np.random.default_rng(seed)
    words = {}
    for i, k in enumerate(ks):
        days = rng.choice(horizon, size=n_days, replace=False)
        counts = rng.multinomial(k, np.full(n_days, 1.0 / n_days))
        words[f"{name_prefix}{i:05d}"] = {
            int(d): int(c) for d, c in zip(days, counts) if c > 0
        }
    return WordDayMatrix.from_mapping(horizon, words)


def union(parts) -> WordDayMatrix:
    """One matrix holding the words of ``parts``, matrices over one horizon
    with disjoint vocabularies."""
    return WordDayMatrix.from_mapping(parts[0].horizon, {w: m.series(w) for m in parts for w in m.words})


def exhaust_least_squares(monkeypatch) -> None:
    """Make every run of the stretched fit's solver, ``waiting._least_squares``,
    report an exhausted budget (status 0) while returning the real solver's result."""
    from wordburst import waiting
    real = waiting._least_squares

    def exhausted(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.status = 0
        return sol

    monkeypatch.setattr(waiting, "_least_squares", exhausted)


@pytest.fixture
def tiny_matrix() -> WordDayMatrix:
    return build_matrix(
        {
            "cat": {0: 2, 3: 1, 7: 1, 8: 1},
            "hat": {1: 1, 5: 2},
            "the": {0: 3, 1: 2, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 2, 8: 1, 9: 1},
        },
        horizon=10,
    )
