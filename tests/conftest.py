import numpy as np
import pytest

from wordburst.matrix import WordDayMatrix
from wordburst.seeding import substream


def build_matrix(counts: dict[str, dict[int, int]], horizon: int) -> WordDayMatrix:
    """The matrix of ``{word: {day: count}}``, built from (row, day)-sorted cells as ``bin_daily`` builds one."""
    words = sorted(counts)
    cells = sorted((r, d, c) for r, w in enumerate(words) for d, c in counts[w].items())
    return WordDayMatrix.from_sorted_cells(horizon, words, *np.array(cells, np.int64).reshape(-1, 3).T)


def series(m: WordDayMatrix, word: str) -> dict[int, int]:
    """``{day: count}`` of one word, read straight from its row's cells."""
    r = m.words.index(word)
    a, b = m.indptr[r], m.indptr[r + 1]
    return dict(zip(m.days[a:b].tolist(), m.counts[a:b].tolist()))


def box_null(ks, horizon, seed, prefix="") -> WordDayMatrix:
    """The box-allocation Poisson null: word i drops its ``ks[i]`` events
    uniformly into the day boxes, drawn from ``substream(seed, i)``."""
    p = np.full(horizon, 1.0 / horizon)
    return WordDayMatrix.from_day_vectors(horizon, ((f"{prefix}{i:06d}", substream(seed, i).multinomial(k, p))
                                                    for i, k in enumerate(ks)))


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
    return build_matrix(words, horizon)


def union(parts) -> WordDayMatrix:
    """One matrix holding the words of ``parts``, matrices over one horizon
    with disjoint vocabularies."""
    return build_matrix({w: series(m, w) for m in parts for w in m.words}, parts[0].horizon)


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
