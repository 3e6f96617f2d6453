"""Frequency classes: words grouped by their total occurrence count.

Words with the same total count k over the horizon are treated as
statistically equivalent; the classes partition the vocabulary.  Classes
with k below the horizon belong to the sparse regime where waiting-time
statistics apply, large-k classes to the dense regime where daily-count
statistics apply.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_table
from .matrix import WordDayMatrix


@dataclass(frozen=True, eq=False)
class Ensemble:
    """All words occurring exactly ``k`` times over the horizon."""

    k: int
    rows: np.ndarray  # their matrix rows, ascending and read-only

    @property
    def n_k(self) -> int:
        return len(self.rows)


@dataclass
class EnsembleIndex:
    by_k: dict[int, Ensemble]
    horizon: int

    def __getitem__(self, k: int) -> Ensemble:
        return self.by_k[k]

    def __contains__(self, k: int) -> bool:
        return k in self.by_k

    def ks(self) -> list[int]:
        return sorted(self.by_k)


def build_ensembles(matrix: WordDayMatrix) -> EnsembleIndex:
    """Partition the vocabulary by exact total count."""
    totals = matrix.totals()
    order = np.argsort(totals, kind="stable")  # rows stay ascending within a class
    order.flags.writeable = False
    ks, starts = np.unique(totals[order], return_index=True)
    ends = np.append(starts[1:], order.size)
    by_k = {int(k): Ensemble(k=int(k), rows=order[a:b]) for k, a, b in zip(ks, starts, ends)}
    return EnsembleIndex(by_k=by_k, horizon=matrix.horizon)


def select_dilute(index: EnsembleIndex) -> list[Ensemble]:
    """Classes averaging less than one occurrence per day (k < horizon)."""
    return [index.by_k[k] for k in index.ks() if k < index.horizon]


def select_dense(index: EnsembleIndex, k_lo: int, k_hi: int) -> list[Ensemble]:
    """Classes with k in the inclusive range [k_lo, k_hi]."""
    if k_lo > k_hi:
        raise ValueError(f"empty range: k_lo {k_lo} > k_hi {k_hi}")
    return [index.by_k[k] for k in index.ks() if k_lo <= k <= k_hi]


def write_spectrum_csv(index: EnsembleIndex, path) -> None:
    """Dump the class-size spectrum as ``k,n_k`` rows."""
    write_table(path, ["k", "n_k"], ((k, index.by_k[k].n_k) for k in index.ks()))
