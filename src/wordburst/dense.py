"""Dense-regime analysis: pooled distributions of occurrences per day.

For frequent words the gap statistics degenerate, so the object of
interest becomes how a word totalling k occurrences spreads them over
the days.  Single words and classes are too thin at large k, hence each
word's daily counts are standardized to

    xt = (x - k/T) / sigma

with sigma the word's own (population) daily standard deviation, and
only the standardized values pooled over a k-range are histogrammed.
A uniform box-allocation generator, pooled as it is drawn, gives the
matched independent-events null.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .ensembles import Ensemble, EnsembleIndex
from .fileio import write_table
from .matrix import WordDayMatrix
from .seeding import substreams

BLOCK_CELLS = 1 << 16  # day counts per dense block (512 kB of int64), whatever the horizon
BIN_WIDTH = 0.25  # bin width of the pooled standardized counts
WINDOW = (-6.0, 10.0)  # binned range of the standardized counts; values outside are clipped


def _standardize(block: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(x - mean)/sigma for each row of a (words x T) count block with
    sigma > 0 (population standard deviation); ``mean`` is a column of one per row."""
    dev = block - mean
    std = np.sqrt(np.mean(dev**2, axis=1))
    return dev[std > 0] / std[std > 0, None]


def _blocks(ks: np.ndarray, horizon: int, block_of):
    """(``block_of(i, j)``, column of k/T) over consecutive words i .. j-1, in order,
    with totals ``ks``: at most BLOCK_CELLS day counts (or one word) per block."""
    step = max(1, BLOCK_CELLS // horizon)
    for i in range(0, ks.size, step):
        yield block_of(i, i + step), (ks[i:i + step] / horizon)[:, None]


def _words(matrix: WordDayMatrix, classes: list[Ensemble]):
    """The arguments of :func:`_blocks` for the words of ``classes`` in order."""
    rows = np.concatenate([np.empty(0, np.intp), *(e.rows for e in classes)])
    ks = np.repeat([e.k for e in classes], [e.n_k for e in classes])
    return ks, matrix.horizon, lambda i, j: matrix.dense_block(rows[i:j])


@dataclass
class RescaledCountDistribution:
    """Pooled standardized daily counts over a k-range, binned for display."""

    bin_edges: np.ndarray
    density: np.ndarray
    word_count: int
    skipped_words: int  # zero-spread words that contributed nothing
    clipped_count: int  # standardized values outside the binning window

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def tail_mass(self, threshold: float) -> float:
        """Integrated density of bins entirely above ``threshold``."""
        widths = np.diff(self.bin_edges)
        sel = self.bin_edges[:-1] >= threshold
        return float(np.sum(self.density[sel] * widths[sel]))


def pool_rescaled(classes: list[Ensemble], matrix: WordDayMatrix) -> RescaledCountDistribution:
    """Pool the standardized daily counts of the words of ``classes`` over WINDOW."""
    return _pool(*_words(matrix, classes))


def _pool(ks: np.ndarray, horizon: int, block_of) -> RescaledCountDistribution:
    """Histogram the standardized day counts of the :func:`_blocks` words on the fixed grid."""
    edges = np.arange(WINDOW[0], WINDOW[1] + BIN_WIDTH / 2, BIN_WIDTH)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    used = 0
    for block, mean in _blocks(ks, horizon, block_of):
        xt = _standardize(block, mean)
        counts += np.histogram(xt, bins=edges)[0]
        used += xt.shape[0]
    total_in = int(counts.sum())
    density = counts / (total_in * BIN_WIDTH) if total_in else np.zeros(edges.size - 1)
    return RescaledCountDistribution(bin_edges=edges, density=density, word_count=used,
                                     skipped_words=ks.size - used, clipped_count=used * horizon - total_in)


def matched_poisson_null(classes: list[Ensemble], horizon: int, seed: int) -> RescaledCountDistribution:
    """Pooled standardized daily counts of a box-allocation twin of each word of ``classes``,
    the i-th lowest row's twin drawn from substream i and pooled without building a matrix."""
    ks = [k for _, k in sorted((r, e.k) for e in classes for r in e.rows.tolist())]
    draws = _box_draws(ks, horizon, seed)
    return _pool(np.array(ks), horizon, lambda i, j: np.stack(list(islice(draws, j - i))))


def _box_draws(ks: list[int], horizon: int, seed: int):
    """Day counts of word i dropping ``ks[i]`` events uniformly into the day boxes, from substream i."""
    p = np.full(horizon, 1.0 / horizon)
    return (rng.multinomial(k, p) for k, rng in zip(ks, substreams(seed, len(ks))))


@dataclass
class SigmaScalingRow:
    k: int
    n_words: int
    sigma_rel: float  # mean of sigma / <x> over the class
    sigma_abs: float  # mean of sigma over the class


@dataclass
class SigmaScalingTable:
    """Relative and absolute spread of daily counts versus k.

    For independent uniform allocation sigma/<x> falls like k**-1/2
    while sigma itself grows like k**+1/2; both exponents are reported
    so either reading of the spread-versus-frequency claim can be
    checked.
    """

    rows: list[SigmaScalingRow]
    exponent_rel: float
    exponent_abs: float


def sigma_scaling(index: EnsembleIndex, matrix: WordDayMatrix) -> SigmaScalingTable:
    """Fit log-log slopes of spread against k over the exact-k classes of ``index``."""
    classes = [index[k] for k in index.ks()]
    stds = [np.sqrt(np.mean((block - mean) ** 2, axis=1)) for block, mean in _blocks(*_words(matrix, classes))]
    per_word = np.concatenate([np.empty(0), *stds])
    rows = []
    for ens, std in zip(classes, np.split(per_word, np.cumsum([e.n_k for e in classes])[:-1])):
        mean = ens.k / matrix.horizon
        std = std[std > 0]
        if std.size:
            rows.append(SigmaScalingRow(k=ens.k, n_words=int(std.size), sigma_rel=float(np.mean(std / mean)),
                                        sigma_abs=float(np.mean(std))))
    if len(rows) < 3:
        raise ValueError("need >= 3 populated k classes to fit a scaling exponent")
    kk = np.array([r.k for r in rows], dtype=float)
    if kk.max() / kk.min() < 10.0:
        raise ValueError("k values must span at least a decade")
    lk = np.log(kk)
    exponent_rel = float(np.polyfit(lk, np.log([r.sigma_rel for r in rows]), 1)[0])
    exponent_abs = float(np.polyfit(lk, np.log([r.sigma_abs for r in rows]), 1)[0])
    return SigmaScalingTable(rows=rows, exponent_rel=exponent_rel, exponent_abs=exponent_abs)


def write_xtilde_csv(path, empirical: RescaledCountDistribution,
                     null: RescaledCountDistribution) -> None:
    """Write ``xtilde,density_empirical,density_null`` on the shared grid."""
    write_table(path, ["xtilde", "density_empirical", "density_null"],
                zip(empirical.bin_centers, empirical.density, null.density))


def write_sigma_scaling_csv(path, table: SigmaScalingTable) -> None:
    write_table(path, ["k", "n_words", "sigma_rel", "sigma_abs"],
                ((r.k, r.n_words, r.sigma_rel, r.sigma_abs) for r in table.rows))
