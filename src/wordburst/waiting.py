"""Sparse-regime analysis: waiting times between the days a word occurs.

For one word the event-days are the days with at least one containing
post; the waiting times are the integer day gaps between consecutive
event-days (>= 1, open intervals at both horizon ends discarded).  Class
statistics pool the gaps of every word in a frequency class.

Day binning fixes the survival convention used throughout: for an
integer-valued gap, the empirical exclusive survival P(tau > t) at
integer t is the right-continuous counterpart of a continuous survival
S(t).  Concretely, a daily-thinned Poisson process of rate r has gap law
P(tau > t) = exp(-r*t) exactly, so model comparisons and fits anchor
S(t) to P(tau > t), i.e. to R(t+1) in terms of the inclusive risk
R(t) = P(tau >= t).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import stretched
from .ensembles import Ensemble, EnsembleIndex, select_dilute
from .errors import EmptySampleError, FitDidNotConverge
from .fileio import write_table
from .matrix import WordDayMatrix
from .seeding import substream

RISK_FLOOR = 1e-4  # risk points at or below this are left out of the stretched fit
T_R_MAX = 3.0  # rescaled-time cut of the collapse curves
BOOT_BLOCK_PICKS = 1 << 20  # words drawn per block of zeta resamples: 8 MB of indices


def waiting_times(series: Mapping[int, int], horizon: int) -> np.ndarray:
    """Day gaps between consecutive event-days of one word.

    ``series`` maps day index to a positive post count; multiplicity
    within a day is ignored.  A word with fewer than two event-days
    yields an empty sample.
    """
    return WordDayMatrix.from_mapping(horizon, {"": series}).gaps([0])[1]


@dataclass
class WaitingTimeDistribution:
    """Normalized gap histogram of one class (k is None for pooled data)."""

    k: int | None
    horizon: int
    f: np.ndarray  # probability of tau = 1 .. horizon-1
    sample_count: int
    counts: np.ndarray  # the integer gap histogram behind f: f = counts / sample_count

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.horizon, dtype=np.int64)

    def mean(self) -> float:
        return float(np.dot(self.support, self.f))

    def second_moment(self) -> float:
        return float(np.dot(self.support.astype(float) ** 2, self.f))


def distribution_from_sample(taus: np.ndarray, horizon: int, k: int | None = None) -> WaitingTimeDistribution:
    taus = np.asarray(taus, dtype=np.int64)
    if taus.size == 0:
        raise EmptySampleError("no waiting times to build a distribution from")
    if taus.min() < 1 or taus.max() > horizon - 1:
        raise ValueError("waiting times must lie in [1, horizon-1]")
    hist = np.bincount(taus, minlength=horizon)[1:horizon]
    f = hist / hist.sum()
    return WaitingTimeDistribution(k=k, horizon=horizon, f=f, sample_count=int(taus.size), counts=hist)


def ensemble_distribution(ensemble: Ensemble, matrix: WordDayMatrix) -> WaitingTimeDistribution:
    """Pooled waiting-time distribution of one frequency class."""
    if ensemble.k >= matrix.horizon:
        raise ValueError(f"class k={ensemble.k} is not sparse for horizon {matrix.horizon}")
    taus = matrix.gaps(ensemble.rows)[1]
    if taus.size == 0:
        raise EmptySampleError(f"class k={ensemble.k} has no waiting times")
    return distribution_from_sample(taus, matrix.horizon, k=ensemble.k)


def aggregate_distribution(index: EnsembleIndex, matrix: WordDayMatrix) -> WaitingTimeDistribution:
    """Pool waiting times across all sparse classes without rescaling.

    Deliberately mixes heterogeneous rates: the resulting tail is fatter
    than any single class's, which is the averaging artifact this
    distribution exists to exhibit.
    """
    dilute = select_dilute(index)
    if not dilute:
        raise EmptySampleError("no sparse classes to aggregate")
    taus = matrix.gaps(np.concatenate([e.rows for e in dilute]))[1]
    if taus.size == 0:
        raise EmptySampleError("sparse classes contain no waiting times")
    return distribution_from_sample(taus, matrix.horizon, k=None)


@dataclass
class RiskFunction:
    """Tail sums R(t) = sum_{tau >= t} f(tau) for t = 1 .. horizon-1."""

    horizon: int
    values: np.ndarray
    sample_count: int

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.horizon, dtype=np.int64)


def risk_function(dist: WaitingTimeDistribution) -> RiskFunction:
    values = dist.f[::-1].cumsum()[::-1]
    return RiskFunction(horizon=dist.horizon, values=values, sample_count=dist.sample_count)


@dataclass
class RescaledRiskCurve:
    """Risk or survival values of class ``k`` over t_R = t * k / horizon."""

    k: int
    t_r: np.ndarray
    values: np.ndarray


def rescale_time(risk: RiskFunction, k: int) -> RescaledRiskCurve:
    """Map the support t -> t * k / horizon so classes share one clock."""
    if k < 1:
        raise ValueError("k must be >= 1")
    t_r = risk.support.astype(float) * k / risk.horizon
    return RescaledRiskCurve(k=k, t_r=t_r, values=risk.values.copy())


def rescaled_survival(dist: WaitingTimeDistribution, k: int | None = None) -> RescaledRiskCurve:
    """Exclusive survival P(tau > t) at t_R = t * k / horizon, anchored at
    (0, 1) and cut at T_R_MAX: the curve used for collapse checks."""
    k = dist.k if k is None else k
    if k is None:
        raise ValueError("a positive k is required to rescale")
    curve = rescale_time(risk_function(dist), k)
    scale = k / dist.horizon
    t_max = min(int(np.floor(T_R_MAX / scale)), dist.horizon - 2)
    # values[t] = R(t+1) = P(tau > t) belongs at t_R of day t, which is t_r[t-1]
    curve.t_r = np.concatenate([[0.0], curve.t_r[:t_max]])
    curve.values = np.concatenate([[1.0], curve.values[1:t_max + 1]])
    return curve


def max_exponential_deviation(curve: RescaledRiskCurve) -> float:
    """Sup distance between the curve and exp(-t_R) at its support points."""
    return float(np.max(np.abs(curve.values - np.exp(-curve.t_r))))


def max_pairwise_deviation(curves: Sequence[RescaledRiskCurve]) -> float:
    """Largest sup distance between any two curves on a common t_R grid.

    Curves are interpolated log-linearly (exact for exponential-shaped
    survivals) onto the grid before comparison.
    """
    grid = np.arange(0.0, T_R_MAX + 0.025, 0.05)  # step 0.05, T_R_MAX included
    interped = []
    for c in curves:
        mask = c.values > 0
        interped.append(np.exp(np.interp(grid, c.t_r[mask], np.log(c.values[mask]))))
    worst = 0.0
    for i in range(len(interped)):
        for j in range(i + 1, len(interped)):
            worst = max(worst, float(np.max(np.abs(interped[i] - interped[j]))))
    return worst


@dataclass
class StretchedExpFit:
    """Fitted parameters of the stretched-exponential gap law."""

    a: float
    nu: float
    C: float
    residual: float
    n_points: int


def fit_stretched_exponential(risk: RiskFunction) -> StretchedExpFit:
    """Fit the continuous survival S(t) to the empirical risk function.

    Least squares on log R over support points with R above RISK_FLOOR,
    weighted by the binomial precision of each point,
    sqrt(n R / (1 - R)), from five starts nu0 in {0.3, 0.5, 0.7, 1, 1.5}
    of at most 200 evaluations each.  The model is evaluated at t-1 so
    that its exclusive-survival convention matches the empirical one
    (exact for daily-thinned Poisson data).  The normalization C follows
    from (a, nu).  Raises :class:`FitDidNotConverge` (carrying the best
    iterate) if no start converges.
    """
    from scipy import optimize
    n = risk.sample_count
    R = risk.values
    ts = risk.support.astype(float)
    mask = (R > RISK_FLOOR) & (R < 1.0 - 0.5 / max(n, 1))
    if mask.sum() < 10:
        raise EmptySampleError(f"need >= 10 usable risk points above {RISK_FLOOR}, got {int(mask.sum())}")
    ts, R = ts[mask], R[mask]
    log_r = np.log(R)
    weights = np.sqrt(n * R / (1.0 - R))
    weights /= weights.max()

    def residuals(x):
        a, nu = np.exp(x[0]), x[1]
        s = stretched.survival(ts - 1.0, a, nu)
        return weights * (np.log(np.maximum(s, 1e-300)) - log_r)

    a0 = 1.0 / max(float(np.interp(np.exp(-1.0), R[::-1], ts[::-1])), 1.0)
    best = None
    converged = False
    for nu0 in (0.3, 0.5, 0.7, 1.0, 1.5):
        sol = optimize.least_squares(
            residuals, x0=[np.log(a0), nu0],
            bounds=([-30.0, 0.02], [5.0, 2.0]), max_nfev=200,
        )
        if best is None or sol.cost < best.cost:
            best = sol
        converged = converged or sol.status > 0
    a, nu = float(np.exp(best.x[0])), float(best.x[1])
    plain = np.log(np.maximum(stretched.survival(ts - 1.0, a, nu), 1e-300)) - log_r
    fit = StretchedExpFit(
        a=a, nu=nu, C=stretched.normalization(a, nu),
        residual=float(np.sqrt(np.mean(plain**2))), n_points=int(ts.size),
    )
    if not converged:
        raise FitDidNotConverge("no optimizer start converged within its budget", best=fit)
    return fit


@dataclass
class ZetaStat:
    """Dispersion ratio of a waiting-time sample: <tau^2> / <tau>^2.

    2 for exponential gaps, 10/3 for the nu=1/2 stretched law, 1 when
    all gaps are equal; >= 1 always.
    """

    zeta: float
    mean_tau: float
    second_moment: float
    sample_count: int


def zeta(sample_or_dist) -> ZetaStat:
    """Moment ratio of a raw gap sample or of a gap distribution."""
    if isinstance(sample_or_dist, WaitingTimeDistribution):
        d = sample_or_dist
        if d.sample_count < 2:
            raise EmptySampleError("zeta needs at least 2 waiting times")
        m1, m2, count = d.mean(), d.second_moment(), d.sample_count
    else:
        taus = np.asarray(sample_or_dist, dtype=float)
        if taus.size < 2:
            raise EmptySampleError("zeta needs at least 2 waiting times")
        m1, m2, count = float(taus.mean()), float(np.mean(taus**2)), int(taus.size)
    return ZetaStat(zeta=m2 / m1**2, mean_tau=m1, second_moment=m2, sample_count=count)


@dataclass
class MeanWaitingCheck:
    """How far a class mean gap sits from the horizon/k prediction."""

    k: int
    mean_tau: float
    expected: float
    deviation: float  # |<tau> - T/k| * k / T
    sample_count: int
    low_sample: bool


def mean_waiting_check(dist: WaitingTimeDistribution, k: int | None = None) -> MeanWaitingCheck:
    k = dist.k if k is None else k
    if k is None or k < 1:
        raise ValueError("a positive k is required")
    expected = dist.horizon / k
    mean_tau = dist.mean()
    return MeanWaitingCheck(
        k=k, mean_tau=mean_tau, expected=expected,
        deviation=abs(mean_tau - expected) / expected,
        sample_count=dist.sample_count,
        low_sample=dist.sample_count < 10,
    )


@dataclass
class ZetaRow:
    k: int
    zeta: float
    zeta_err: float
    n_k: int
    sample_count: int


def zeta_by_ensemble(classes: list[Ensemble], matrix: WordDayMatrix,
                     n_boot: int = 200, seed: int = 0) -> list[ZetaRow]:
    """Dispersion ratio of each of ``classes`` with a bootstrap error over words.

    Words are resampled with replacement within each class (``n_boot``
    resamples, one deterministic substream per class).
    """
    rows = []
    for ens in classes:
        k = ens.k
        n, taus = matrix.gaps(ens.rows)
        if taus.size < 2:
            continue
        z = zeta(taus)
        err = 0.0
        # per-word sufficient statistics (n, sum tau, sum tau^2) of the words
        # with gaps; integer-valued sums below 2**53 are exact in float64, so
        # a resample's ratio equals the one computed from its concatenated gaps
        word = np.repeat(np.arange(n.size), n)
        sums = np.stack([n, np.bincount(word, taus, n.size), np.bincount(word, taus**2, n.size)])[:, n > 0]
        n_words = sums.shape[1]
        if n_words > 1 and n_boot > 0:
            rng = substream(seed, k)
            zs = []
            block = max(1, BOOT_BLOCK_PICKS // n_words)  # resamples per draw, same picks as one by one
            for start in range(0, n_boot, block):
                pick = rng.integers(0, n_words, size=(min(block, n_boot - start), n_words))
                count, s1, s2 = (s[pick].sum(axis=1).tolist() for s in sums)
                zs += [(b / c) / (a / c) ** 2 for c, a, b in zip(count, s1, s2)]  # count >= n_words >= 2
            err = float(np.std(zs))
        rows.append(ZetaRow(k=k, zeta=z.zeta, zeta_err=err, n_k=ens.n_k, sample_count=z.sample_count))
    return rows


def log_binned_density(taus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Histogram a gap sample into logarithmic bins (edges 1.25**i) for display.

    Returns (lower, upper, center, density) arrays with empty bins
    dropped; statistics should always use the unbinned sample.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0:
        raise EmptySampleError("nothing to bin")
    n_bins = int(np.ceil(np.log(taus.max() + 1) / np.log(1.25))) + 1
    edges = np.power(1.25, np.arange(n_bins + 1))
    counts, _ = np.histogram(taus, bins=edges)
    widths = np.diff(edges)
    density = counts / (taus.size * widths)
    keep = counts > 0
    centers = np.sqrt(edges[:-1] * edges[1:])
    return edges[:-1][keep], edges[1:][keep], centers[keep], density[keep]


def risk_rows(dist: WaitingTimeDistribution, risk: RiskFunction):
    """``(tau, f, R)`` for every tau with nonzero probability."""
    return ((tau, f, r) for tau, f, r in zip(dist.support, dist.f, risk.values) if f > 0)


def write_distribution_csv(path, entries: list[tuple[int, WaitingTimeDistribution, RiskFunction]]) -> None:
    """Write ``k,tau,f,R`` rows (tau rows with zero probability omitted)."""
    write_table(path, ["k", "tau", "f", "R"],
                ((k, *row) for k, dist, risk in entries for row in risk_rows(dist, risk)))


def write_zeta_csv(path, rows: list[ZetaRow]) -> None:
    write_table(path, ["k", "zeta", "zeta_err", "n_k"], ((r.k, r.zeta, r.zeta_err, r.n_k) for r in rows))


def write_rescaled_csv(path, curves: list[RescaledRiskCurve]) -> None:
    write_table(path, ["k", "t_R", "R"],
                ((c.k, t_r, v) for c in curves for t_r, v in zip(c.t_r, c.values) if v > 0))
