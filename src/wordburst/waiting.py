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

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

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


@dataclass
class WaitingTimeDistribution:
    """Normalized gap histogram of one class (k is None for pooled data)."""

    k: int | None
    horizon: int
    f: np.ndarray  # probability of tau = 1 .. the longest gap
    sample_count: int
    counts: np.ndarray  # the integer gap histogram behind f: f = counts / sample_count

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.f.size + 1, dtype=np.int64)

    def mean(self) -> float:
        return float(np.dot(np.arange(1.0, self.horizon), self._padded_f()))

    def second_moment(self) -> float:
        return float(np.dot(np.arange(1.0, self.horizon) ** 2, self._padded_f()))

    def _padded_f(self) -> np.ndarray:
        # f out to tau = horizon-1 with zeros: a dot groups its sum by its length, so the moments keep their bits
        return np.pad(self.f, (0, self.horizon - 1 - self.f.size))


def distribution_from_sample(taus: np.ndarray, horizon: int, k: int | None = None) -> WaitingTimeDistribution:
    taus = np.asarray(taus, dtype=np.int64)
    if taus.size == 0:
        raise EmptySampleError("no waiting times to build a distribution from")
    if taus.min() < 1 or taus.max() > horizon - 1:
        raise ValueError("waiting times must lie in [1, horizon-1]")
    hist = np.bincount(taus)[1:]
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
    # class by class, so the gaps of every sparse word are never held at once
    hist = sum(np.bincount(matrix.gaps(e.rows)[1], minlength=matrix.horizon)[1:] for e in dilute)
    if not hist.any():
        raise EmptySampleError("sparse classes contain no waiting times")
    hist = np.trim_zeros(hist, "b")  # through the longest gap, as a class's histogram
    n = int(hist.sum())
    return WaitingTimeDistribution(k=None, horizon=matrix.horizon, f=hist / n, sample_count=n, counts=hist)


@dataclass
class RiskFunction:
    """Tail sums R(t) = sum_{tau >= t} f(tau) for t = 1 .. the longest gap
    (R is 0 past it)."""

    horizon: int
    values: np.ndarray
    sample_count: int

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.values.size + 1, dtype=np.int64)


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
    # values[t] = R(t+1) = P(tau > t) belongs at t_R of day t; R is 0 past the longest gap
    values = curve.values[1:t_max + 1]
    curve.t_r = np.arange(t_max + 1, dtype=float) * k / dist.horizon
    curve.values = np.concatenate([[1.0], values, np.zeros(t_max - values.size)])
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
        sol = _least_squares(residuals, np.array([np.log(a0), nu0]), max_nfev=200)
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


# The stretched fit's solver: scipy's least_squares(fun, x0, bounds=(_LB, _UB), max_nfev=...), method "trf"
# with a 2-point Jacobian and the exact trust-region solver, ported step for step.  Helpers are named after
# the scipy functions they port and keep scipy's reductions and SVD routine: another form can move a bit.
_LB, _UB = np.array([-30.0, 0.02]), np.array([5.0, 2.0])  # bounds on (log a, nu)
_STRICT = np.nextafter(_LB, _UB), np.nextafter(_UB, _LB)  # make_strictly_feasible(rstep=0) as a clip
_TOL, _EPS = 1e-8, np.finfo(float).eps  # scipy's ftol = xtol = gtol, and the machine epsilon


def _least_squares(fun, x0: np.ndarray, max_nfev: int) -> SimpleNamespace:
    """scipy's ``trf_bounds`` with linear loss and x_scale 1, update_tr_radius and check_termination inlined:
    the same x bits, cost and ``status`` (0 when ``max_nfev`` residual calls ran out, the Jacobian's not counted;
    1 gtol, 2 ftol, 3 xtol, 4 both).  Every start lies farther inside the bounds than scipy's 1e-10 margin, and
    the residuals are finite wherever x is (the fit floors the survival), so scipy's handling of others is left out."""
    from scipy.linalg.lapack import dgesdd, dgesdd_lwork  # scipy.linalg.svd's LAPACK routine, called directly
    x, f = x0, fun(x0)
    nfev, m = 1, f.size
    lwork = int(dgesdd_lwork(m + 2, 2, compute_uv=1, full_matrices=0)[0])
    cost = 0.5 * np.dot(f, f)
    jt, g, v, diag_h = _linearize(fun, x, f)
    delta = _norm(x / v**0.5) or 1.0
    alpha, status = 0.0, None
    while True:
        g_norm = np.abs(g * v).max()
        status = 1 if g_norm < _TOL else status
        if status is not None or nfev == max_nfev:
            break
        d = v**0.5  # the step is solved in Coleman-Li's "hat" space, x = d * x_h
        g_h = d * g
        j_augmented = np.vstack([jt.T * d, np.diag(diag_h**0.5)])
        j_h = j_augmented[:m]
        u, s, vt, info = dgesdd(j_augmented, full_matrices=0, lwork=lwork)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        uf = u.T.dot(np.concatenate([f, np.zeros(2)]))
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(m, uf, s, vt.T, delta, alpha)
            step, step_h, predicted_reduction = _select_step(x, j_h, diag_h, g_h, d * p_h, p_h, d, delta, theta)
            x_new = np.clip(x + step, *_STRICT)
            f_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            step_h_norm = _norm(step_h)
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            else:
                ratio = 1 if predicted_reduction == actual_reduction == 0 else 0
            delta_new = 0.25 * step_h_norm if ratio < 0.25 else delta
            if ratio > 0.75 and step_h_norm > 0.95 * delta:
                delta_new = delta * 2.0
            ftol_met = actual_reduction < _TOL * cost and ratio > 0.25
            xtol_met = _norm(step) < _TOL * (_TOL + _norm(x))
            status = [None, 3, 2, 4][2 * ftol_met + xtol_met]
            if status is not None:
                break
            alpha *= delta / delta_new
            delta = delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            jt, g, v, diag_h = _linearize(fun, x, f)
    return SimpleNamespace(x=x, cost=cost, status=0 if status is None else status)


def _norm(v: np.ndarray):
    return np.sqrt(v.dot(v))  # numpy.linalg.norm of a 1-D array, in numpy's own form


def _linearize(fun, x, f):
    """approx_derivative's 2-point Jacobian (transposed), one point per residual call, the gradient, and
    CL_scaling_vector's v (the distance to the bound that -g points at) and diagonal g * dv.  A step is
    sqrt(eps) * max(1, |x_i|) with x_i's sign, reversed if it leaves the bounds, which are far wider."""
    jt = np.empty((2, f.size))
    for i, xi in enumerate(x.tolist()):
        h = _EPS**0.5 * (1.0 if xi >= 0 else -1.0) * max(1.0, abs(xi))
        if xi + h < _LB[i] or xi + h > _UB[i]:
            h = -h
        x1 = x.copy()
        x1[i] = xi + h
        jt[i] = (fun(x1) - f) / ((xi + h) - xi)
    g = jt.dot(f)
    v = np.where(g < 0, _UB - x, np.where(g > 0, x - _LB, 1.0))
    return jt, g, v, g * ((g > 0) * 1.0 - (g < 0))


def _solve_lsq_trust_region(m, uf, s, V, delta, alpha):
    """More's trust-region solution from one SVD, J = U diag(s) V^T; returns (p, alpha)."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = s[-1] > _EPS * m * s[0]
    alpha_lower = 0.0
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= delta:
            return p, 0.0
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    alpha_upper = _norm(suf) / delta
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= delta / _norm(p)
    return p, alpha


def _select_step(x, j_h, diag_h, g_h, p, p_h, d, delta, theta):
    """The best of the trust-region step (pulled back inside the bounds), its reflection off the
    first bound it hits, and the gradient step: ``(step, step_h, predicted reduction)``."""
    if np.all((x + p >= _LB) & (x + p <= _UB)):
        return p, p_h, -_evaluate_quadratic(j_h, g_h, p_h, diag_h)
    p_stride, hits = _step_size_to_bound(x, p)
    r_h = np.where(hits, -p_h, p_h)
    p, p_h = p * p_stride, p_h * p_stride
    # intersect_trust_region: how far the reflected step may go inside the trust region
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    q = -(b + math.copysign(np.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _step_size_to_bound(x + p, d * r_h)
    r_stride = min(to_bound, to_tr)
    r_stride_l, r_stride_u = 0, -1
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    r_value = np.inf
    if r_stride_l <= r_stride_u:
        r_stride, r_value = _minimize_quadratic_1d(j_h, g_h, diag_h, r_h, r_stride_l, r_stride_u, s0=p_h)
        r_h = r_h * r_stride + p_h
    p, p_h = p * theta, p_h * theta
    p_value = _evaluate_quadratic(j_h, g_h, p_h, diag_h)
    ag_h = -g_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, d * ag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(j_h, g_h, diag_h, ag_h, 0,
                                                 theta * to_bound if to_bound < to_tr else to_tr)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r_h * d, r_h, -r_value
    return d * ag_h * ag_stride, ag_h * ag_stride, -ag_value


def _step_size_to_bound(x, s):
    """The least t >= 0 putting x + t*s on a bound, and where each component hits it at t."""
    steps = np.full(2, np.inf)
    moving = s != 0
    with np.errstate(over="ignore"):  # a tiny component of s reaches no bound
        steps[moving] = np.maximum((_LB - x)[moving] / s[moving], (_UB - x)[moving] / s[moving])
    t = np.min(steps)
    return t, (steps == t) & moving


def _minimize_quadratic_1d(j, g, diag, s, lb, ub, s0=None):
    """build_quadratic_1d and minimize_quadratic_1d: the t in [lb, ub] that minimizes the model
    0.5 (s0 + t s)^T (J^T J + diag) (s0 + t s) + g^T (s0 + t s), and the model there."""
    v = j.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    c = 0
    if s0 is not None:
        u = j.dot(s0)
        b += np.dot(u, v)
        c = 0.5 * np.dot(u, u) + np.dot(g, s0)
        b += np.dot(s0 * diag, s)
        c += 0.5 * np.dot(s0 * diag, s0)
    t = [lb, ub]
    if a != 0 and lb < -0.5 * b / a < ub:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _evaluate_quadratic(j, g, s, diag):
    """The model 0.5 s^T (J^T J + diag) s + g^T s."""
    js = j.dot(s)
    q = np.dot(js, js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


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
