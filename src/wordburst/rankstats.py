"""Rank-frequency curve and its modified power-law fit.

The observed rank curve bends away from a straight line in log-log
space; it is fitted by

    count(x) = A / (1 + a1 * x**g1 + a2 * x**g2),   g2 > g1 > 0

which interpolates between two power-law regimes.  Plain power-law and
shifted power-law fits are provided as baselines so the improvement is
measurable by residual comparison alone.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, asdict
from types import SimpleNamespace

import numpy as np

from .errors import EmptyCorpusError, FitDidNotConverge
from .matrix import WordDayMatrix

MAX_FIT_POINTS = 500
SIMPLEX_BUDGET = 10_000
OBJECTIVE_TOL = 1e-9

# fixed multi-start corners of (log a1, log a2, g1, dg) space
_STARTS = np.array([
    (np.log(0.5), np.log(1e-3), 0.8, 0.8),
    (np.log(0.1), np.log(1e-4), 0.6, 1.0),
    (np.log(1.0), np.log(1e-5), 1.0, 0.5),
    (np.log(0.01), np.log(1e-6), 0.5, 1.5),
    (np.log(2.0), np.log(1e-2), 1.2, 0.3),
])


@dataclass
class RankCurve:
    """Counts by rank, descending; ties broken by word order."""

    ranks: np.ndarray
    counts: np.ndarray
    words: tuple[str, ...]


def rank_curve(matrix: WordDayMatrix) -> RankCurve:
    """Order the vocabulary by total count (largest first, ties by word)."""
    if matrix.vocabulary_size == 0:
        raise EmptyCorpusError("cannot rank an empty vocabulary")
    totals = matrix.totals()
    order = np.argsort(-totals, kind="stable")  # rows are in word order
    words = tuple(matrix.words[r] for r in order)
    return RankCurve(ranks=np.arange(1, len(words) + 1, dtype=np.int64), counts=totals[order], words=words)


@dataclass
class ModifiedPowerLawFit:
    A: float
    a1: float
    a2: float
    gamma1: float
    gamma2: float
    residual: float  # rms error in log space over the fitted points
    degenerate: bool = False

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.A / _denom(x, self.a1, self.a2, self.gamma1, self.gamma2)


@dataclass
class BaselineFit:
    """Power-law count = A * x**-lam, or shifted: A / (1 + a*x)**nu."""

    A: float
    lam: float | None
    a: float | None
    nu: float | None
    residual: float


def _denom(x, a1, a2, g1, g2):
    return 1.0 + a1 * np.power(x, g1) + a2 * np.power(x, g2)


def _log_curve(curve: RankCurve) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, log counts)`` at no more than MAX_FIT_POINTS log-spaced
    ranks, so the tail is not swamped by low ranks."""
    n = curve.ranks.size
    idx = np.arange(n)
    if n > MAX_FIT_POINTS:
        idx = np.unique(np.round(np.logspace(0, np.log10(n), MAX_FIT_POINTS)).astype(np.int64)) - 1
    return curve.ranks[idx].astype(float), np.log(curve.counts[idx].astype(float))


def _nelder_mead(f, x0: np.ndarray, maxfev: int, xatol: float, fatol: float) -> SimpleNamespace:
    """scipy's non-adaptive, unbounded ``minimize(f, x0, method="Nelder-Mead")``, step for step."""
    budget = iter(range(maxfev))  # next() raises StopIteration instead of evaluation maxfev + 1

    def evaluate(x):
        next(budget)
        return f(x)

    def trial(c):
        # c = 1 reflects, 2 expands, 0.5 and -0.5 contract outside and inside: each is scipy's point, bit for bit
        x = (1 + c) * xbar - c * sim[-1]
        return x, evaluate(x)

    moved = np.where(x0 != 0, 1.05 * x0, 0.00025)  # vertex k + 1 moves coordinate k of the start
    sim = np.vstack([x0, np.where(np.eye(x0.size, dtype=bool), moved, x0)])
    fsim = np.full(len(sim), np.inf)
    with suppress(StopIteration):  # the budget is spent; the result is read from the sorted simplex
        for k in range(len(sim)):
            fsim[k] = evaluate(sim[k])
        while True:
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / x0.size
            xr, fxr = trial(1)
            if fxr < fsim[0]:
                xe, fxe = trial(2)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc, fxc = trial(0.5 if outside else -0.5)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, len(sim)):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
    return SimpleNamespace(x=sim[np.argsort(fsim)[0]], fun=np.min(fsim), success=next(budget, None) is not None)


def _simplex(log_y: np.ndarray, log_denominator, starts, xatol: float) -> list[SimpleNamespace]:
    """Nelder-Mead from each start on the log-space squared error, log A profiled
    out; ``log_denominator(theta)`` is None outside the bounds.  One result per start."""

    def objective(theta):
        log_d = log_denominator(theta)
        if log_d is None:
            return 1e12
        log_a = np.mean(log_y + log_d)
        r = log_y - (log_a - log_d)
        return float(r @ r)

    return [_nelder_mead(objective, start, SIMPLEX_BUDGET, xatol, OBJECTIVE_TOL) for start in starts]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite cost is a bad vertex
def fit_modified_power_law(curve: RankCurve) -> ModifiedPowerLawFit:
    """Fit the two-exponent law in log-log space.

    Simplex search over (log a1, log a2, g1, g2-g1) with the amplitude
    profiled out analytically at each evaluation; five fixed starts, the
    lowest objective wins, near-ties resolved toward the smallest tail
    coefficient.  Curves too small or flat to constrain the model come
    back flagged degenerate instead of raising.
    """
    xs, log_y = _log_curve(curve)
    spread = log_y.max() - log_y.min()
    if xs.size < 10 or xs.max() / xs.min() < 100.0 or spread < 1e-12:
        # not enough structure for a 5-parameter fit
        return ModifiedPowerLawFit(
            A=float(np.exp(log_y.mean())), a1=0.0, a2=0.0, gamma1=0.5, gamma2=1.5,
            residual=float(np.sqrt(np.mean((log_y - log_y.mean()) ** 2))), degenerate=True,
        )

    def log_denominator(theta):
        la1, la2, g1, dg = theta
        if g1 <= 0 or dg <= 0 or g1 > 10 or dg > 10:
            return None
        return np.log(_denom(xs, np.exp(la1), np.exp(la2), g1, g1 + dg))

    solutions = _simplex(log_y, log_denominator, _STARTS, xatol=1e-10)
    best_cost = min(s.fun for s in solutions)
    if not np.isfinite(best_cost):
        raise FitDidNotConverge("all simplex starts diverged", best=None)
    # among near-optimal solutions prefer the smallest tail coefficient,
    # which resolves the a2-ambiguity of data with a single power regime
    near = [s for s in solutions if s.fun <= best_cost * (1 + 1e-6) + 1e-12]
    best = min(near, key=lambda s: s.x[1])
    la1, la2, g1, dg = best.x
    fit = ModifiedPowerLawFit(
        A=float(np.exp(np.mean(log_y + log_denominator(best.x)))),
        a1=float(np.exp(la1)), a2=float(np.exp(la2)), gamma1=float(g1), gamma2=float(g1 + dg),
        residual=float(np.sqrt(best.fun / xs.size)),
    )
    if not any(s.success for s in solutions):
        raise FitDidNotConverge("simplex exhausted its budget on every start", best=fit)
    return fit


def fit_zipf(curve: RankCurve) -> BaselineFit:
    """Straight-line fit in log-log space: count = A * x**-lam."""
    xs, ly = _log_curve(curve)
    if xs.size < 2:
        return BaselineFit(A=float(np.exp(ly.mean())), lam=0.0, a=None, nu=None, residual=0.0)
    lx = np.log(xs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    return BaselineFit(A=float(np.exp(intercept)), lam=float(-slope),
                       a=None, nu=None, residual=float(np.sqrt(np.mean(resid**2))))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite cost is a bad vertex
def fit_zipf_mandelbrot(curve: RankCurve) -> BaselineFit:
    """Shifted power law count = A / (1 + a*x)**nu, amplitude profiled."""
    xs, log_y = _log_curve(curve)
    if xs.size < 3:
        return BaselineFit(A=float(np.exp(log_y.mean())), lam=None, a=0.0, nu=1.0,
                           residual=float(np.sqrt(np.mean((log_y - log_y.mean()) ** 2))))

    def log_denominator(theta):
        la, nu = theta
        if nu <= 0 or nu > 20:
            return None
        return nu * np.log1p(np.exp(la) * xs)

    starts = np.array([(np.log(0.1), 1.0), (np.log(1.0), 0.8), (np.log(0.01), 1.5)])
    best = min(_simplex(log_y, log_denominator, starts, xatol=1e-4), key=lambda s: s.fun)
    la, nu = best.x
    return BaselineFit(A=float(np.exp(np.mean(log_y + log_denominator(best.x)))),
                       lam=None, a=float(np.exp(la)), nu=float(nu),
                       residual=float(np.sqrt(best.fun / xs.size)))


def fit_report_json(fit: ModifiedPowerLawFit, zipf: BaselineFit, zm: BaselineFit) -> dict:
    """The ``fit.json`` document: the fit's fields plus both baselines."""
    return {
        **asdict(fit),
        "baselines": {
            "zipf": {"A": zipf.A, "lambda": zipf.lam, "residual": zipf.residual},
            "zipf_mandelbrot": {"A": zm.A, "a": zm.a, "nu": zm.nu, "residual": zm.residual},
        },
    }
