"""The stretched-exponential waiting-time law and its closed forms.

Density on (0, inf):

    f(tau) = C * exp(-(a*tau)**nu),    C = a * nu / gamma(1/nu)

Substituting u = (a*tau)**nu turns every integral into a gamma integral,
which gives exact expressions for the normalization, the survival
function and all moments, and shows that u is Gamma(1/nu, 1) distributed,
so a gap is sampled as a power of one Gamma draw:

    S(t)     = Q(1/nu, (a*t)**nu)          (regularized upper gamma)
    <tau**m> = gamma((m+1)/nu) / (a**m * gamma(1/nu))
    tau      = u**(1/nu) / a,   u ~ Gamma(1/nu, 1)

For nu = 1/2 these reduce to C = a/2, S(t) = (1+u)*exp(-u) with
u = sqrt(a*t), <tau> = 6/a, <tau^2> = 120/a^2, so the dispersion ratio
<tau^2>/<tau>^2 equals 10/3.  For nu = 1 the law is the plain
exponential with mean 1/a.
"""
from __future__ import annotations

import math

import numpy as np


def normalization(a: float, nu: float) -> float:
    """Constant C making the density integrate to one."""
    from scipy import special
    _check(a, nu)
    return a * nu / special.gamma(1.0 / nu)


def survival(t, a: float, nu: float):
    """P(tau > t) for the continuous law."""
    from scipy import special
    _check(a, nu)
    t = np.asarray(t, dtype=float)
    return special.gammaincc(1.0 / nu, np.power(a * t, nu))


def moment(m: int, a: float, nu: float) -> float:
    """Exact m-th moment of the law; math.gamma raises OverflowError past about 171."""
    _check(a, nu)
    return math.gamma((m + 1.0) / nu) / (a**m * math.gamma(1.0 / nu))


def sample(rng: np.random.Generator, size: int, a: float, nu: float) -> np.ndarray:
    """Draw ``size`` gaps as powers of Gamma(1/nu, 1) variates."""
    _check(a, nu)
    return rng.gamma(1.0 / nu, size=size) ** (1.0 / nu) / a


def _check(a: float, nu: float) -> None:
    if not a > 0:
        raise ValueError(f"scale a must be positive, got {a}")
    if not 0 < nu <= 2:
        raise ValueError(f"shape nu must lie in (0, 2], got {nu}")
