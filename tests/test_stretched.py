"""Closed forms of the stretched-exponential law against quadrature oracles."""
import numpy as np
import pytest
from scipy import integrate

from wordburst import stretched


def pdf(t, a, nu):
    return stretched.normalization(a, nu) * np.exp(-((a * t) ** nu))


def dispersion_ratio(nu):
    """<tau^2>/<tau>^2, which depends on the shape alone."""
    return stretched.moment(2, 1.0, nu) / stretched.moment(1, 1.0, nu) ** 2


@pytest.mark.parametrize("a,nu", [(0.1, 0.5), (0.02, 0.5), (1.0, 1.0), (0.3, 0.8), (2.0, 1.5)])
def test_density_normalizes_by_quadrature(a, nu):
    val, err = integrate.quad(lambda t: pdf(t, a, nu), 0, np.inf)
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize("a,nu", [(0.1, 0.5), (0.02, 0.5), (1.0, 1.0), (0.3, 0.8)])
@pytest.mark.parametrize("m", [1, 2])
def test_moments_match_quadrature(a, nu, m):
    oracle, err = integrate.quad(lambda t: t**m * pdf(t, a, nu), 0, np.inf, limit=200)
    assert abs(stretched.moment(m, a, nu) / oracle - 1.0) < 1e-6


def test_half_shape_closed_forms():
    a = 0.1
    assert stretched.normalization(a, 0.5) == pytest.approx(a / 2, rel=1e-12)
    assert stretched.moment(1, a, 0.5) == pytest.approx(6 / a, rel=1e-12)
    assert stretched.moment(2, a, 0.5) == pytest.approx(120 / a**2, rel=1e-12)
    assert dispersion_ratio(0.5) == pytest.approx(10 / 3, rel=1e-12)


def test_half_shape_survival_closed_form():
    a = 0.2
    t = np.array([0.5, 1.0, 7.3, 40.0])
    u = np.sqrt(a * t)
    np.testing.assert_allclose(stretched.survival(t, a, 0.5), (1 + u) * np.exp(-u), rtol=1e-12)


def test_exponential_special_case():
    # nu = 1 reduces to the plain exponential with mean 1/a
    a = 0.25
    t = np.linspace(0.1, 30, 7)
    np.testing.assert_allclose(stretched.survival(t, a, 1.0), np.exp(-a * t), rtol=1e-12)
    assert dispersion_ratio(1.0) == pytest.approx(2.0, rel=1e-12)


def test_survival_matches_pdf_integral():
    a, nu = 0.07, 0.6
    for t in (1.0, 5.0, 33.0):
        oracle, _ = integrate.quad(lambda s: pdf(s, a, nu), t, np.inf, limit=200)
        assert stretched.survival(t, a, nu) == pytest.approx(oracle, rel=1e-8)


def test_sampler_survival_at_unit_scale():
    # at u = sqrt(a*t) = 1, i.e. t = 1/a, survival is 2/e
    a, nu = 0.1, 0.5
    rng = np.random.default_rng(42)
    sample = stretched.sample(rng, 200_000, a, nu)
    emp = np.mean(sample > 1.0 / a)
    assert emp == pytest.approx(2 / np.e, abs=3 * 0.45 / np.sqrt(200_000))


def test_parameter_validation():
    with pytest.raises(ValueError):
        stretched.normalization(-0.1, 0.5)
    with pytest.raises(ValueError):
        stretched.survival(1.0, 0.1, 2.5)
    with pytest.raises(ValueError):
        stretched.moment(1, 0.0, 0.5)
