import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc
from scipy.special import ndtri

from blverify.gaussian_core import (std_normal_cdf, std_normal_pdf,
                                    std_normal_quantile)

_DENS = lambda y: math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


def heat_kernel(t, x):
    """The Gaussian heat kernel p(t; x) = exp(-x^2 / 2t) / sqrt(2 pi t), as
    the standard normal density rescaled to variance t > 0; the package
    itself only needs t = 1, where it is ``std_normal_pdf``."""
    return std_normal_pdf(x / math.sqrt(t)) / math.sqrt(t)


def quadrature_cdf(x):
    # mass below -12 is under 2e-33, far inside the comparison tolerance
    val, _ = quad(_DENS, -12.0, x, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


class TestCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_quadrature_oracle(self):
        # oracle value of the defining integral at 1.96
        assert std_normal_cdf(1.96) == pytest.approx(0.97500210485178, abs=1e-13)
        for x in (-3.7, -1.0, 0.31, 2.4):
            assert std_normal_cdf(x) == pytest.approx(quadrature_cdf(x), abs=1e-13)

    def test_symmetry_identity(self):
        assert std_normal_cdf(-1.3) + std_normal_cdf(1.3) == pytest.approx(1.0, abs=1e-15)

    def test_strictly_increasing(self):
        # strict where increments are representable at double resolution
        xs = np.linspace(-8.0, 7.5, 2001)
        assert np.all(np.diff(std_normal_cdf(xs)) > 0.0)
        # weakly increasing through the saturated upper tail
        xs = np.linspace(7.0, 40.0, 2001)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0.0)

    def test_tail_saturation_stays_in_open_interval(self):
        assert 0.0 < std_normal_cdf(-40.0) <= std_normal_cdf(-38.0) < 1e-300
        assert std_normal_cdf(-38.0) < std_normal_cdf(-36.0) < 1e-280
        assert std_normal_cdf(40.0) < 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("nan"))


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_inverse_roundtrip_in_u(self):
        for u in (1e-12, 0.025, 0.3, 0.7, 0.975, 1 - 1e-12):
            assert std_normal_cdf(std_normal_quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_bisection_oracle(self):
        # 60-step bisection of the quadrature CDF on [0, 4]
        assert std_normal_quantile(0.975) == pytest.approx(1.95996398454005, abs=1e-11)

    def test_strictly_increasing(self):
        us = np.linspace(1e-6, 1 - 1e-6, 4001)
        assert np.all(np.diff(std_normal_quantile(us)) > 0.0)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3, 1e-310])
    def test_rejects_out_of_domain(self, u):
        with pytest.raises(ValueError):
            std_normal_quantile(u)

    def test_roundtrip_in_x(self):
        # Full precision holds where the CDF value is resolvable in float64.
        # Beyond x ~ +5.2 the upper-tail CDF rounds into doubles spaced
        # ~1.1e-16 apart and the achievable error is ulp/pdf(x); check the
        # spec tolerance where it is attainable and the representation floor
        # elsewhere.
        xs = np.linspace(-8.0, 5.0, 1401)
        err = np.abs(std_normal_quantile(std_normal_cdf(xs)) - xs)
        assert err.max() <= 1e-10
        for x in np.linspace(5.0, 8.0, 31):
            floor = 1.2e-16 / std_normal_pdf(x)
            err = abs(std_normal_quantile(std_normal_cdf(x)) - x)
            assert err <= max(1e-10, 2.0 * floor)


class TestHeatKernel:
    """``std_normal_pdf`` through the heat kernel it rescales to."""

    def test_closed_form_at_origin(self):
        assert heat_kernel(1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_even_in_x(self):
        assert heat_kernel(2.0, 1.5) == heat_kernel(2.0, -1.5)

    def test_normalization(self):
        val, _ = quad(lambda x: heat_kernel(4.0, x), -80, 80, epsabs=1e-13, limit=400)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_semigroup_spot_check(self):
        conv, _ = quad(lambda y: heat_kernel(1.0, 0.7 - y) * heat_kernel(2.0, y),
                       -40, 40, epsabs=1e-13, limit=400)
        assert conv == pytest.approx(heat_kernel(3.0, 0.7), abs=1e-11)


def gauss_density_of_quantile(xi):
    """The map xi -> Phi'(Phi^{-1}(xi)) on (0, 1): concave, symmetric about
    1/2, with limits 0 at both ends and derivative -Phi^{-1}(xi)."""
    return std_normal_pdf(std_normal_quantile(xi))


class TestDensityOfQuantile:
    def test_value_at_half(self):
        assert gauss_density_of_quantile(0.5) == pytest.approx(
            0.3989422804014327, abs=1e-15)

    def test_symmetry(self):
        assert gauss_density_of_quantile(0.2) == pytest.approx(
            gauss_density_of_quantile(0.8), abs=1e-15)

    def test_derivative_is_minus_quantile(self):
        # finite-difference oracle at xi = 0.3
        h = 1e-6
        fd = (gauss_density_of_quantile(0.3 + h)
              - gauss_density_of_quantile(0.3 - h)) / (2 * h)
        assert fd == pytest.approx(0.5244005127080409, abs=1e-8)
        assert fd == pytest.approx(-std_normal_quantile(0.3), abs=1e-8)

    def test_boundary_limits(self):
        assert gauss_density_of_quantile(1e-250) < 1e-240
        assert gauss_density_of_quantile(1 - 1e-14) < 1e-12

    def test_midpoint_concavity_on_grid(self):
        rng = np.random.default_rng(1234)
        xi1 = rng.uniform(1e-4, 1 - 1e-4, 1000)
        xi2 = rng.uniform(1e-4, 1 - 1e-4, 1000)
        f = gauss_density_of_quantile
        mid = f((xi1 + xi2) / 2)
        assert np.all(mid >= (f(xi1) + f(xi2)) / 2 - 1e-12)

    def test_superhomogeneity_under_shrinking(self):
        # c f(eta / c) >= f(eta) for c >= 1, the key comparison inequality
        f = gauss_density_of_quantile
        for c in (1.0, 1.5, 2.0, 5.0, 25.0):
            eta = np.linspace(1e-4, 1 - 1e-4, 499)
            assert np.all(c * f(eta / c) - f(eta) >= -1e-12)

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.5])
    def test_rejects_out_of_domain(self, xi):
        with pytest.raises(ValueError):
            gauss_density_of_quantile(xi)


@given(st.floats(min_value=-37.0, max_value=37.0))
@settings(max_examples=300, deadline=None)
def test_cdf_pdf_consistency(x):
    # numerical derivative of the CDF matches the density
    h = 1e-6
    fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
    assert abs(fd - std_normal_pdf(x)) <= 1e-9 + 1e-6 * std_normal_pdf(x)


@given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_quantile_forward_roundtrip(u):
    assert abs(std_normal_cdf(std_normal_quantile(u)) - u) <= 1e-12


# ---------------------------------------------------------------------------
# accuracy of the primitives; each bound sits just above the largest error
# measured on its grid
# ---------------------------------------------------------------------------

_U = 2.0 ** -53                      # unit roundoff
_SUBNORMAL = 5e-324                  # spacing of the subnormal doubles
_NORMAL_MIN = np.finfo(float).tiny   # smallest normal double


def _mp_values(f, xs):
    with mpmath.workdps(40):
        return np.array([float(f(mpmath.mpf(float(x)))) for x in xs])


def _erfc(a):
    """``math.erfc``, the C library's, at every point of an array."""
    return np.array([math.erfc(x) for x in np.asarray(a, float)])


# dense around |a| = 1 and |a| = 8, and the subnormal range from a ~ 26.55
ERFC_GRID = np.unique(np.concatenate([
    np.linspace(-6.0, 27.4, 3341),
    np.linspace(0.95, 1.05, 201), -np.linspace(0.95, 1.05, 201),
    np.linspace(7.95, 8.05, 101), -np.linspace(7.95, 8.05, 101),
    np.linspace(26.4, 27.4, 501)]))
ERF_BAND = np.linspace(-0.999, 0.999, 2001)
CDF_GRID = np.linspace(-38.0, 8.0, 4601)


@pytest.fixture(scope="module")
def erfc_reference():
    return _mp_values(mpmath.erfc, ERFC_GRID)


@pytest.fixture(scope="module")
def cdf_reference():
    return _mp_values(mpmath.ncdf, CDF_GRID)


class TestErfcAccuracy:
    """``math.erfc``, which ``std_normal_cdf`` and so every downstream
    quantity rest on."""

    def test_relative_error_where_the_result_is_normal(self, erfc_reference):
        normal = erfc_reference >= _NORMAL_MIN
        got, ref = _erfc(ERFC_GRID)[normal], erfc_reference[normal]
        # measured: 2.9 u here, 3.3 u on 40000 random points
        assert np.max(np.abs(got - ref) / ref) <= 3.5 * _U

    def test_absolute_error_in_the_subnormal_range(self, erfc_reference):
        sub = erfc_reference < _NORMAL_MIN
        assert np.count_nonzero(sub) > 100
        # measured: 1 subnormal spacing here and on 40000 random points
        assert np.max(np.abs(_erfc(ERFC_GRID[sub]) - erfc_reference[sub])) \
            <= _SUBNORMAL

    def test_relative_error_on_the_erf_band(self):
        # |a| < 1, where erfc is 1 - erf(a); measured: 2.1 u
        ref = _mp_values(mpmath.erfc, ERF_BAND)
        assert np.max(np.abs(_erfc(ERF_BAND) - ref) / ref) <= 2.5 * _U

    def test_special_values_and_shapes(self):
        out = _erfc([np.inf, -np.inf, 0.0, 28.0, -28.0])
        assert out.tolist() == [0.0, 2.0, 1.0, 0.0, 2.0]
        assert math.isnan(math.erfc(math.nan))
        # the CDF keeps scalars scalar and arrays in their shape
        assert isinstance(std_normal_cdf(0.5), float)
        assert std_normal_cdf(np.ones((2, 3))).shape == (2, 3)
        assert std_normal_cdf(np.array([])).shape == (0,)


class TestCdfAccuracy:
    def test_relative_error_in_the_lower_tail(self, cdf_reference):
        # The rounding of x / sqrt 2 perturbs the argument of erfc by one
        # unit roundoff, which moves Phi(x) by about x^2 u relative; the
        # error bound is therefore C (1 + x^2) u.  Measured C: 1.8 here
        # (1.9 on 20001 random points of the same range).  In the
        # subnormal range the same relative error appears as an absolute
        # one, plus erfc's own spacings (measured: 1).
        x, ref = CDF_GRID, cdf_reference
        err = np.abs(std_normal_cdf(x) - ref)
        bound = 2.5 * (1.0 + x * x) * _U * ref
        normal = ref >= _NORMAL_MIN
        assert np.all(err[normal] <= bound[normal])
        assert np.all(err[~normal] <= bound[~normal] + _SUBNORMAL)
        assert np.count_nonzero(~normal) > 10


def _scipy_quantile(u):
    """The quantile from scipy's ndtri and erfc, polished by the same two
    Newton corrections."""
    u = np.asarray(u, float)
    v = np.where(u > 0.5, 1.0 - u, u)
    z = ndtri(v)
    for _ in range(2):
        z = z - ((0.5 * scipy_erfc(-z / math.sqrt(2.0)) - v)
                 / (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)))
    return np.where(u > 0.5, -z, z)


QUANTILE_GRID = np.unique(np.concatenate([
    np.logspace(-300.0, math.log10(0.5), 3001),
    np.linspace(0.0005, 0.9995, 1999),
    1.0 - np.logspace(-16.0, -1.0, 301),
    [1e-300, np.exp(-25.0), 0.075, 0.5, 1.0 - 2.0 ** -53]]))


class TestQuantileAccuracy:
    def test_agrees_with_the_scipy_based_formula(self):
        got = std_normal_quantile(QUANTILE_GRID)
        ref = _scipy_quantile(QUANTILE_GRID)
        # measured: 5.3 u relative
        assert np.all(np.abs(got - ref) <= 5.5 * _U * np.abs(ref))
        assert std_normal_quantile(0.5) == 0.0

    def test_self_consistent_with_the_cdf(self):
        # Phi(Phi^{-1}(u)) returns u up to the rounding of the quantile
        # itself, which moves Phi by about z^2 u relative; measured C in
        # C (1 + z^2) u: 2.4
        u = QUANTILE_GRID[QUANTILE_GRID <= 0.5]
        z = std_normal_quantile(u)
        err = np.abs(std_normal_cdf(z) - u) / u
        assert np.all(err <= 3.0 * (1.0 + z * z) * _U)

    def test_relative_error_against_mpmath(self):
        # 40-digit Newton iterations on mpmath's CDF; measured: 4.7 u, at
        # u = 0.502, the same as the scipy-based formula
        u = QUANTILE_GRID[::7]
        with mpmath.workdps(40):
            exact = []
            for ui, zi in zip(u, _scipy_quantile(u)):
                z, target = mpmath.mpf(float(zi)), mpmath.mpf(float(ui))
                for _ in range(3):
                    z -= (mpmath.ncdf(z) - target) / mpmath.npdf(z)
                exact.append(float(z))
        exact = np.array(exact)
        got = std_normal_quantile(u)
        assert np.all(np.abs(got - exact) <= 5 * _U * np.abs(exact))

    def test_upper_half_is_the_exact_mirror(self):
        u = QUANTILE_GRID[QUANTILE_GRID >= 0.5]
        assert np.array_equal(std_normal_quantile(u),
                              -std_normal_quantile(1.0 - u))
