import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blverify.bass_embedding import _G_PRIME_REL_TOL
from blverify.gaussian_core import (std_normal_cdf, std_normal_pdf,
                                    std_normal_quantile)
from blverify.potentials import Potential, builtin_potential, builtin_slope_map
from blverify.transport import (_GL_W, DivergentNormalizerError,
                                NonFinitePotentialError, _panel_nodes,
                                build_transport)
from blverify.verifier import appendix_transport

from conftest import LOG_MIXTURE_PARAMS, MATRIX_KEYS

X = np.linspace(-8.0, 8.0, 1601)


def quantile(tmap, u):
    """F_mu^{-1}(u), as g at the standard normal quantile of u."""
    return tmap.g(std_normal_quantile(u))


def density(tmap, x):
    """The density of mu, from the tables' unnormalized density."""
    return tmap._unnormalized_density(x) / tmap._z


@pytest.fixture(scope="module")
def zero_map():
    return build_transport(builtin_potential("zero"), 1.0)


@pytest.fixture(scope="module")
def quad_map():
    return build_transport(builtin_potential("quadratic"), 1.0)


@pytest.fixture(scope="module")
def lin_map():
    return build_transport(builtin_potential("linear"), 1.0)


class TestBuildOracles:
    def test_zero_potential_is_identity(self, zero_map):
        assert zero_map.Z == pytest.approx(1.0, abs=1e-12)
        assert zero_map.mean_mu == pytest.approx(0.0, abs=1e-12)
        assert zero_map.var_mu == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(zero_map.g(X) - X)) <= 1e-9

    def test_quadratic_gaussian_product(self, quad_map):
        # exp(-x^2/2) against N(0,1): Z = 1/sqrt(2), mu = N(0, 1/2)
        assert quad_map.Z == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-13)
        assert quad_map.var_mu == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(quad_map.g(X) - X / math.sqrt(2.0))) <= 1e-9
        assert np.max(np.abs(quad_map.g_prime(X) - 1 / math.sqrt(2.0))) <= 1e-9

    def test_linear_tilt_is_shift(self, lin_map):
        # exp(-x) against N(0,1): Z = e^{1/2}, mu = N(-1, 1)
        assert lin_map.Z == pytest.approx(math.exp(0.5), abs=1e-12)
        assert lin_map.mean_mu == pytest.approx(-1.0, abs=1e-12)
        assert lin_map.var_mu == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(lin_map.g(X) - (X - 1.0))) <= 1e-9

    @pytest.mark.parametrize("c, a", [(5.0, 17.8), (30.0, 1.0), (20.0, 1.44),
                                      (38.0, 1.0), (-7.0, 34.5), (8.0, 23.8),
                                      (20.0, 7.85)])
    def test_linear_tilt_with_mode_beyond_the_first_grid(self, c, a):
        # exp(-c x) against N(0, A) is N(-cA, A) with Z = exp(c^2 A / 2),
        # and the mode -cA lies beyond the +-(12 sqrt(A) + 8) of the first
        # mode-search grid; in the last four Z overflows, and the tables,
        # offset by the exponent at the mode, must not
        assert abs(c) * a > 12.0 * math.sqrt(a) + 8.0
        tmap = build_transport(builtin_potential("linear", {"c": c}), a)
        assert tmap.window[0] < -c * a < tmap.window[1]
        assert tmap.mean_mu == pytest.approx(-c * a, rel=1e-12)
        assert tmap.var_mu == pytest.approx(a, rel=1e-12)
        with np.errstate(over="ignore"):
            assert tmap.Z == pytest.approx(np.exp(0.5 * c * c * a), rel=1e-12)
        # measured: 1.0e-14 sd, at linear(20), A = 7.85
        sd = math.sqrt(a)
        assert np.max(np.abs(tmap.g(X) - (sd * X - c * a))) <= 5e-14 * sd

    def test_tables_unshifted_where_the_minimum_is_near_zero(self):
        # V(0) = 0 at the grid node x = 0, and the slope maps' exponent U
        # has its minimum within 1/2 of 0, so these tables keep their bits
        for name in ("zero", "quadratic", "abs"):
            for a in (0.25, 1.0, 4.0):
                assert build_transport(builtin_potential(name),
                                       a)._shift == 0.0
        for name, params in (("cubic", None),
                             ("log_mixture", LOG_MIXTURE_PARAMS)):
            sm = builtin_slope_map(name, params)
            assert appendix_transport(sm, sm.alpha)._shift == 0.0

    def test_variance_never_exceeds_gaussian(self):
        for name in ("zero", "linear", "quadratic", "abs"):
            for a in (0.5, 1.0, 4.0):
                tm = build_transport(builtin_potential(name), a)
                assert tm.var_mu <= a + 1e-10


class TestCdfQuantile:
    def test_symmetric_median(self, zero_map):
        assert zero_map.cdf(0.0) == pytest.approx(0.5, abs=1e-13)
        assert quantile(zero_map, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_median(self, lin_map):
        assert lin_map.cdf(-1.0) == pytest.approx(0.5, abs=1e-12)

    def test_rescaled_gaussian_cdf(self, quad_map):
        assert quad_map.cdf(1.0 / math.sqrt(2.0)) == pytest.approx(
            std_normal_cdf(1.0), abs=1e-12)

    def test_shift_quantile(self, lin_map):
        assert quantile(lin_map, std_normal_cdf(1.0)) == pytest.approx(0.0, abs=1e-11)

    def test_round_trip_double_well(self):
        from blverify.verifier import appendix_transport
        from blverify.potentials import builtin_slope_map
        tm = appendix_transport(builtin_slope_map("cubic"), 1.0)
        for u in (0.123, 0.5, 0.77, 0.999):
            assert tm.cdf(quantile(tm, u)) == pytest.approx(u, abs=1e-10)

    def test_cdf_monotone(self, quad_map):
        vals = quad_map.cdf(np.linspace(-7, 7, 701))
        assert np.all(np.diff(vals) >= 0.0)

    def test_survival_complements_cdf(self, lin_map):
        xs = np.linspace(-6, 6, 61)
        np.testing.assert_allclose(lin_map.cdf(xs) + lin_map.survival(xs),
                                   1.0, atol=1e-12)

    def test_sampling_identity_kolmogorov(self, quad_map):
        # inverse-transform sampling reproduces the CDF
        rng = np.random.default_rng(20240901)
        n = 100_000
        samples = quantile(quad_map, rng.uniform(1e-12, 1 - 1e-12, n))
        s = np.sort(samples)
        f = quad_map.cdf(s)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - f), np.max(f - (grid - 1.0 / n)))
        assert ks <= 1.63 / math.sqrt(n)


class TestTransportDerivative:
    def test_analytic_ratio_matches_finite_differences(self):
        for name in ("quadratic", "abs"):
            tm = build_transport(builtin_potential(name), 1.0)
            xs = np.linspace(-6.0, 6.0, 241)
            # the central-difference oracle breaks down where g'' jumps
            # (curvature kink of the abs tilt at the origin)
            xs = xs[np.abs(xs) > 1e-3]
            h = 1e-5
            fd = (np.asarray(tm.g(xs + h)) - np.asarray(tm.g(xs - h))) / (2 * h)
            np.testing.assert_allclose(tm.g_prime(xs), fd, atol=1e-6)

    def test_scaling_covariance(self):
        # building with (V, A) vs (V(sqrt(A) x), 1): g_A = sqrt(A) g_1; at
        # A = 4, V(2x) of quadratic(1) is quadratic(4) and of abs(1) abs(2)
        for name, c_of_v2x in (("quadratic", 4.0), ("abs", 2.0)):
            t4 = build_transport(builtin_potential(name), 4.0)
            t1 = build_transport(builtin_potential(name, {"c": c_of_v2x}), 1.0)
            xs = np.linspace(-6, 6, 121)
            assert np.max(np.abs(t4.g(xs) - 2.0 * t1.g(xs))) <= 1e-9

    def test_extrapolation_flagged(self, zero_map):
        before = zero_map.extrapolation_count
        val = zero_map.g(13.0)
        assert zero_map.extrapolation_count == before + 1
        assert val == pytest.approx(13.0, abs=1e-8)  # linear continuation


A_VALUES = (0.25, 1.0, 4.0)


class TestGPrimeBound:
    # Caffarelli's g' <= sqrt(A), up to the round-off that
    # bass_embedding.t_bound_check allows
    def test_equality_case(self):
        for a in A_VALUES:
            gp = build_transport(builtin_potential("zero"), a).g_prime(X)
            np.testing.assert_allclose(gp, math.sqrt(a),
                                       rtol=_G_PRIME_REL_TOL)

    def test_double_well_slope_bound(self):
        # g' = 1/k'(k^{-1}) <= 1/sqrt(alpha) = sqrt(A), with its maximum 1
        # at the origin: equality at the map's alpha = 1, strict below it
        for a in (1.0, 4.0):
            tm = appendix_transport(builtin_slope_map("cubic"), 1.0 / a)
            gp = tm.g_prime(X)
            i = int(np.argmax(gp))
            assert gp[i] == pytest.approx(1.0, abs=1e-9)
            assert X[i] == pytest.approx(0.0, abs=1e-9)
            assert gp[i] <= math.sqrt(a) * (1.0 + _G_PRIME_REL_TOL)

    def test_abs_bound(self):
        for a in A_VALUES:
            tm = build_transport(builtin_potential("abs"), a)
            assert np.max(tm.g_prime(X)) < math.sqrt(a)


class TestDensityQuantileGap:
    # F'(F^{-1}(xi)) - Phi'(Phi^{-1}(xi)) at A = 1, the g' bound read on
    # the quantile scale
    def test_zero_gap_vanishes(self, zero_map):
        xi = np.linspace(0.0005, 0.9995, 1999)
        gap = (density(zero_map, quantile(zero_map, xi))
               - std_normal_pdf(std_normal_quantile(xi)))
        assert np.max(np.abs(gap)) <= 1e-12

    def test_quadratic_median_value(self, quad_map):
        # at xi = 1/2: sqrt(2)/sqrt(2 pi) - 1/sqrt(2 pi)
        gap = (density(quad_map, quantile(quad_map, 0.5))
               - 1.0 / math.sqrt(2 * math.pi))
        assert gap == pytest.approx((math.sqrt(2) - 1) / math.sqrt(2 * math.pi),
                                    abs=1e-12)
        xi = np.linspace(0.0005, 0.9995, 1999)
        assert np.all(density(quad_map, quantile(quad_map, xi))
                      >= std_normal_pdf(std_normal_quantile(xi)))


class TestBuildErrors:
    def test_divergent_normalizer(self):
        # exp(+x^2) overwhelms the N(0,1) weight: V(x) + x^2/2 = -x^2/2
        # falls on every grid the mode search moves to
        anti = Potential("anti", lambda x: -np.asarray(x, float) ** 2,
                         convex=False)
        with pytest.raises(DivergentNormalizerError, match="grid moves"):
            build_transport(anti, 1.0)

    def test_non_finite_potential(self):
        bad = Potential("log", lambda x: np.log(np.asarray(x, float)),
                        convex=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonFinitePotentialError):
                build_transport(bad, 1.0)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            build_transport(builtin_potential("zero"), -1.0)


@given(st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_g_monotone(x1, x2):
    tm = _MONO_MAP
    if x1 > x2:
        x1, x2 = x2, x1
    if x2 - x1 > 1e-9:
        assert tm.g(x2) > tm.g(x1)


_MONO_MAP = build_transport(builtin_potential("abs"), 1.0)


def _weighted_partial_mass(tmap, lo, hi):
    # the partial first moment as a separate density pass
    nodes, half = _panel_nodes(lo, hi)
    return half * ((tmap._unnormalized_density(nodes) * nodes) @ _GL_W)


def composed_call_value(tmap, c):
    """E[(X - c)^+] as partial first moment minus c times `survival`."""
    arr = np.atleast_1d(np.asarray(c, float))
    j = tmap._bracket(arr)
    cx = np.clip(arr, tmap.window[0], tmap.window[1])
    pm = (tmap._cum_x_hi[j + 1]
          + _weighted_partial_mass(tmap, cx, tmap.edges[j + 1])) / tmap._z
    out = pm - arr * tmap.survival(arr)
    out[arr <= tmap.window[0]] = tmap.mean_mu - arr[arr <= tmap.window[0]]
    out[arr >= tmap.window[1]] = 0.0
    return np.maximum(out, 0.0)


def composed_put_value(tmap, c):
    """E[(c - X)^+] as c times `cdf` minus the partial first moment."""
    arr = np.atleast_1d(np.asarray(c, float))
    j = tmap._bracket(arr)
    cx = np.clip(arr, tmap.window[0], tmap.window[1])
    pm = (tmap._cum_x_lo[j]
          + _weighted_partial_mass(tmap, tmap.edges[j], cx)) / tmap._z
    out = arr * tmap.cdf(arr) - pm
    out[arr <= tmap.window[0]] = 0.0
    out[arr >= tmap.window[1]] = arr[arr >= tmap.window[1]] - tmap.mean_mu
    return np.maximum(out, 0.0)


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_call_put_values_match_two_pass_composition(key, matrix_transports):
    """One density pass per point gives the bits of the survival/cdf form."""
    tmap = matrix_transports[key]
    lo, hi = tmap.window
    points = np.concatenate([
        np.linspace(lo, hi, 2001),                     # inside, both ends
        tmap.edges[::97], tmap.edges[-3:],             # on panel edges
        np.nextafter([lo, hi], [-np.inf, np.inf]),     # just outside
        [lo - 1.0, hi + 1.0, -1e3, 1e3]])              # far outside
    assert np.array_equal(tmap.upper_call_value(points),
                          composed_call_value(tmap, points))
    assert np.array_equal(tmap.lower_put_value(points),
                          composed_put_value(tmap, points))
    mid = 0.5 * (lo + hi)
    assert tmap.upper_call_value(mid) == composed_call_value(tmap, mid)[0]
    assert tmap.lower_put_value(mid) == composed_put_value(tmap, mid)[0]
