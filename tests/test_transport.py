import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blverify import transport
from blverify.bass_embedding import _G_PRIME_REL_TOL
from blverify.gaussian_core import (std_normal_cdf, std_normal_pdf,
                                    std_normal_quantile)
from blverify.potentials import Potential, builtin_potential, builtin_slope_map
from blverify.transport import (_GL_W, DivergentNormalizerError,
                                NonFinitePotentialError, _panel_nodes,
                                build_transport)
from blverify.verifier import appendix_transport

from conftest import LOG_MIXTURE_PARAMS, MATRIX_KEYS, WORST_LINEAR

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


# 20000 normal points and the 8833-node lattice j/384 of [-11.5, 11.5]
PUSH_W = np.concatenate([np.random.default_rng(5).standard_normal(20000),
                         np.arange(-4416, 4417) / 384])


def pushforward_error(tmap, w=PUSH_W):
    """max |F(g(w)) - Phi(w)|, by the survival function above w = 0."""
    x, up = tmap.g(w), w > 0.0
    return float(np.max(np.abs(np.concatenate((
        tmap.cdf(x[~up]) - std_normal_cdf(w[~up]),
        tmap.survival(x[up]) - std_normal_cdf(-w[up]))))))


def inverse_sweep():
    """The transports on which the inverse of g is measured, keyed by
    label: the default matrix at A = 1/4, 1 and 4 (the cubic map at
    alpha = 1/A, the log-mixture at alpha = 1 and 1/4), WORST_LINEAR, and
    abs(1e4) at A = 1e-6 and 1e4 and quadratic(1e4) at A = 4, 50 and 100,
    which have 2 to 6 panels within 3 sd of the mean (the matrix has 280
    to 1000)."""
    out = {}
    for a in (0.25, 1.0, 4.0):
        for name in ("zero", "linear", "quadratic", "abs"):
            out[f"{name} A={a:g}"] = build_transport(builtin_potential(name), a)
        out[f"cubic A={a:g}"] = appendix_transport(builtin_slope_map("cubic"),
                                                   1.0 / a)
    for a in (1.0, 4.0):
        out[f"log_mixture A={a:g}"] = appendix_transport(
            builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS), 1.0 / a)
    for name, c, a in WORST_LINEAR + (("abs", 1e4, 1e-6), ("abs", 1e4, 1e4),
                                      ("quadratic", 1e4, 4.0),
                                      ("quadratic", 1e4, 50.0),
                                      ("quadratic", 1e4, 100.0)):
        out[f"{name}({c:g}) A={a:g}"] = build_transport(
            builtin_potential(name, {"c": c}), a)
    return out


@pytest.fixture(scope="module")
def inverse_transports():
    return inverse_sweep()


def assert_finite_brackets(tmap, key=None):
    """The w-images of the edges are nondecreasing (an edge below 1e-300
    of the mass maps to -inf or +inf), and every |x| <= 11.5 brackets in
    an inner panel of positive width with two finite w-images."""
    x = np.linspace(-11.5, 11.5, 20001)
    w = tmap._edge_w
    assert np.all(w[:-1] <= w[1:]), key
    j = np.searchsorted(w, x, side="right") - 1
    assert np.all((j >= 1) & (j <= len(w) - 3)), key
    assert np.all((w[j] <= x) & (x < w[j + 1])), key
    assert np.all(np.isfinite(w[j]) & np.isfinite(w[j + 1])), key


class TestInverse:
    def test_newton_steps_settle_the_pushforward(self, monkeypatch,
                                                  inverse_transports):
        # max pushforward error over the sweep, measured, by Newton steps
        # from the Hermite start:
        #
        #   steps          0        1        2        3        4        5
        #   max error  1.9e-03  9.7e-06  3.3e-10  5.9e-15  7.7e-15  5.9e-15
        #
        # (six iterations from a start linear in mass: 1.5e-4).  Up to two
        # steps the worst is abs(1e4), A = 1e-6; from three on it is
        # linear(20), A = 50, where one ulp of g (at x = -1000) moves F by
        # 6.4e-15.  From 3 to 5 steps no transport's error moves by more
        # than 5.6e-17 (abs(1e4), A = 1e-6), and from 2 to 4 by 3.3e-10.
        errors = {}
        for steps in (transport._NEWTON_STEPS, transport._NEWTON_STEPS + 2):
            monkeypatch.setattr(transport, "_NEWTON_STEPS", steps)
            errors[steps] = {key: pushforward_error(tmap)
                             for key, tmap in inverse_transports.items()}
        few, more = errors.values()
        moved = {key: abs(few[key] - more[key]) for key in few}
        assert max(moved.values()) <= 1.1e-16, moved
        assert max(few.values()) <= 7e-15, few

    def test_panels_of_59_sd_leave_three_steps_short(self, monkeypatch):
        # quadratic(1e4) at A = 1e4: mu = N(0, 1e-4) on a grid of panels
        # 59 sd of mu wide, refined to four within 3 sd of 0.  Measured:
        # 1.6e-14 after three steps, 2.7e-15 after five (six iterations
        # from a start linear in mass: 7.9e-6).
        tmap = build_transport(builtin_potential("quadratic", {"c": 1e4}),
                               1e4)
        assert pushforward_error(tmap) <= 3e-14
        monkeypatch.setattr(transport, "_NEWTON_STEPS",
                            transport._NEWTON_STEPS + 2)
        assert pushforward_error(tmap) <= 5e-15

    def test_end_panels_bracket_every_inner_point(self, inverse_transports):
        # +-11.5 lie strictly inside the end panels' w-images
        for key, tmap in inverse_transports.items():
            assert_finite_brackets(tmap, key)
            assert tmap._edge_w[1] < -11.5 < 11.5 < tmap._edge_w[-2], key

    def test_blocks_bound_memory_and_keep_the_bits(self, monkeypatch):
        # g of 1e5 points in blocks of 4096: measured peak 3.9 MiB on the
        # cubic map (one pass over all of them: 39.9 MiB; the two Newton
        # loops of six iterations, one per side: 19.3 MiB); a one-point
        # last block (4097 points) gives the bits of one pass
        tmap = appendix_transport(builtin_slope_map("cubic"), 1.0)
        w = np.random.default_rng(3).standard_normal(100_000)
        tracemalloc.start()
        try:
            tmap.g(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20
        blocked = tmap.g(w[:4097])
        monkeypatch.setattr(transport, "_G_BLOCK", w.size)
        assert np.array_equal(blocked, tmap.g(w[:4097]))

    @pytest.mark.parametrize("a, g_bound", [(4.0, 5e-10), (50.0, 2e-7)])
    def test_wide_panels_keep_g_on_its_closed_form(self, a, g_bound):
        # quadratic(1e4) against N(0, A) is N(0, 1/(1e4 + 1/A)), on a grid
        # of panels 1.3 (A = 4) and 4.2 (A = 50) sd of mu wide; measured:
        # g within 1.7e-10 and 7.7e-8 sd of x sd on |x| <= 6, pushforward
        # 1.7e-16 at both (six Newton iterations from a start linear in
        # mass left 0.094 and 0.66 sd, 7.4e-8 and 5.0e-5)
        tmap = build_transport(builtin_potential("quadratic", {"c": 1e4}), a)
        sd = 1.0 / math.sqrt(1e4 + 1.0 / a)
        x = np.linspace(-6.0, 6.0, 2401)
        assert np.max(np.abs(tmap.g(x) - sd * x)) <= g_bound * sd
        assert pushforward_error(tmap) <= 4.4e-16


class TestEndPanelGuard:
    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_log_mixture_beyond_its_alpha_is_rejected(self, alpha):
        # N(0, 1/alpha) windows of +-(12 sqrt(1/alpha) + 2) leave 1.4e-27
        # (alpha = 2) and 1e-17 (alpha = 4) of the unit-variance component
        # in the end panels, above Phi(-11.5) = 6.6e-31
        sm = builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS)
        with pytest.raises(DivergentNormalizerError,
                           match=r"end panels .* hold .* of its mass"):
            appendix_transport(sm, alpha)

    def test_tail_panels_are_split_to_finite_brackets(self):
        # the cubic map at alpha = 1e-5: the window of +-3797 holds panels
        # 1.85 wide, and every edge beyond +-1.85 holds below 1e-300 of
        # the mass on its side, so its w-image is infinite.  Unsplit, the
        # panel from 1.85 (w-image 8.5) to 3.71 (+inf) left g NaN on
        # 8.5 < |x| <= 11.5; the build splits it and its mirror once, at
        # +-2.78 (w-image 24.7).  Measured pushforward 4.3e-12: panels that
        # wide leave three Newton steps short (six iterations from a start
        # linear in mass: 1.3e-7)
        tmap = appendix_transport(builtin_slope_map("cubic"), 1e-5)
        assert_finite_brackets(tmap)
        x = np.arange(-4416, 4417) / 384
        assert np.all(np.isfinite(tmap.g(x)) & np.isfinite(tmap.g_prime(x)))
        assert np.all(np.isfinite(tmap._g_edge_val)
                      & np.isfinite(tmap._g_edge_slope))
        assert pushforward_error(tmap) <= 1e-11

    def test_default_matrix_and_improved_alpha_build(self, matrix_transports):
        assert set(matrix_transports) == set(MATRIX_KEYS)
        sm = builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS)
        tmap = appendix_transport(sm, 1.0)
        assert tmap._edge_w[1] < -11.5 < 11.5 < tmap._edge_w[-2]
