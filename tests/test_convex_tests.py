import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blverify import convex_tests
from blverify.convex_tests import (ConvexTest, bl2_correction, bl3_constant,
                                   builtin_convex_test, convex_test_from_spec,
                                   integrate_against_second_derivative,
                                   p1_limit_bounds, second_derivative_mass)
from blverify.gaussian_core import std_normal_cdf, std_normal_pdf
from blverify.local_time import est1_lower, expected_local_time_array
from blverify.verifier import moment_lhs, moment_rhs

from conftest import MATRIX_KEYS
from test_gaussian_core import heat_kernel

ALL_BUILTINS = [
    builtin_convex_test("abs"),
    builtin_convex_test("square"),
    builtin_convex_test("power", p=3),
    builtin_convex_test("call", strike=1.0),
    builtin_convex_test("corridor", width=1.0),
]


DATA_PSIS = [
    convex_test_from_spec({"label": "data_kinks_linear",
                           "atoms": [[-0.75, 0.5], [1.25, 1.5]],
                           "density_poly_coeffs": [0.5, 0.25]}),
    convex_test_from_spec({"label": "data_atom_quadratic",
                           "atoms": [[0.0, 1.0]],
                           "density_poly_coeffs": [1.0, 0.0, 0.3]}),
]
ORACLE_PSIS = ALL_BUILTINS + [builtin_convex_test("power", p=5)] + DATA_PSIS


def eval_psi(psi, x):
    """psi(x) rebuilt from its second-derivative measure, the density part
    by scipy quadrature: the oracle of every test function's closed form."""
    x = float(x)
    out = psi.value_at_zero + psi.left_slope_at_zero * x
    for loc, mass in psi.atoms:
        out += mass * (max(x - loc, 0.0) if loc >= 0.0 else max(loc - x, 0.0))
    if psi.density is not None and x != 0.0:
        # int (x - y)^+ psi''(dy) over [0, x] for x > 0 and
        # int (y - x)^+ psi''(dy) over [x, 0] for x < 0: |x - y| on both
        val, _ = quad(lambda y: abs(x - y) * float(psi.density(y)),
                      min(x, 0.0), max(x, 0.0), epsabs=1e-13, epsrel=1e-13,
                      limit=200)
        out += val
    return out


def gaussian_call(variance):
    """The integrand of ``moment_lhs``: the call value E(Y - |y|)^+ of
    Y ~ N(0, variance), half the expected local time at level y."""
    return lambda y: 0.5 * expected_local_time_array(y, variance)


def quad_reference(psi, f, window=60.0):
    """The scalar-quad form of ``integrate_against_second_derivative``: one
    scipy ``quad`` per half line and per divergence strip, with f and the
    density called on one point at a time."""
    def scalar(y):
        return float(np.asarray(f(np.array([y])), float).reshape(-1)[0])

    total = 0.0
    for loc, mass in psi.atoms:
        total += mass * scalar(loc)
    if psi.density is not None:
        h = lambda y: float(psi.density(y)) * scalar(y)
        inner = 0.0
        for lo, hi in ((-window, 0.0), (0.0, window)):
            val, _ = quad(h, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)
            inner += val
        strip_hi, _ = quad(h, window, window * 1.05, epsabs=1e-13, epsrel=1e-11)
        strip_lo, _ = quad(h, -window * 1.05, -window, epsabs=1e-13, epsrel=1e-11)
        if abs(strip_hi) + abs(strip_lo) > 1e-8 * max(abs(inner) + total, 1e-300):
            return math.inf
        total += inner
    return total


def scalar_centered_option(tmap):
    """Transport call value above the mean, put value below it, one point
    at a time (the integrand of ``moment_rhs``)."""
    m = tmap.mean_mu

    def option(y):
        y = float(np.asarray(y).reshape(-1)[0])
        if y >= 0.0:
            return float(tmap.upper_call_value(m + y))
        return float(tmap.lower_put_value(m + y))

    return option


def explosive_psi():
    # curvature growing like e^{0.6 y^2}: every psi'' integral against a
    # Gaussian-tailed kernel of variance >= 5/6 diverges
    def density(y):
        with np.errstate(over="ignore"):
            return np.exp(0.6 * np.asarray(y) ** 2)
    return ConvexTest("explosive", 0.0, 0.0, density=density)


def _kernels():
    out = []
    for a in (1.0, 4.0):
        out.append((f"gaussian_call(A={a:g})", gaussian_call(a),
                    12.0 * math.sqrt(a) + 10.0))
        scale = math.sqrt(a * 3.0)
        out.append((f"heat_kernel(A={a:g},q=2)",
                    lambda x, _s=scale: std_normal_pdf(x / _s),
                    12.0 * scale + 10.0))
        horizon = (a - 0.6 * a) ** 2 / a
        out.append((f"bl2_kernel(A={a:g})",
                    lambda x, _a=a, _h=horizon: np.maximum(
                        expected_local_time_array(np.sqrt(x * x + _a), _h), 0.0),
                    12.0 * math.sqrt(a) + 10.0))
    return out


KERNELS = _kernels()


class TestIntegratorOracle:
    """The vectorized adaptive Gauss-Legendre integrator against the scalar
    quad form it replaced."""

    @pytest.mark.parametrize("psi", ORACLE_PSIS, ids=lambda p: p.label)
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k[0])
    def test_analytic_kernels(self, psi, kernel):
        _, f, window = kernel
        ref = quad_reference(psi, f, window)
        got = integrate_against_second_derivative(psi, f, window)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("key", MATRIX_KEYS)
    def test_transport_option_values(self, matrix_transports, key):
        tmap = matrix_transports[key]
        m = tmap.mean_mu
        window = (min(m - tmap.window[0], tmap.window[1] - m) - 0.5) / 1.05
        option = scalar_centered_option(tmap)
        for psi in ORACLE_PSIS:
            ref = psi.value_at_zero + quad_reference(psi, option, window)
            got = moment_rhs(psi, tmap)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), psi.label

    def test_explosive_psi_diverges_on_both(self, matrix_transports):
        psi = explosive_psi()
        for a in (1.0, 4.0):
            f, window = gaussian_call(a), 12.0 * math.sqrt(a) + 10.0
            assert quad_reference(psi, f, window) == math.inf
            assert integrate_against_second_derivative(psi, f, window) == math.inf
        assert moment_lhs(psi, 1.0) == math.inf
        zero = matrix_transports["zero"]
        m = zero.mean_mu
        window = (min(m - zero.window[0], zero.window[1] - m) - 0.5) / 1.05
        assert quad_reference(psi, scalar_centered_option(zero), window) == math.inf
        assert moment_rhs(psi, zero) == math.inf
        assert math.isinf(bl3_constant(psi, 4.0, 3.0))

    def test_square_against_one_diverges_on_both(self):
        psi = builtin_convex_test("square")
        one = lambda y: np.ones_like(np.asarray(y, float))
        assert quad_reference(psi, one) == math.inf
        assert integrate_against_second_derivative(psi, one) == math.inf

    def test_jump_in_density(self):
        # int (1 + 1{y > 0.3}) p(1; y) dy = 1 + Phi(-0.3)
        psi = ConvexTest("jump", 0.0, 0.0,
                         density=lambda y: 1.0 + (np.asarray(y) > 0.3))
        got = integrate_against_second_derivative(psi, std_normal_pdf)
        assert got == pytest.approx(1.0 + std_normal_cdf(-0.3), abs=1e-12)

    def test_rough_integrand_ends_within_panel_budget(self):
        # a sign flip every 1e-4 defeats every panel: the integrator must
        # stop at its panel budget with a finite estimate and bounded memory
        calls = []

        def rough(y):
            calls.append(y.size)
            return np.sign(np.sin(3e4 * y))

        tracemalloc.start()
        try:
            val = convex_tests._gauss_legendre(rough, 0.0, 1.0, 1e-13, 1e-11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = convex_tests._PANEL_BUDGET
        assert math.isfinite(val) and abs(val) <= 1.0
        assert len(calls) <= budget
        assert max(calls) <= 21 * budget
        assert peak < 4 << 20


class TestEvalPsi:
    def test_abs_kink_decomposition(self):
        psi = builtin_convex_test("abs")
        assert eval_psi(psi, 3.0) == 3.0          # (3-0)+ * 2 + (-1) * 3
        assert eval_psi(psi, -2.0) == 2.0

    def test_square_against_closed_form(self):
        psi = builtin_convex_test("square")
        assert eval_psi(psi, -1.5) == pytest.approx(2.25, abs=1e-12)

    def test_call_below_kink(self):
        psi = builtin_convex_test("call", strike=1.0)
        assert eval_psi(psi, 0.5) == 0.0
        assert eval_psi(psi, 3.0) == 2.0

    def test_negative_strike_call(self):
        psi = builtin_convex_test("call", strike=-2.0)
        for x in (-3.0, -2.0, 0.0, 1.5):
            assert eval_psi(psi, x) == pytest.approx(max(x + 2.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("psi", ALL_BUILTINS, ids=lambda p: p.label)
    def test_reconstruction_matches_closed_form(self, psi):
        for x in np.linspace(-10.0, 10.0, 81):
            assert eval_psi(psi, x) == pytest.approx(
                float(psi.closed_form(x)), abs=1e-9)

    @pytest.mark.parametrize("psi", ALL_BUILTINS, ids=lambda p: p.label)
    def test_reconstruction_is_convex(self, psi):
        xs = np.linspace(-6.0, 6.0, 121)
        vals = np.array([eval_psi(psi, x) for x in xs])
        assert np.all(vals[:-2] + vals[2:] - 2.0 * vals[1:-1] >= -1e-10)


class TestSecondDerivativeIntegrals:
    def test_atom_evaluation_against_heat_kernel(self):
        psi = builtin_convex_test("abs")
        val = integrate_against_second_derivative(psi, std_normal_pdf)
        assert val == pytest.approx(2.0 / math.sqrt(2.0 * math.pi), abs=1e-14)

    def test_infinite_mass_flagged(self):
        psi = builtin_convex_test("square")
        assert integrate_against_second_derivative(psi, lambda y: 1.0) == math.inf
        assert second_derivative_mass(psi) == math.inf

    def test_single_atom_moment(self):
        psi = builtin_convex_test("call", strike=1.0)
        assert integrate_against_second_derivative(psi, lambda y: y * y) == 1.0

    def test_finite_masses(self):
        assert second_derivative_mass(builtin_convex_test("abs")) == 2.0
        assert second_derivative_mass(builtin_convex_test("corridor", width=1.0)) == 2.0
        assert second_derivative_mass(builtin_convex_test("power", p=3)) == math.inf


def closed_over_residual(variance, var_x):
    """The bl2 inner integrand closed over its own level sqrt(x^2 + A),
    horizon (A - var_x)^2 / A and clamp: the oracle of est1_lower."""
    var_x = min(max(var_x, 0.0), variance)
    horizon = (variance - var_x) ** 2 / variance

    def residual(x):
        level = np.sqrt(np.square(x) + variance)
        return np.maximum(expected_local_time_array(level, horizon), 0.0)

    return residual


def closed_over_bl2(psi, variance, var_x):
    """The bl2 correction through the closed-over residual, independent of
    est1_lower and check_variance_pair."""
    if var_x > variance * (1.0 + 1e-9) + 1e-12:
        raise ValueError("exceeds")
    if min(max(var_x, 0.0), variance) == variance:
        return 0.0
    window = 12.0 * math.sqrt(variance) + 10.0
    return 0.5 * integrate_against_second_derivative(
        psi, closed_over_residual(variance, var_x), window=window)


# the psis of the benchmark's verify sweep, with its explicit psi'' data at
# their template values
SWEEP_SPECS = [
    "abs", "square", {"power": 3}, {"power": 5}, {"call": 1.0},
    {"corridor": 1.0},
    {"label": "data_kinks_linear", "atoms": [[-0.75, 0.5], [1.25, 1.5]],
     "density_poly_coeffs": [0.5, 0.25]},
    {"label": "data_atom_quadratic", "atoms": [[0.0, 1.0]],
     "density_poly_coeffs": [1.0, 0.0, 0.3]}]
SWEEP_PSIS = [convex_test_from_spec(s) for s in SWEEP_SPECS]


class TestBl2Correction:
    @pytest.mark.parametrize("variance", [1.0, 4.0])
    def test_matches_closed_over_oracle_bit_for_bit(self, matrix_transports,
                                                    variance):
        for key in MATRIX_KEYS:
            var_x = matrix_transports[key].var_mu
            for psi in SWEEP_PSIS:
                got = bl2_correction(psi, variance, var_x)
                assert got == closed_over_bl2(psi, variance, var_x), \
                    (key, psi.label)

    @pytest.mark.parametrize("variance", [1.0, 4.0])
    def test_est1_lower_is_the_residual_elementwise(self, matrix_transports,
                                                    variance):
        x = np.concatenate([np.linspace(-60.0, 60.0, 2401),
                            [0.0, -0.0, 5e-324, 1e-300, 1e15, -1e15]])
        for key in MATRIX_KEYS:
            var_x = matrix_transports[key].var_mu
            expected = closed_over_residual(variance, var_x)(x)
            got = est1_lower(x, variance, var_x)
            assert got.shape == x.shape
            assert np.array_equal(got, expected), key
            scalars = [est1_lower(float(v), variance, var_x) for v in x]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(np.array(scalars), expected), key

    def test_zero_when_variances_match(self):
        for psi in ALL_BUILTINS:
            assert bl2_correction(psi, 1.0, 1.0) == 0.0

    def test_single_atom_reduction(self):
        # psi = |.|: correction = int_0^{1/4} p(s; 1) ds, by quadrature oracle
        oracle, _ = quad(lambda s: heat_kernel(s, 1.0), 0, 0.25,
                         epsabs=1e-15, limit=400)
        psi = builtin_convex_test("abs")
        assert bl2_correction(psi, 1.0, 0.5) == pytest.approx(oracle, abs=1e-10)
        assert bl2_correction(psi, 1.0, 0.5) == pytest.approx(
            0.00849070261682964, abs=1e-12)

    def test_square_nested_quadrature_vs_oracle(self):
        # independent nested-quadrature oracle of the double integral
        def inner(x):
            v, _ = quad(lambda s: heat_kernel(s, math.sqrt(x * x + 1.0)),
                        0, 0.25, epsabs=1e-13, limit=200)
            return v
        oracle, _ = quad(lambda x: 2.0 * inner(x), -30, 30,
                         epsabs=1e-11, limit=400)
        psi = builtin_convex_test("square")
        assert bl2_correction(psi, 1.0, 0.5) == pytest.approx(0.5 * oracle,
                                                              rel=1e-7)

    def test_monotone_nonincreasing_in_var_x(self):
        psi = builtin_convex_test("abs")
        vals = [bl2_correction(psi, 1.0, v) for v in np.linspace(0.0, 1.0, 11)]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_rejects_inconsistent_variance(self):
        with pytest.raises(ValueError, match="exceeds"):
            bl2_correction(builtin_convex_test("abs"), 1.0, 1.5)


class TestBl3Constant:
    def test_abs_closed_form(self):
        val = bl3_constant(builtin_convex_test("abs"), 1.0, 2.0)
        assert val == pytest.approx(3.0 ** 0.25 * 2.0 / math.sqrt(2 * math.pi),
                                    abs=1e-12)

    def test_square_gaussian_normalization(self):
        # (3)^{1/4} * 2 * int p(1; x/sqrt 3) dx = 3^{1/4} * 2 * sqrt(3)
        val = bl3_constant(builtin_convex_test("square"), 1.0, 2.0)
        assert val == pytest.approx(3.0 ** 0.25 * 2.0 * math.sqrt(3.0), rel=1e-10)

    def test_linear_psi_vanishes(self):
        linear = ConvexTest("linear", 0.0, 1.0)
        assert bl3_constant(linear, 1.0, 2.0) == 0.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            bl3_constant(builtin_convex_test("abs"), 1.0, 1.0)

    def test_large_q_limit_matches_finite_mass_coefficient(self):
        # as q grows the constant approaches psi''(R) / sqrt(2 pi)
        psi = builtin_convex_test("corridor", width=1.0)
        lim = second_derivative_mass(psi) / math.sqrt(2.0 * math.pi)
        assert bl3_constant(psi, 1.0, 1e4) == pytest.approx(lim, rel=1e-2)


class TestP1LimitBounds:
    def test_abs_finite_mass_bound(self):
        rb = p1_limit_bounds(builtin_convex_test("abs"), 1.0, 0.75)
        assert rb.finite_mass_bound == pytest.approx(
            2.0 * 0.5 / math.sqrt(2.0 * math.pi), abs=1e-14)

    def test_infinite_mass_is_na(self):
        rb = p1_limit_bounds(builtin_convex_test("square"), 1.0, 0.5)
        assert rb.finite_mass_bound is None

    def test_mad_lower_closed_form(self):
        rb = p1_limit_bounds(builtin_convex_test("abs"), 1.0, 0.5)
        assert rb.mad_lower == pytest.approx(0.3989422804014327, abs=1e-15)


class TestSpecParsing:
    def test_string_and_dict_forms(self):
        assert convex_test_from_spec("abs").label == "abs"
        assert convex_test_from_spec({"power": 3}).label == "power(3)"
        assert convex_test_from_spec({"call": 1.0}).atoms == ((1.0, 1.0),)
        assert convex_test_from_spec({"corridor": 2.0}).atoms == ((-2.0, 1.0), (2.0, 1.0))

    @pytest.mark.parametrize("spec", [
        {"atoms": [[-0.75, 0.5], [1.25, 1.5]], "density_poly_coeffs": [0.5, 0.25],
         "value_at_zero": 0.3, "left_slope_at_zero": -0.7},
        {"atoms": [[0.0, 1.0]], "density_poly_coeffs": [1.0, 0.0, 0.3]},
        {"density_poly_coeffs": [0.0, 0.0, 0.0, 2.0]},
        {"atoms": [[0.5, 1.0]]},
    ])
    def test_polynomial_closed_form_matches_reconstruction(self, spec):
        psi = convex_test_from_spec(spec)
        xs = np.linspace(-10.0, 10.0, 81)
        got = np.asarray(psi.closed_form(xs), float)
        for x, g in zip(xs, got):
            ref = eval_psi(psi, x)
            assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_custom_atoms_and_density(self):
        psi = convex_test_from_spec({"atoms": [[0.0, 2.0]],
                                     "density_poly_coeffs": [1.0]})
        assert eval_psi(psi, 2.0) == pytest.approx(2.0 * 2.0 + 2.0, abs=1e-10)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            convex_test_from_spec({"atoms": [[0.0, -1.0]]})

    def test_rejects_power_below_two(self):
        with pytest.raises(ValueError):
            convex_test_from_spec({"power": 1.5})

    @pytest.mark.parametrize("spec", [
        {"power": 3, "call": 1.0},
        {"call": 1.0, "label": "c"},
        {"lable": "x", "atoms": [[0.0, 1.0]]},
        {"atoms": [[0.0, 1.0]], "density": [1.0]},
    ])
    def test_rejects_unknown_keys(self, spec):
        with pytest.raises(ValueError, match="key"):
            convex_test_from_spec(spec)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            convex_test_from_spec(42)


@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=-8, max_value=8))
@settings(max_examples=150, deadline=None)
def test_midpoint_convexity_of_reconstruction(x1, x2):
    psi = builtin_convex_test("corridor", width=0.7)
    mid = eval_psi(psi, 0.5 * (x1 + x2))
    assert mid <= 0.5 * (eval_psi(psi, x1) + eval_psi(psi, x2)) + 1e-12
