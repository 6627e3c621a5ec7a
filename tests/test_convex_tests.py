import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blverify import convex_tests, verifier
from blverify.convex_tests import (ConvexTest, bl2_correction, bl3_constant,
                                   builtin_convex_test, convex_test_from_spec,
                                   p1_limit_bounds, second_derivative_mass)
from blverify.gaussian_core import std_normal_pdf
from blverify.local_time import est1_lower, expected_local_time_array
from blverify.verifier import moment_lhs, moment_rhs

from conftest import MATRIX_KEYS
from test_gaussian_core import heat_kernel

# unit roundoff
U = 2.0 ** -53

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


def density_at(psi, y):
    """The psi'' density sum c |y|^e at the points y."""
    ay = np.abs(np.asarray(y, float))
    return sum(c * ay ** e for c, e in psi.density)


def eval_psi(psi, x):
    """psi(x) rebuilt from its second-derivative measure, the density part
    by scipy quadrature: the oracle of every test function's closed form."""
    x = float(x)
    out = psi.value_at_zero + psi.left_slope_at_zero * x
    for loc, mass in psi.atoms:
        out += mass * (max(x - loc, 0.0) if loc >= 0.0 else max(loc - x, 0.0))
    if psi.density and x != 0.0:
        # int (x - y)^+ psi''(dy) over [0, x] for x > 0 and
        # int (y - x)^+ psi''(dy) over [x, 0] for x < 0: |x - y| on both
        val, _ = quad(lambda y: abs(x - y) * float(density_at(psi, y)),
                      min(x, 0.0), max(x, 0.0), epsabs=1e-13, epsrel=1e-13,
                      limit=200)
        out += val
    return out


def gaussian_call(variance):
    """The integrand of ``moment_lhs``: the call value E(Y - |y|)^+ of
    Y ~ N(0, variance), half the expected local time at level y."""
    return lambda y: 0.5 * expected_local_time_array(y, variance)


def quad_reference(psi, f, window):
    """int f(y) psi''(dy) over |y| <= window: the atom sum plus one scipy
    ``quad`` of the density per half line, with f and the density called
    on one point at a time.  The oracle of every psi'' integral that the
    verdicts take in closed form or from the transport tables."""
    def scalar(y):
        return float(np.asarray(f(np.array([y])), float).reshape(-1)[0])

    total = 0.0
    for loc, mass in psi.atoms:
        total += mass * scalar(loc)
    if psi.density:
        h = lambda y: float(density_at(psi, y)) * scalar(y)
        for lo, hi in ((-window, 0.0), (0.0, window)):
            val, _ = quad(h, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)
            total += val
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


def _kernels():
    """(name, f, closed, window) of the three kernels at A = 1 and 4:
    closed(psi) is the production value of int f dpsi''."""
    out = []
    for a in (1.0, 4.0):
        sd = math.sqrt(a)
        out.append((f"gaussian_call(A={a:g})", gaussian_call(a),
                    lambda psi, _a=a: moment_lhs(psi, _a) - psi.value_at_zero,
                    12.0 * sd + 10.0))
        scale = math.sqrt(a * 3.0)
        out.append((f"heat_kernel(A={a:g},q=2)",
                    lambda x, _s=scale: std_normal_pdf(x / _s),
                    lambda psi, _a=a: (bl3_constant(psi, _a, 2.0)
                                       / (3.0 * _a) ** 0.25),
                    12.0 * scale + 10.0))
        horizon = (a - 0.6 * a) ** 2 / a
        out.append((f"bl2_kernel(A={a:g})",
                    lambda x, _a=a, _h=horizon: np.maximum(
                        expected_local_time_array(np.sqrt(x * x + _a), _h), 0.0),
                    lambda psi, _a=a: 2.0 * bl2_correction(psi, _a, 0.6 * _a),
                    12.0 * sd + 10.0))
    return out


KERNELS = _kernels()


class TestIntegratorOracle:
    """Every psi'' integral of the verdicts, each a closed-form or table
    sum, against the scalar quad form of its definition."""

    @pytest.mark.parametrize("psi", ORACLE_PSIS, ids=lambda p: p.label)
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k[0])
    def test_analytic_kernels(self, psi, kernel):
        _, f, closed, window = kernel
        ref = quad_reference(psi, f, window)
        assert abs(closed(psi) - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("key", MATRIX_KEYS)
    def test_transport_option_values(self, matrix_transports, key):
        # the window ends 11.43 sd of N(0, 1) inside the tables' reach,
        # beyond which a psi'' term takes less than 1.3e-18 of the integral
        tmap = matrix_transports[key]
        m = tmap.mean_mu
        window = (min(m - tmap.window[0], tmap.window[1] - m) - 0.5) / 1.05
        option = scalar_centered_option(tmap)
        for psi in ORACLE_PSIS:
            ref = psi.value_at_zero + quad_reference(psi, option, window)
            got = moment_rhs(psi, tmap)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), psi.label


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
        val = quad_reference(psi, std_normal_pdf, 60.0)
        assert val == pytest.approx(2.0 / math.sqrt(2.0 * math.pi), abs=1e-14)

    def test_infinite_mass_flagged(self):
        assert second_derivative_mass(builtin_convex_test("square")) == math.inf

    def test_single_atom_moment(self):
        psi = builtin_convex_test("call", strike=1.0)
        assert quad_reference(psi, lambda y: y * y, 60.0) == 1.0

    def test_finite_masses(self):
        assert second_derivative_mass(builtin_convex_test("abs")) == 2.0
        assert second_derivative_mass(builtin_convex_test("corridor", width=1.0)) == 2.0
        assert second_derivative_mass(builtin_convex_test("power", p=3)) == math.inf
        assert second_derivative_mass(ConvexTest("linear", 0.0, 1.0)) == 0.0

    def test_mass_is_a_closed_form(self):
        data = convex_test_from_spec({"atoms": [[0.5, 1.5], [-1.0, 0.25]],
                                      "density_poly_coeffs": [0.0]})
        assert second_derivative_mass(data) == 1.75
        assert second_derivative_mass(builtin_convex_test("power", p=22)) == math.inf


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
    """The bl2 correction through the closed-over residual and mpmath,
    independent of est1_lower, check_variance_pair and the continued
    fraction: (atom part as the float sum the verdict forms, density part
    exact at the caller's mpmath precision)."""
    if var_x > variance * (1.0 + 1e-9) + 1e-12:
        raise ValueError("exceeds")
    var_x = min(max(var_x, 0.0), variance)
    if var_x == variance:
        return 0.0, mpmath.mpf(0)
    residual = closed_over_residual(variance, var_x)
    atoms = 0.5 * sum(mass * float(residual(loc)) for loc, mass in psi.atoms)
    big_a = mpmath.mpf(variance)
    h = (big_a - var_x) ** 2 / big_a
    z = big_a / (2 * h)
    density = sum((0.5 * c * gaussian_abs_moment(1, e)
                   * (big_a / 2) ** (mpmath.mpf(e) / 2 + 1)
                   * mpmath.gammainc(-mpmath.mpf(e) / 2 - 1, z)
                   for c, e in psi.density), mpmath.mpf(0))
    return atoms, density


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
        # on the benchmark's matrix and verify-sweep psis: the atom sum bit
        # for bit, the whole correction within the density-term bound of
        # test_density_terms_against_mpmath_gammainc (measured here at most
        # 92.0 u (1 + z), power(5) on double_well_k at A = 4)
        with mpmath.workdps(40):
            for key in MATRIX_KEYS:
                var_x = matrix_transports[key].var_mu
                for psi in SWEEP_PSIS:
                    atoms, density = closed_over_bl2(psi, variance, var_x)
                    atoms_only = ConvexTest(psi.label, 0.0, 0.0,
                                            atoms=psi.atoms)
                    assert bl2_correction(atoms_only, variance, var_x) \
                        == atoms, (key, psi.label)
                    got = bl2_correction(psi, variance, var_x)
                    exact = atoms + density
                    if abs(got) < 2.2250738585072014e-308:
                        assert exact < 2.3e-308, (key, psi.label)
                        continue
                    var_c = min(var_x, variance)
                    z = 0.5 * variance ** 2 / (variance - var_c) ** 2
                    rel = float(abs(got / exact - 1)) / (1 + z)
                    assert rel <= 2 * 67.4 * U, (key, psi.label)

    def test_density_terms_against_mpmath_gammainc(self):
        # a term c |x|^e adds (c/2) E|Z|^e (A/2)^(e/2+1) Gamma(-e/2-1, z),
        # z = A / 2h, h = (A - var_x)^2 / A.  The sum's condition number in
        # h is about z, and h carries the rounding of A - var_x: measured
        # at most 67.4 u (1 + z) where the value is a normal float (101 u
        # at z = 1/2 from G, 1.5 u z as z grows); the bound is twice that
        with mpmath.workdps(40):
            worst = 0.0
            for e in (0, 0.5, 1, 2, 3, 5.5, 7, 10, 13.7, 19.5, 20):
                psi = ConvexTest("t", 0.0, 0.0, density=((1.5, e),))
                for a in np.geomspace(1e-6, 1e4, 11):
                    for ratio in (0.0, 0.1, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99):
                        var_x = ratio * a
                        got = bl2_correction(psi, a, var_x)
                        big_a = mpmath.mpf(a)
                        h = (big_a - var_x) ** 2 / big_a
                        z = big_a / (2 * h)
                        exact = (0.75 * gaussian_abs_moment(1, e)
                                 * (big_a / 2) ** (mpmath.mpf(e) / 2 + 1)
                                 * mpmath.gammainc(-mpmath.mpf(e) / 2 - 1, z))
                        if abs(got) < 2.2250738585072014e-308:
                            assert exact < 2.3e-308, (e, a, ratio)
                            continue
                        rel = float(abs(got / exact - 1)) / (1 + float(z))
                        worst = max(worst, rel)
        assert worst <= 2 * 67.4 * U

    def test_upper_gamma_scaled_against_mpmath(self, monkeypatch):
        # G(a, z) = e^z z^-a Gamma(a, z) at bl2's a = -e/2 - 1: measured at
        # most 97.6 u off (e = 2, z = 1/2) in at most 160 terms (e = 0,
        # z = 1/2); the bound is twice that, the term count exact
        g = convex_tests._upper_gamma_scaled
        zs = np.concatenate([np.geomspace(0.5, 745.0, 41), [1.0, 2.0, 700.0]])
        monkeypatch.setattr(convex_tests, "_CF_MAX_TERMS", 160)
        with mpmath.workdps(40):
            for e in (0, 0.5, 1, 2, 3, 5, 10, 19.5, 20):
                a = -0.5 * e - 1.0
                for z in zs:
                    exact = (mpmath.exp(z) * mpmath.mpf(z) ** -a
                             * mpmath.gammainc(a, z))
                    assert abs(g(a, z) / exact - 1) <= 2 * 97.6 * U, (e, z)
        monkeypatch.setattr(convex_tests, "_CF_MAX_TERMS", 159)
        with pytest.raises(RuntimeError, match="did not converge in 159"):
            g(-1.0, 0.5)

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

    @pytest.mark.parametrize("term", [(1.0, 20.5), (1.0, 21), (1.0, -1.0),
                                      (0.0, 2), (-1.0, 2), (math.inf, 0),
                                      (math.nan, 0), (1.0, math.nan)])
    def test_rejects_density_terms_off_the_cap(self, term):
        with pytest.raises(ValueError, match="density term"):
            ConvexTest("t", 0.0, 0.0, density=(term,))

    def test_exponent_cap_of_the_config_forms(self):
        assert convex_test_from_spec({"power": 22}).density == ((462.0, 20.0),)
        with pytest.raises(ValueError, match="2 <= p <= 22"):
            convex_test_from_spec({"power": 22.5})
        spec = {"density_poly_coeffs": [1.0] * 21}
        assert convex_test_from_spec(spec).density[-1] == (1.0, 20)
        with pytest.raises(ValueError, match="density term"):
            convex_test_from_spec({"density_poly_coeffs": [1.0] * 22})

    def test_density_keeps_only_positive_terms(self):
        psi = convex_test_from_spec({"density_poly_coeffs": [1.0, 0.0, 0.3]})
        assert psi.density == ((1.0, 0), (0.3, 2))

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


def gaussian_abs_moment(variance, m):
    """E|Y|^m for Y ~ N(0, variance), in the caller's mpmath precision."""
    m = mpmath.mpf(m)
    return ((2 * mpmath.mpf(variance)) ** (m / 2) * mpmath.gamma((m + 1) / 2)
            / mpmath.sqrt(mpmath.pi))


def test_gaussian_sides_integrate_nothing(monkeypatch, matrix_transports):
    # every psi'' integral of a verdict is a sum over the atoms and the
    # density terms: its kernel is evaluated at the atoms alone, and the
    # tilted side reads the tables' moments once per psi
    sizes, moment_calls = [], []

    def at_atoms(f):
        def recorded(x, *args):
            sizes.append(np.size(x))
            return f(x, *args)
        return recorded

    tmap = matrix_transports["quadratic"]
    monkeypatch.setattr(convex_tests, "est1_lower", at_atoms(est1_lower))
    monkeypatch.setattr(convex_tests, "std_normal_pdf",
                        at_atoms(std_normal_pdf))
    monkeypatch.setattr(verifier, "expected_local_time_array",
                        at_atoms(expected_local_time_array))
    for name in ("upper_call_value", "lower_put_value"):
        monkeypatch.setattr(tmap, name, at_atoms(getattr(tmap, name)))
    monkeypatch.setattr(tmap, "central_abs_moments",
                        lambda k: moment_calls.append(k)
                        or type(tmap).central_abs_moments(tmap, k))
    for psi in ORACLE_PSIS:
        sizes.clear()
        moment_calls.clear()
        assert moment_lhs(psi, 2.0) > 0.0
        assert bl3_constant(psi, 2.0, 3.0) > 0.0
        assert bl2_correction(psi, 2.0, 1.0) > 0.0
        assert moment_rhs(psi, tmap) > 0.0
        assert all(n <= len(psi.atoms) for n in sizes), psi.label
        assert len(moment_calls) == (1 if psi.density else 0), psi.label


# Both are closed-form sums.  Measured on 12000 draws of this kind, with A
# anywhere in [1e-8, 1e8] and exponents anywhere in [0, 20]: the largest
# error of moment_lhs is 3.4e-4 and of bl3_constant 3.3e-4 of
# max(1e-13, 1e-11 |value|), about 30 u relative (a power S^(e+1) carries
# e + 1 times the rounding of its base).  The bound is 5 times the larger.
CLOSED_FORM_SHARE = 5 * 3.4e-4


@given(log_a=st.floats(-8.0, 8.0),
       atoms=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 3.0)),
                      max_size=2),
       terms=st.lists(st.tuples(st.floats(0.1, 3.0),
                                st.one_of(st.integers(0, 20),
                                          st.floats(0.0, 20.0))),
                      min_size=1, max_size=3),
       q=st.sampled_from([4.0 / 3.0, 2.0, 3.0]))
@example(log_a=-8.0, atoms=[(0.5, 1.0)], terms=[(1.0, 0), (2.0, 20.0)], q=2.0)
@example(log_a=8.0, atoms=[(-3.0, 2.0)], terms=[(0.5, 20)], q=4.0 / 3.0)
@settings(max_examples=100, deadline=None)
def test_lhs_and_bl3_against_closed_forms(log_a, atoms, terms, q):
    # atoms at loc sqrt(A); lhs = sum m E(Y - |loc|)^+ + sum c E|Y|^(e+2) /
    # ((e+1)(e+2)), bl3 = (A(1+q))^(1/(2q)) (sum m p(1; loc/S) + sum c S^(e+1)
    # E|Z|^e) with S = sqrt(A(1+q))
    a = 10.0 ** log_a
    atoms = tuple((loc * math.sqrt(a), mass) for loc, mass in atoms)
    psi = ConvexTest("t", 0.0, 0.0, atoms=atoms, density=tuple(terms))
    with mpmath.workdps(40):
        sd, big_s = mpmath.sqrt(a), mpmath.sqrt(a * (1.0 + q))
        lhs = sum(mass * sd * (mpmath.npdf(abs(loc) / sd)
                               - abs(loc) / sd * mpmath.ncdf(-abs(loc) / sd))
                  for loc, mass in atoms)
        lhs += sum(c * gaussian_abs_moment(a, e + 2) / ((e + 1) * (e + 2))
                   for c, e in terms)
        factor = big_s ** (1.0 / q)
        bl3 = factor * (sum(mass * mpmath.npdf(loc / big_s)
                            for loc, mass in atoms)
                        + sum(c * big_s ** (e + 1) * gaussian_abs_moment(1, e)
                              for c, e in terms))
        lhs_err = abs(moment_lhs(psi, a) - lhs)
        bl3_err = abs(bl3_constant(psi, a, q) - bl3)
    assert lhs_err <= CLOSED_FORM_SHARE * max(1e-13, 1e-11 * float(lhs))
    assert bl3_err <= CLOSED_FORM_SHARE * max(1e-13 * float(factor),
                                              1e-11 * float(bl3))
