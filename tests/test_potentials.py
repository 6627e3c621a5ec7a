import math

import numpy as np
import pytest

from blverify.potentials import (_POTENTIAL_FAMILIES, builtin_potential,
                                 builtin_slope_map,
                                 check_slope_bounds,
                                 gaussian_mixture_slope_map,
                                 log_mixture_slope_map)

LM = dict(p=0.5, q=0.5 * math.sqrt(2.0), a=1.0, b=2.0)
# three atoms with sum w / sqrt(kappa) = 1
ATOMS3 = [(0.3, 1.0), (0.4, 2.0), (2.0 * (1.0 - 0.3 - 0.4 / math.sqrt(2.0)), 4.0)]
GRID = np.linspace(-8.0, 8.0, 1601)
U = 2.0 ** -53


def finite_diff(f, x, h=1e-6):
    return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)


class TestBuiltinPotentials:
    def test_zero(self):
        pot = builtin_potential("zero")
        assert np.all(np.asarray(pot.value(GRID)) == 0.0)
        assert pot.convex

    def test_double_well_formula(self):
        # the cubic map's U = k^2/2 - log k' with k = x + x^3
        pot = builtin_slope_map("cubic").potential
        x = np.array([-1.7, -0.4, 0.0, 0.9, 2.3])
        expected = 0.5 * x**2 + x**4 + 0.5 * x**6 - np.log(1 + 3 * x**2)
        np.testing.assert_allclose(pot.value(x), expected, atol=1e-14)
        assert not pot.convex

    def test_log_mixture_constraint_enforced(self):
        with pytest.raises(ValueError, match="p/sqrt"):
            builtin_slope_map("log_mixture",
                              {"p": 0.5, "q": 0.6, "a": 1.0, "b": 2.0})
        with pytest.raises(ValueError):
            builtin_slope_map("log_mixture",
                              {"p": 0.5, "q": LM["q"], "a": 2.0, "b": 1.0})

    def test_log_mixture_value(self):
        pot = builtin_slope_map("log_mixture", LM).potential
        x = np.array([-2.0, 0.0, 0.7, 3.0])
        expected = -np.log(LM["p"] * np.exp(-0.5 * LM["a"] * x**2)
                           + LM["q"] * np.exp(-0.5 * LM["b"] * x**2))
        np.testing.assert_allclose(pot.value(x), expected, atol=1e-13)

    def test_unknown_family(self):
        # the double well and the log mixture are slope-map potentials only
        for name in ("cubic_well", "double_well", "log_mixture"):
            with pytest.raises(ValueError, match="unknown potential"):
                builtin_potential(name)

    @pytest.mark.parametrize("name", sorted(_POTENTIAL_FAMILIES))
    def test_every_catalog_family_is_convex(self, name):
        # the CLI's theorem route takes catalog families without a
        # convexity check of its own; the values must bear the flag out
        pot = builtin_potential(name)
        assert pot.convex
        v = np.asarray(pot.value(GRID), float)
        assert np.all(v[:-2] - 2.0 * v[1:-1] + v[2:] >= -1e-12)


def slope_map_case(name):
    """Each catalog map of the oracle test."""
    if name == "linear_sqrt2":
        return builtin_slope_map("linear", {"scale": math.sqrt(2.0)})
    if name == "log_mixture":
        return builtin_slope_map("log_mixture", LM)
    if name == "cubic":
        return builtin_slope_map("cubic")
    return gaussian_mixture_slope_map(ATOMS3)


class TestSlopeMapPotentialOracle:
    """Each catalog map's closed-form U against the construction through k:
    U = k^2/2 - log k'."""

    # the grid plus points near 0, where k' -> 1 and log k' loses its
    # relative accuracy
    X = np.concatenate([np.linspace(-30.0, 30.0, 60001),
                        np.geomspace(1e-12, 1e-2, 200),
                        -np.geomspace(1e-12, 1e-2, 200)])

    @pytest.mark.parametrize("name", ["linear_sqrt2", "cubic", "log_mixture",
                                      "mixture3"])
    def test_closed_form_matches_k_construction(self, name):
        sm = slope_map_case(name)
        x = self.X
        kx, kpx = sm.k(x), sm.k_prime(x)
        u_oracle = 0.5 * kx ** 2 - np.log(kpx)
        # Errors are scaled by the terms' sizes, not by |U|, which crosses
        # zero.  log k' of a k' with relative error u is off by u in
        # absolute terms, hence the 1.  Measured worst case: 7.6 u (cubic,
        # x = 16.1).
        u_scale = np.abs(0.5 * kx ** 2) + np.abs(np.log(kpx)) + 1.0
        pot = sm.potential
        assert pot.label == f"slope[{sm.label}]"
        assert np.all(np.abs(pot.value(x) - u_oracle) <= 10 * U * u_scale)


class TestSlopeMaps:
    def test_linear_map_gives_gaussian_potential(self):
        pot = builtin_slope_map("linear").potential
        x = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(pot.value(x), 0.5 * x**2, atol=1e-14)
        assert pot.convex

    def test_scaled_linear_map(self):
        # k = sqrt(2) x: U = x^2 - log(sqrt 2), the N(0, 1/2) potential
        sm = builtin_slope_map("linear", {"scale": math.sqrt(2.0)})
        x = np.linspace(-3, 3, 31)
        np.testing.assert_allclose(sm.potential.value(x),
                                   x**2 - 0.5 * math.log(2.0), atol=1e-14)

    def test_cubic_map_reproduces_double_well(self):
        # U = -5 x^2/2 + 11 x^4/2 - 17 x^6/2 + ... near 0: a local maximum
        # between two wells, so the measure is not log-concave
        pot = builtin_slope_map("cubic").potential
        h = 1e-3
        second = (pot.value(h) - 2.0 * pot.value(0.0) + pot.value(-h)) / h**2
        assert second == pytest.approx(-5.0 + 11.0 * h**2, rel=1e-9)
        assert np.all(pot.value(np.array([-0.5, 0.5])) < pot.value(0.0))
        assert not pot.convex

    def test_cubic_slope_bounds(self):
        sm = builtin_slope_map("cubic")
        rep = check_slope_bounds(sm, np.arange(-5.0, 5.0 + 1e-12, 0.01))
        assert rep.passed
        assert rep.min_kprime == pytest.approx(1.0, abs=1e-12)

    def test_identity_bounds_trivial(self):
        rep = check_slope_bounds(builtin_slope_map("linear"),
                                 np.array([-1.0, 0.0, 1.0]))
        assert rep.min_kprime == rep.max_kprime == 1.0
        assert rep.passed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_slope_bounds(builtin_slope_map("linear"), np.array([]))


class TestLogMixtureSlopeMap:
    def test_k_at_zero(self):
        sm = log_mixture_slope_map(**LM)
        assert float(sm.k(0.0)) == 0.0

    def test_k_odd_and_increasing(self):
        sm = log_mixture_slope_map(**LM)
        x = np.linspace(-8, 8, 401)
        kx = np.asarray(sm.k(x), float)
        np.testing.assert_allclose(kx, -kx[::-1], atol=1e-12)
        assert np.all(np.diff(kx) > 0)

    def test_k_at_one_against_quadrature_oracle(self):
        # composing the two CDFs and inverting with a bisection oracle
        sm = log_mixture_slope_map(**LM)
        assert float(sm.k(1.0)) == pytest.approx(1.181750138667503, abs=1e-11)

    def test_k_prime_matches_finite_differences(self):
        sm = log_mixture_slope_map(**LM)
        x = np.linspace(-6.0, 6.0, 121)
        np.testing.assert_allclose(sm.k_prime(x), finite_diff(sm.k, x),
                                   atol=1e-8, rtol=1e-8)

    def test_slope_bounds_p_and_sqrt_b(self):
        sm = log_mixture_slope_map(**LM)
        rep = check_slope_bounds(sm, np.arange(-8.0, 8.0 + 1e-12, 0.01))
        assert rep.passed
        assert rep.min_kprime >= LM["p"] - 1e-10
        assert rep.max_kprime <= math.sqrt(LM["b"]) + 1e-10

    def test_potential_identity(self):
        # the map's potential is -log(p e^{-a x^2/2} + q e^{-b x^2/2}),
        # computed with the e^{-a x^2/2} factored out
        pot = log_mixture_slope_map(**LM).potential
        x = np.linspace(-8.0, 8.0, 321)
        np.testing.assert_allclose(
            pot.value(x),
            0.5 * LM["a"] * x**2 - np.log(
                LM["p"] + LM["q"] * np.exp(-0.5 * (LM["b"] - LM["a"]) * x**2)),
            rtol=4 * U, atol=4 * U)
        assert pot.label == "slope[log_mixture_k(p=0.5,q=0.707107,a=1,b=2)]"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            log_mixture_slope_map(p=0.5, q=0.6, a=1.0, b=2.0)
        with pytest.raises(ValueError, match="a < b"):
            log_mixture_slope_map(p=0.5, q=LM["q"], a=3.0, b=2.0)


class TestGaussianMixtureSlopeMap:
    ATOMS = ATOMS3

    def test_two_atom_case_matches_dedicated_constructor(self):
        lm = log_mixture_slope_map(**LM)
        gm = gaussian_mixture_slope_map([(LM["p"], LM["a"]), (LM["q"], LM["b"])])
        x = np.linspace(-6, 6, 101)
        np.testing.assert_array_equal(lm.k(x), gm.k(x))
        assert lm.alpha == gm.alpha and lm.beta == gm.beta

    def test_three_atom_slope_bounds(self):
        sm = gaussian_mixture_slope_map(self.ATOMS)
        rep = check_slope_bounds(sm, GRID)
        assert rep.passed
        assert rep.min_kprime >= self.ATOMS[0][0] - 1e-10
        assert rep.max_kprime <= 2.0 + 1e-10

    def test_k_prime_matches_finite_differences(self):
        sm = gaussian_mixture_slope_map(self.ATOMS)
        x = np.linspace(-5.0, 5.0, 81)
        np.testing.assert_allclose(sm.k_prime(x), finite_diff(sm.k, x),
                                   atol=1e-8, rtol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            gaussian_mixture_slope_map([(1.0, 1.0)])
        with pytest.raises(ValueError, match="sum w/sqrt"):
            gaussian_mixture_slope_map([(0.5, 1.0), (0.5, 2.0)])
        with pytest.raises(ValueError, match="distinct"):
            gaussian_mixture_slope_map([(0.5, 1.0), (0.5, 1.0)])


def test_catalogs_reject_unknown_parameters():
    with pytest.raises(ValueError, match="bad parameters"):
        builtin_potential("linear", {"C": 30.0})
    with pytest.raises(ValueError, match="bad parameters"):
        builtin_potential("zero", {"c": 1.0})
    with pytest.raises(ValueError, match="bad parameters"):
        builtin_slope_map("cubic", {"scale": 3.0})
    with pytest.raises(ValueError, match="bad parameters"):
        builtin_slope_map("log_mixture", dict(LM, r=1.0))
