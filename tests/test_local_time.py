import math

import numpy as np
import pytest
from scipy.integrate import quad

from blverify.bass_embedding import ClarkIntegrand, simulate_embedding
from blverify.gaussian_core import std_normal_cdf
from blverify.local_time import (est1_lower, est2_upper,
                                 expected_local_time_array, local_time_gap_mc)
from blverify.potentials import builtin_potential
from blverify.transport import build_transport

from test_gaussian_core import heat_kernel


# Quadrature forms of E[L^x_t], kept as oracles for the closed form the
# package evaluates.

def occupation_oracle(x, t):
    # int_0^t p(s;x) ds with s = u^2
    if x == 0.0:
        return math.sqrt(2.0 / math.pi) * math.sqrt(t)
    val, _ = quad(lambda u: math.exp(-x * x / (2.0 * u * u)) if u > 0 else 0.0,
                  0.0, math.sqrt(t), epsabs=1e-14, epsrel=1e-13, limit=200)
    return math.sqrt(2.0 / math.pi) * val


def reflection_oracle(x, t):
    # 2 int_0^inf (y - |x|)^+ p(t; y) dy
    a = abs(x)
    val, _ = quad(lambda y: (y - a) * heat_kernel(t, y), a, np.inf,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * val


def scaled_oracle(x, t):
    # 2 int_0^inf (sqrt(t) y - |x|)^+ p(1; y) dy
    a = abs(x)
    st = math.sqrt(t)
    val, _ = quad(lambda y: (st * y - a) * heat_kernel(1.0, y), a / st, np.inf,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * val


LOCAL_TIME_FORMS = (expected_local_time_array, occupation_oracle,
                    reflection_oracle, scaled_oracle)


def worst_pairwise_disagreement(xs, ts):
    """Largest gap between any two of the closed form and the three
    quadrature oracles over the grid xs x ts."""
    worst = 0.0
    for x in xs:
        for t in ts:
            vals = [form(float(x), float(t)) for form in LOCAL_TIME_FORMS]
            worst = max(worst, max(vals) - min(vals))
    return worst


def closed_form_oracle(x, t):
    # sqrt(2t/pi) e^{-x^2/2t} - 2|x| Phi(-|x|/sqrt t), the antiderivative of
    # the occupation-time integral, derived independently
    a = abs(x)
    return (math.sqrt(2.0 * t / math.pi) * math.exp(-a * a / (2.0 * t))
            - 2.0 * a * std_normal_cdf(-a / math.sqrt(t)))


class TestExpectedLocalTime:
    def test_at_origin_closed_form(self):
        for t in (0.5, 1.0, 2.0):
            assert expected_local_time_array(0.0, t) == pytest.approx(
                math.sqrt(2.0 * t / math.pi), abs=1e-10)

    def test_far_level_negligible(self):
        assert expected_local_time_array(3.0, 0.01) <= 1e-10

    def test_even_in_level(self):
        assert (expected_local_time_array(1.2, 1.0)
                == expected_local_time_array(-1.2, 1.0))

    def test_three_formulas_agree_on_grid(self):
        # the closed form and the occupation/reflection/scaled quadratures
        xs = np.linspace(-3.0, 3.0, 20)
        ts = np.linspace(0.05, 4.0, 20)
        assert worst_pairwise_disagreement(xs, ts) <= 1e-9

    def test_monotone_in_time_and_level(self):
        elt = expected_local_time_array
        assert elt(0.5, 2.0) > elt(0.5, 1.0)
        assert elt(0.5, 1.0) > elt(1.5, 1.0)

    def test_far_tail_clamped_nonnegative(self):
        # the closed form cancels in the far tail: Phi's floor 5e-324 leaves
        # it at -4e-322 at level 40 and horizon 1/2; the clamp returns 0,
        # also to est1_lower, which evaluates it there
        assert closed_form_oracle(40.0, 0.5) < 0.0
        assert expected_local_time_array(40.0, 0.5) == 0.0
        for x in (8.0, 20.0, 40.0):
            assert 0.0 <= est1_lower(x, 1.0, 0.3) <= 1e-12
        assert est1_lower(40.0, 1.0, 0.3) == 0.0

    @pytest.mark.parametrize("t", [1e-6, 1.0, 1e3])
    def test_nonnegative_out_to_sixty_sd(self, t):
        # unclamped, the formula first dips below 0 near |x| / sqrt(t) = 38.3
        z = np.linspace(0.0, 60.0, 60001)
        x = np.concatenate([-z, z]) * math.sqrt(t)
        assert np.all(expected_local_time_array(x, t) >= 0.0)

    def test_vectorized_form_matches_quadrature(self):
        xs = np.array([-2.0, -0.3, 0.0, 0.7, 1.9])
        ts = np.array([0.2, 1.0, 2.5, 0.8, 3.0])
        vec = expected_local_time_array(xs, ts)
        for i in range(xs.size):
            assert vec[i] == pytest.approx(
                occupation_oracle(xs[i], ts[i]), abs=1e-11)
            assert vec[i] == pytest.approx(closed_form_oracle(xs[i], ts[i]),
                                           abs=1e-13)

    def test_vectorized_zero_horizon(self):
        assert expected_local_time_array(1.0, 0.0) == 0.0
        assert expected_local_time_array(1.0, -0.5) == 0.0


@pytest.fixture(scope="module")
def quad_ensemble():
    tmap = build_transport(builtin_potential("quadratic"), 1.0)
    return tmap, simulate_embedding(ClarkIntegrand(tmap), 20_000, 256, seed=11)


@pytest.fixture(scope="module")
def zero_ensemble():
    tmap = build_transport(builtin_potential("zero"), 1.0)
    return tmap, simulate_embedding(ClarkIntegrand(tmap), 5_000, 128, seed=3)


class TestGapMonteCarlo:
    def test_zero_potential_no_residual(self, zero_ensemble):
        # T = A on every path: the residual horizon is empty
        _, ens = zero_ensemble
        gap = local_time_gap_mc(ens, 0.0)
        assert gap.estimate <= 1e-12

    def test_unreachable_level(self, quad_ensemble):
        _, ens = quad_ensemble
        assert local_time_gap_mc(ens, 50.0).estimate <= 1e-10

    def test_deterministic_stopping_reduction(self, quad_ensemble):
        # T = 1/2 exactly: residual = E[E[L^{-z}_{1/2}]], z ~ N(0, 1/2);
        # 1-d quadrature oracle values, frozen:
        oracles = {0.0: 0.233694977255109, 1.0: 0.116376399515354}
        _, ens = quad_ensemble
        for x, expected in oracles.items():
            gap = local_time_gap_mc(ens, x)
            assert abs(gap.estimate - expected) <= 3.0 * gap.std_error

    def test_empty_rejected(self, quad_ensemble):
        # the ensemble refuses to be emptied, so local_time_gap_mc never
        # averages over zero paths
        _, ens = quad_ensemble
        import dataclasses
        with pytest.raises(ValueError, match="at least 2 paths"):
            empty = dataclasses.replace(ens, T=np.empty(0), bt=np.empty(0),
                                        w1=np.empty(0))
            local_time_gap_mc(empty, 0.0)


class TestClosedFormBounds:
    def test_zero_at_full_variance(self):
        assert est1_lower(0.3, 1.0, 1.0) == 0.0
        assert est2_upper(0.3, 1.0, 1.0, 2.0) == 0.0

    def test_est1_oracle_value(self):
        oracle, _ = quad(lambda s: math.exp(-1.0 / (2 * s)) / math.sqrt(2 * math.pi * s),
                         0, 0.25, epsabs=1e-15, limit=400)
        assert est1_lower(0.0, 1.0, 0.5) == pytest.approx(oracle, abs=1e-12)

    def test_est1_matches_occupation_oracle(self):
        for x, a, v in ((0.0, 1.0, 0.5), (1.5, 2.0, 0.8), (-3.0, 4.0, 0.1)):
            level = math.sqrt(x * x + a)
            assert est1_lower(x, a, v) == pytest.approx(
                occupation_oracle(level, (a - v) ** 2 / a), abs=1e-13)

    def test_est1_equals_local_time_at_shifted_level(self):
        assert est1_lower(1.5, 2.0, 0.8) == pytest.approx(
            expected_local_time_array(math.sqrt(1.5**2 + 2.0),
                                      (2.0 - 0.8) ** 2 / 2.0),
            abs=1e-13)

    def test_est1_monotone_in_level(self):
        assert est1_lower(0.0, 1.0, 0.5) >= est1_lower(2.0, 1.0, 0.5)

    def test_est2_arithmetic_oracle(self):
        val = est2_upper(0.0, 1.0, 0.5, 2.0)
        assert val == pytest.approx(
            2.0 * 3.0 ** 0.25 / math.sqrt(2 * math.pi) * 0.5 ** 0.25, abs=1e-14)

    def test_est2_decreasing_in_level(self):
        assert est2_upper(0.0, 1.0, 0.5, 2.0) > est2_upper(2.0, 1.0, 0.5, 2.0)

    def test_est2_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            est2_upper(0.0, 1.0, 0.5, 1.0)

    def test_sandwich_on_small_ensembles(self, quad_ensemble):
        tmap, ens = quad_ensemble
        for x in (0.0, 0.5, 1.0, 2.0):
            gap = local_time_gap_mc(ens, x)
            assert est1_lower(x, 1.0, tmap.var_mu) <= gap.estimate + 3 * gap.std_error
            for p in (1.5, 2.0, 4.0):
                assert gap.estimate - 3 * gap.std_error <= est2_upper(
                    x, 1.0, tmap.var_mu, p)


class TestAuxiliaryInequality:
    def test_smoothed_kernel_time_integral_bound(self, quad_ensemble):
        # E int_0^t p(s; |x - B(T)|) ds <= int_0^{A+t} p(s; x) ds
        _, ens = quad_ensemble
        for t in (0.5, 1.0):
            for x in (0.0, 1.0):
                vals = expected_local_time_array(x - ens.bt,
                                                 np.full(ens.n_paths, t))
                lhs = float(np.mean(vals))
                se = float(np.std(vals, ddof=1) / math.sqrt(ens.n_paths))
                rhs = expected_local_time_array(x, ens.clark.transport.A + t)
                assert lhs <= rhs + 3.0 * se
