import copy
import dataclasses
import functools
import json
import math

import mpmath
import numpy as np
import pytest

from blverify import verifier
from blverify.bass_embedding import ClarkIntegrand, simulate_embedding
from blverify.convex_tests import (ConvexTest, builtin_convex_test,
                                   convex_test_from_spec)
from blverify.gaussian_core import std_normal_cdf, std_normal_pdf
from blverify.potentials import (_GRID, Potential, SlopeMap,
                                 builtin_potential, builtin_slope_map,
                                 check_slope_bounds,
                                 gaussian_mixture_slope_map)
from blverify.transport import NonConvexPotentialError, build_transport
from blverify.verifier import (BL1_TOL, SlopeBoundError, _verdict,
                               appendix_transport,
                               check_declared_slope_bounds, format_float,
                               format_floats, gaussianized_potential,
                               moment_check, moment_lhs, moment_rhs,
                               verify_appendix, verify_theorem)

from test_bass_embedding import ensemble_at, law_transports
from test_convex_tests import SWEEP_PSIS
from test_potentials import ATOMS3

LM = dict(p=0.5, q=0.5 * math.sqrt(2.0), a=1.0, b=2.0)
PSIS = [builtin_convex_test("abs"), builtin_convex_test("square"),
        builtin_convex_test("power", p=3), builtin_convex_test("call", strike=1.0),
        builtin_convex_test("corridor", width=1.0)]


class TestMomentSides:
    def test_lhs_square_is_variance(self):
        assert moment_lhs(builtin_convex_test("square"), 1.0) == pytest.approx(
            1.0, abs=1e-11)
        assert moment_lhs(builtin_convex_test("square"), 4.0) == pytest.approx(
            4.0, abs=1e-10)

    def test_lhs_abs_gaussian_mad(self):
        assert moment_lhs(builtin_convex_test("abs"), 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-13)

    def test_lhs_half_gaussian_call(self):
        assert moment_lhs(builtin_convex_test("call", strike=0.0), 4.0) == \
            pytest.approx(math.sqrt(4.0 / (2.0 * math.pi)), abs=1e-13)

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_lhs_against_mpmath_closed_forms(self, a):
        # 40-digit closed forms: E|Y|^p = (2A)^{p/2} Gamma((p+1)/2) / sqrt(pi)
        # and the call E(Y - K)^+ = sqrt(A) (phi(k) - k Phi(-k)), k = K/sqrt(A).
        # Measured: at most 2.0e-15 relative (18 u, power(5) at A = 1).
        mp = mpmath.mp.clone()
        mp.dps = 40
        big_a = mp.mpf(a)

        def abs_moment(p):
            return ((2 * big_a) ** (mp.mpf(p) / 2)
                    * mp.gamma((mp.mpf(p) + 1) / 2) / mp.sqrt(mp.pi))

        def call(strike):
            sd = mp.sqrt(big_a)
            k = mp.mpf(strike) / sd
            return sd * (mp.npdf(k) - k * mp.ncdf(-k))

        data = {"label": "data", "atoms": [[-0.75, 0.5], [1.25, 1.5]],
                "density_poly_coeffs": [0.5, 0.25], "value_at_zero": 0.3,
                "left_slope_at_zero": -0.7}
        data_exact = (mp.mpf("0.3") + sum(mp.mpf(m) * call(abs(loc))
                                          for loc, m in data["atoms"])
                      + sum(mp.mpf(c) * abs_moment(i + 2) / ((i + 1) * (i + 2))
                            for i, c in enumerate(data["density_poly_coeffs"])))
        cases = [
            (builtin_convex_test("abs"), abs_moment(1)),
            (builtin_convex_test("square"), abs_moment(2)),
            (builtin_convex_test("power", p=3), abs_moment(3)),
            (builtin_convex_test("power", p=5), abs_moment(5)),
            (builtin_convex_test("call", strike=1.0), call(1)),
            (builtin_convex_test("call", strike=-1.0), call(-1)),
            (builtin_convex_test("corridor", width=1.0), 2 * call(1)),
            (convex_test_from_spec(data), data_exact),
        ]
        for psi, exact in cases:
            err = abs(mp.mpf(moment_lhs(psi, a)) - exact) / exact
            assert err <= 1e-14, (psi.label, float(err))

    def test_rhs_equals_lhs_for_zero_potential(self):
        tm = build_transport(builtin_potential("zero"), 1.0)
        for psi in PSIS:
            assert moment_rhs(psi, tm) == pytest.approx(
                moment_lhs(psi, 1.0), abs=1e-10)

    def test_rhs_square_is_variance(self):
        tq = build_transport(builtin_potential("quadratic"), 1.0)
        assert moment_rhs(builtin_convex_test("square"), tq) == pytest.approx(
            0.5, abs=1e-11)
        tl = build_transport(builtin_potential("linear"), 1.0)
        assert moment_rhs(builtin_convex_test("square"), tl) == pytest.approx(
            1.0, abs=1e-10)

    def test_rhs_against_sample_oracle(self):
        # independent oracle: direct quadrature of psi(x - m) rho(x)
        from scipy.integrate import quad
        tq = build_transport(builtin_potential("abs"), 1.0)
        m = tq.mean_mu
        psi = builtin_convex_test("corridor", width=1.0)
        density = lambda x: tq._unnormalized_density(x) / tq._z
        oracle, _ = quad(lambda x: float(psi.closed_form(x - m)) * density(x),
                         -14, 14, epsabs=1e-12, limit=400)
        assert moment_rhs(psi, tq) == pytest.approx(oracle, abs=1e-9)

    def test_rhs_abs_potential_mad_oracle(self):
        # frozen quadrature oracle: E|X| = 0.525135276160981 for the abs tilt
        ta = build_transport(builtin_potential("abs"), 1.0)
        assert moment_rhs(builtin_convex_test("abs"), ta) == pytest.approx(
            0.525135276160981, abs=1e-10)


class TestVerifyTheorem:
    def test_zero_potential_all_margins_vanish(self):
        tm = build_transport(builtin_potential("zero"), 1.0)
        for psi in PSIS:
            rep = verify_theorem(psi, tm)
            assert rep.all_passed
            assert abs(rep.bl1_margin) <= 1e-10
            assert rep.bl2_correction <= 1e-10
            for entry in rep.bl3:
                assert entry.margin >= -1e-10
                assert entry.upper_correction <= 1e-3  # variance noise floor

    def test_quadratic_square_closed_numbers(self):
        tm = build_transport(builtin_potential("quadratic"), 1.0)
        rep = verify_theorem(builtin_convex_test("square"), tm)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs == pytest.approx(0.5, abs=1e-10)
        assert rep.bl2_correction <= 0.5
        assert rep.all_passed

    def test_abs_tilt_with_abs_psi_identity(self):
        # for psi'' = 2 delta_0 the moment identity makes the bl1 margin equal
        # the residual local-time at level 0; frozen oracle for the quadratic
        # tilt: 0.233694977255109
        tq = build_transport(builtin_potential("quadratic"), 1.0)
        rep = verify_theorem(builtin_convex_test("abs"), tq)
        assert rep.bl1_margin == pytest.approx(0.233694977255109, abs=1e-9)

    def test_mad_ratio_bound(self):
        for name in ("zero", "linear", "quadratic", "abs"):
            tm = build_transport(builtin_potential(name), 1.0)
            rep = verify_theorem(builtin_convex_test("abs"), tm)
            assert rep.passes["mad"]
            assert rep.mad_ratio >= rep.mad_lower_bound - 1e-9

    @pytest.mark.parametrize("variance", [1.0, 4.0])
    def test_mad_ratio_is_the_abs_rhs(self, variance):
        # the table call value 2 E[(X - EX)^+] is moment_rhs of abs bit for bit
        for name in ("zero", "linear", "quadratic", "abs"):
            tm = build_transport(builtin_potential(name), variance)
            rep = verify_theorem(builtin_convex_test("square"), tm, p_list=())
            assert rep.mad_ratio == (
                moment_rhs(builtin_convex_test("abs"), tm) / tm.var_mu)

    def test_kept_gaussian_sides_leave_eq_hash_and_repr(self):
        psi = builtin_convex_test("abs")
        before = hash(psi), repr(psi)
        verify_theorem(psi, build_transport(builtin_potential("zero"), 1.0))
        assert psi._gaussian_sides
        assert (hash(psi), repr(psi)) == before
        assert psi == builtin_convex_test("abs")

    def test_gap_p1_bound_for_finite_mass(self):
        tm = build_transport(builtin_potential("abs"), 1.0)
        rep = verify_theorem(builtin_convex_test("abs"), tm)
        assert rep.gap_p1_bound is not None
        assert rep.passes["gap_p1"]
        rep2 = verify_theorem(builtin_convex_test("square"), tm)
        assert rep2.gap_p1_bound is None and "gap_p1" not in rep2.passes

    def test_rejects_nonconvex(self):
        tm = build_transport(builtin_slope_map("cubic").potential, 1.0)
        with pytest.raises(NonConvexPotentialError):
            verify_theorem(builtin_convex_test("abs"), tm)

    def test_report_serialization_roundtrip(self):
        tm = build_transport(builtin_potential("quadratic"), 1.0)
        rep = verify_theorem(builtin_convex_test("abs"), tm)
        blob = json.dumps(rep.to_json_dict())
        parsed = json.loads(blob)
        assert float(parsed["lhs"]) == rep.lhs
        assert float(parsed["bl3"][0]["margin"]) == rep.bl3[0].margin
        # pass flags recomputable from the stored numbers
        assert (float(parsed["bl1_margin"]) >= -1e-8) == parsed["passes"]["bl1"]


def _declared(sm, beta=None):
    return check_declared_slope_bounds(sm, sm.alpha, beta)


class TestVerifyAppendix:
    def test_identity_slope_map_is_standard_gaussian(self):
        sm = builtin_slope_map("linear")
        tm = appendix_transport(sm, sm.alpha)
        for psi in PSIS[:3]:
            rep = verify_appendix(psi, tm, _declared(sm))
            assert abs(rep.bl1_margin) <= 1e-9
            assert rep.all_passed

    def test_double_well_bounds(self):
        sm = builtin_slope_map("cubic")
        rep = verify_appendix(builtin_convex_test("square"),
                              appendix_transport(sm, sm.alpha), _declared(sm))
        assert rep.gaussian_variance == 1.0
        # frozen Lebesgue-quadrature oracle for the double-well variance
        assert rep.var_x == pytest.approx(0.356291797871914, abs=1e-10)
        assert rep.normalizer_residual == pytest.approx(0.0, abs=1e-9)
        assert rep.all_passed

    def test_log_mixture_variance_mixture_identity(self):
        # two-atom mixture with weights (1/2, 1/2): var = (1 + 1/2)/2 = 3/4
        sm = builtin_slope_map("log_mixture", LM)
        rep = verify_appendix(builtin_convex_test("square"),
                              appendix_transport(sm, sm.alpha),
                              _declared(sm, 2.0))
        assert rep.var_x == pytest.approx(0.75, abs=1e-10)
        assert rep.gaussian_variance == pytest.approx(4.0)   # 1/p^2
        assert rep.passes["lower"]
        assert rep.lower_lhs == pytest.approx(0.5, abs=1e-10)
        assert rep.all_passed

    def test_log_mixture_improved_alpha(self):
        # the declared report, read by a build at another alpha: the slope
        # extremes are copied, the pass flag and reverse bound are not
        sm = builtin_slope_map("log_mixture", LM)
        slope = _declared(sm, 2.0)
        rep = verify_appendix(builtin_convex_test("square"),
                              appendix_transport(sm, LM["a"]), slope)
        assert rep.gaussian_variance == pytest.approx(1.0)
        assert rep.bl1_margin == pytest.approx(0.25, abs=1e-9)
        assert (rep.slope_min, rep.slope_max) == (slope.min_kprime,
                                                  slope.max_kprime)
        assert set(rep.passes) == {"bl1", "bl2", "bl3"}
        assert rep.lower_variance is None
        assert rep.all_passed

    def test_improved_alpha_slope_bound_really_fails(self):
        # k' < sqrt(a) far out, so the pointwise check must reject alpha = a
        sm = builtin_slope_map("log_mixture", LM)
        with pytest.raises(SlopeBoundError):
            check_declared_slope_bounds(sm, LM["a"])

    def test_declared_report_carries_its_bounds(self):
        sm = builtin_slope_map("log_mixture", LM)
        slope = _declared(sm, 2.0)
        assert (slope.alpha, slope.beta) == (sm.alpha, 2.0)
        assert slope.passed
        with pytest.raises(SlopeBoundError, match="<= sqrt"):
            check_declared_slope_bounds(sm, sm.alpha, 0.3)

    def test_normalizer_is_sqrt_2pi(self):
        # Z' = sqrt(2 pi) for every slope-map potential
        for sm in (builtin_slope_map("cubic"),
                   builtin_slope_map("log_mixture", LM)):
            tm = appendix_transport(sm, sm.alpha)
            assert tm.Z * math.sqrt(tm.A) == pytest.approx(1.0, abs=1e-9)

    def test_gaussianized_potential_identity(self):
        ref = builtin_slope_map("cubic").potential
        pot = gaussianized_potential(ref, 1.0)
        xs = np.linspace(-2, 2, 21)
        np.testing.assert_allclose(
            np.asarray(pot.value(xs)) + 0.5 * xs**2, ref.value(xs), atol=1e-12)
        assert pot.label == "slope[cubic_k]~gauss" and not pot.convex


def nonincreasing_slope_map():
    """k = x^3 declared with alpha = 1e-6: k' = 3 x^2 vanishes at 0, so the
    map is not strictly increasing there and its U = k^2/2 - log k' is
    infinite at 0."""
    return SlopeMap(
        "cube_k", k=lambda x: np.asarray(x, float) ** 3,
        k_prime=lambda x: 3.0 * np.asarray(x, float) ** 2,
        potential=Potential(
            "slope[cube_k]",
            lambda x: (0.5 * np.asarray(x, float) ** 6
                       - np.log(3.0 * np.asarray(x, float) ** 2)),
            convex=False),
        alpha=1e-6)


def test_nonincreasing_slope_map_rejected():
    with pytest.raises(SlopeBoundError, match="min k' = 0"):
        check_declared_slope_bounds(nonincreasing_slope_map(), 1e-6)


def _raise(x):
    raise AssertionError("a density evaluation went through k or k'")


@pytest.mark.parametrize("sm", [
    builtin_slope_map("linear"), builtin_slope_map("cubic"),
    builtin_slope_map("log_mixture", LM), gaussian_mixture_slope_map(ATOMS3),
], ids=lambda sm: sm.label)
def test_appendix_transport_never_evaluates_k(sm):
    # the build reads the map's closed-form potential only
    guarded = dataclasses.replace(sm, k=_raise, k_prime=_raise)
    want = appendix_transport(sm, sm.alpha)
    got = appendix_transport(guarded, sm.alpha)
    assert (got.Z, got.var_mu) == (want.Z, want.var_mu)


def _mixture_law(atoms):
    """CDF, survival, variance and upper call value of the mixture
    sum_i c_i N(0, s_i^2), c_i = w_i / sqrt(kappa_i), s_i = 1/sqrt(kappa_i),
    the law of a Gaussian-mixture map's measure."""
    cs = [(w / math.sqrt(kp), 1.0 / math.sqrt(kp)) for w, kp in atoms]
    return (lambda y: sum(c * std_normal_cdf(y / s) for c, s in cs),
            lambda y: sum(c * std_normal_cdf(-y / s) for c, s in cs),
            sum(c * s * s for c, s in cs),
            lambda k: sum(c * (s * std_normal_pdf(k / s)
                               - k * std_normal_cdf(-k / s)) for c, s in cs),
            lambda k: sum(c * (s * std_normal_pdf(k / s)
                               + np.abs(k) * std_normal_cdf(-k / s))
                          for c, s in cs))


LAW_MAPS = {
    "cubic": lambda: builtin_slope_map("cubic"),
    "log_mixture": lambda: builtin_slope_map("log_mixture", LM),
    "mixture3": lambda: gaussian_mixture_slope_map(ATOMS3),
}
LAW_ATOMS = {"log_mixture": [(LM["p"], LM["a"]), (LM["q"], LM["b"])],
             "mixture3": ATOMS3}
# each map at its declared alpha and at an improved alpha below 1 / var X
LAW_CASES = [("cubic", 1.0), ("cubic", 2.0), ("log_mixture", 0.25),
             ("log_mixture", 1.0), ("mixture3", 0.09), ("mixture3", 1.0)]


@functools.lru_cache(maxsize=None)
def _law_build(name, alpha):
    return appendix_transport(LAW_MAPS[name](), alpha)


class TestSlopeMapBuildExactLaw:
    """Slope-map builds against the exact law of their measure, which does
    not depend on the alpha of the build: F_mu = Phi o k, the mixture
    sum_i c_i N(0, 1/kappa_i), and for the cubic map g(z) = the real root of
    x + x^3 = z, so that g = k^{-1}.  g takes a standard normal argument,
    g = F_mu^{-1} o Phi.  Every bound is 1.5 to 2 times the worst error
    measured over the six builds."""

    Z = np.linspace(-8.0, 8.0, 321)

    def _exact_law(self, name):
        if name == "cubic":
            k = builtin_slope_map("cubic").k
            return (lambda y: std_normal_cdf(k(y)),
                    lambda y: std_normal_cdf(-k(y)))
        return _mixture_law(LAW_ATOMS[name])[:2]

    @pytest.mark.parametrize("name,alpha", LAW_CASES)
    def test_g_pushes_the_gaussian_to_mu(self, name, alpha):
        tm = _law_build(name, alpha)
        z = self.Z
        g = tm.g(z)
        left = z <= 0.0
        phi = std_normal_cdf(np.where(left, z, -z))
        # the build's own cdf on the left and survival on the right;
        # measured 1.13e-14 relative
        built = np.where(left, tm.cdf(g), tm.survival(g))
        assert np.max(np.abs(built / phi - 1.0)) <= 1.7e-14
        # the exact law at g; measured 2.04e-14 (cubic, z = -8)
        cdf, survival = self._exact_law(name)
        exact = np.where(left, cdf(g), survival(g))
        assert np.max(np.abs(exact / phi - 1.0)) <= 3e-14
        # the build's cdf and survival against the exact law; measured 1.25e-14
        assert np.max(np.abs(built / exact - 1.0)) <= 2e-14

    @pytest.mark.parametrize("name,alpha", LAW_CASES)
    def test_g_prime_is_one_over_k_prime(self, name, alpha):
        # g = k^{-1}, so g' = 1 / k'(g); measured 1.9e-14 relative (cubic,
        # z = -7.1)
        tm = _law_build(name, alpha)
        exact = 1.0 / LAW_MAPS[name]().k_prime(tm.g(self.Z))
        assert np.max(np.abs(tm.g_prime(self.Z) / exact - 1.0)) <= 3e-14

    @pytest.mark.parametrize("name,alpha", LAW_CASES)
    def test_mean_is_zero(self, name, alpha):
        # the maps are odd; measured 5.6e-17
        assert abs(_law_build(name, alpha).mean_mu) <= 1e-16

    @pytest.mark.parametrize("name,alpha", LAW_CASES[2:])
    def test_mixture_variance(self, name, alpha):
        # var X = sum_i c_i / kappa_i, 0.75 for the default entry; measured
        # 1.1e-16
        var = _mixture_law(LAW_ATOMS[name])[2]
        if name == "log_mixture":
            assert var == pytest.approx(0.75, abs=1e-16)
        assert abs(_law_build(name, alpha).var_mu - var) <= 2.2e-16

    @pytest.mark.parametrize("name,alpha", LAW_CASES[2:])
    def test_mixture_upper_call(self, name, alpha):
        # sum_i c_i (s_i phi(c/s_i) - c Phi(-c/s_i)), scaled by its terms'
        # sizes since the difference cancels at large c; measured 1.95e-15
        *_, call, size = _mixture_law(LAW_ATOMS[name])
        c = np.linspace(-5.0, 5.0, 201)
        err = np.abs(_law_build(name, alpha).upper_call_value(c) - call(c))
        assert np.all(err <= 3e-15 * size(c))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_cubic_g_is_the_real_root(self, alpha):
        # t^3 = |z|/2 + sqrt(z^2/4 + 1/27) makes t - 1/(3t) the real root
        # of x + x^3 = |z|, written here without cancellation (3.5 u from a
        # 40-digit root); g is off by its median offset near 0, measured
        # 9.2e-16 at z = 0, and by 4.3e-16 relative for |z| >= 1
        z = self.Z
        t = np.cbrt(np.abs(z) / 2.0 + np.sqrt(z * z / 4.0 + 1.0 / 27.0))
        root = z / (t * t + 1.0 / 3.0 + 1.0 / (9.0 * t * t))
        g = _law_build("cubic", alpha).g(z)
        assert np.max(np.abs(g - root)) <= 1.5e-15


def verify_appendix_oracle(psi, slope_map, alpha, tmap, beta=None,
                           p_list=(1.5, 2.0, 4.0), require_slope_bound=True):
    """The appendix verdict as it was when it checked the declared slope
    bounds itself, for every psi, behind a flag for the improved alpha."""
    a = float(alpha)
    variance = 1.0 / a
    assert tmap.A == variance
    slope = check_slope_bounds(
        dataclasses.replace(slope_map, alpha=a, beta=beta), _GRID)
    if require_slope_bound and not slope.passed:
        raise SlopeBoundError(slope_map.label)
    rep = _verdict("appendix", psi, tmap, p_list)
    rep.normalizer_residual = tmap.Z * math.sqrt(variance) - 1.0
    rep.slope_min = slope.min_kprime
    rep.slope_max = slope.max_kprime
    if require_slope_bound:
        rep.passes["slope_bounds"] = slope.passed
    if beta is not None:
        rep.lower_variance = 1.0 / float(beta)
        rep.lower_lhs = moment_lhs(psi, rep.lower_variance)
        rep.lower_margin = rep.rhs - rep.lower_lhs
        rep.passes["lower"] = bool(rep.lower_margin >= -BL1_TOL)
    return rep


class TestVerifyAppendixOracle:
    """The verdicts that read the declared report equal the oracle's, field
    for field, at the declared alpha and at improved alpha 1."""

    @pytest.mark.parametrize("key,beta", [("double_well_k", None),
                                          ("log_mixture_k", 2.0)])
    def test_declared_alpha(self, matrix_transports, key, beta):
        sm = (builtin_slope_map("cubic") if key == "double_well_k"
              else builtin_slope_map("log_mixture", LM))
        tm = matrix_transports[key]
        slope = _declared(sm, beta)
        for psi in SWEEP_PSIS:
            want = verify_appendix_oracle(psi, sm, sm.alpha, tm, beta=beta)
            assert verify_appendix(psi, tm, slope).to_json_dict() == \
                want.to_json_dict(), psi.label

    def test_improved_alpha(self, matrix_transports):
        sm = builtin_slope_map("log_mixture", LM)
        slope = _declared(sm, 2.0)
        tm = appendix_transport(sm, 1.0)
        for psi in SWEEP_PSIS:
            want = verify_appendix_oracle(psi, sm, 1.0, tm, p_list=(),
                                          require_slope_bound=False)
            assert verify_appendix(psi, tm, slope, p_list=()).to_json_dict() \
                == want.to_json_dict(), psi.label

    def test_improved_alpha_at_the_declared_alpha(self, matrix_transports):
        # the cubic map declares alpha = 1, so its "improved" build is the
        # declared one and gets the declared verdict, slope flag included;
        # the flagged oracle left that flag out
        sm = builtin_slope_map("cubic")
        slope = _declared(sm)
        tm = matrix_transports["double_well_k"]
        for psi in SWEEP_PSIS:
            got = verify_appendix(psi, tm, slope, p_list=()).to_json_dict()
            want = verify_appendix_oracle(psi, sm, 1.0, tm, p_list=(),
                                          require_slope_bound=False)
            want = want.to_json_dict()
            want["passes"]["slope_bounds"] = True
            assert got == want, psi.label


@pytest.fixture(scope="module")
def quad_setup():
    tm = build_transport(builtin_potential("quadratic"), 1.0)
    ens = simulate_embedding(ClarkIntegrand(tm), 50_000, 128, seed=31)
    return tm, ens


def mc_crosscheck(psi, ensemble, reference):
    """Sample mean of psi over the embedded values with its standard error,
    and whether it lies within 3 SE of ``reference``: the RNG and pipeline
    oracle that the moment check replaced."""
    vals = np.asarray(psi.closed_form(ensemble.bt), float)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(ensemble.n_paths))
    return est, se, bool(abs(est - reference) <= 3.0 * se)


class TestMcCrossCheck:

    def test_square_recovers_variance(self, quad_setup):
        tm, ens = quad_setup
        square = builtin_convex_test("square")
        est, se, within = mc_crosscheck(square, ens, moment_rhs(square, tm))
        assert within
        assert abs(est - 0.5) <= 3.0 * se
        (moment, agrees), = moment_check(ens, [square],
                                         [moment_rhs(square, tm)])
        assert agrees and moment == pytest.approx(0.5, rel=1e-14)

    def test_abs_half_normal_mean(self, quad_setup):
        tm, ens = quad_setup
        psi = builtin_convex_test("abs")
        est, se, within = mc_crosscheck(psi, ens, moment_rhs(psi, tm))
        assert abs(est - math.sqrt(2 * 0.5 / math.pi)) <= 3 * se
        assert within

    def test_linear_psi_centers_to_zero(self, quad_setup):
        tm, ens = quad_setup
        linear = ConvexTest("linear", 0.0, 1.0,
                            closed_form=lambda x: np.asarray(x, float))
        est, se, _ = mc_crosscheck(linear, ens, moment_rhs(linear, tm))
        assert abs(est) <= 3.0 * se
        # the moment cancels to round-off: the check reads the difference
        # against E|psi| = 0.56, not against the moment
        (moment, agrees), = moment_check(ens, [linear], [0.0])
        assert agrees and abs(moment) <= 1e-16

    def test_psi_without_closed_form_rejected(self, quad_setup):
        tm, ens = quad_setup
        square = builtin_convex_test("square")
        bare = dataclasses.replace(square, closed_form=None)
        with pytest.raises(ValueError, match="closed form"):
            moment_check(ens, [square, bare], [moment_rhs(square, tm)] * 2)


# psis of the moment tolerance measurement: the catalog plus strikes and
# corridors far out in both tails
FAR_PSIS = [builtin_convex_test("abs"), builtin_convex_test("square"),
            builtin_convex_test("power", p=3),
            builtin_convex_test("power", p=5),
            builtin_convex_test("corridor", width=1.0),
            builtin_convex_test("corridor", width=4.0),
            *(builtin_convex_test("call", strike=k) for k in
              (-12.0, -8.0, -5.0, -3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0,
               8.0, 10.0, 12.0, 15.0, 20.0))]
# linear(c), A of a 28 x 24 sweep (c in [-7, 20], A in logspace[0.01, 50])
# with the largest relative difference before the 1 + |E X| / sd(X) scaling:
# 1.7e-13, on call(15) (2.7e-15 after it)
WORST_MOMENT_LINEAR = (16.0, 3.7427991722363276)


class TestMomentCheck:

    def test_moment_tolerances_cover_measured_round_off(self):
        # measured, against E|psi| (1 + |E X| / sd(X)) where E|psi| > 1e-15:
        # 2.2e-14 (call(5) on zero at A = 1); absolute where E|psi| <= 1e-15:
        # 7.6e-30 (call(5) on linear(10) at A = 0.406)
        transports = law_transports()
        c, a = WORST_MOMENT_LINEAR
        transports[f"linear({c:g})", a] = build_transport(
            builtin_potential("linear", {"c": c}), a)
        worst_rel = worst_abs = 0.0
        for key, tmap in transports.items():
            ens = ensemble_at(tmap, [0.0, 1.0])
            scale = 1.0 + abs(tmap.mean_mu) / math.sqrt(tmap.var_mu)
            refs = [moment_rhs(psi, tmap) for psi in FAR_PSIS]
            for psi, ref, (moment, agrees) in zip(
                    FAR_PSIS, refs, moment_check(ens, FAR_PSIS, refs)):
                # every psi here is nonnegative: E|psi| is the moment
                diff = abs(moment - ref)
                assert agrees, (key, psi.label, moment, ref)
                tol = (verifier.MOMENT_REL_TOL * scale * moment
                       + verifier.MOMENT_ABS_TOL)
                assert diff <= tol / 4, (key, psi.label)
                if moment > 1e-15:
                    worst_rel = max(worst_rel, diff / moment / scale)
                else:
                    worst_abs = max(worst_abs, diff)
        assert worst_rel <= verifier.MOMENT_REL_TOL / 4
        assert worst_abs <= verifier.MOMENT_ABS_TOL / 4

    def test_kinks_fall_on_panel_edges(self):
        # E (W - K)^+ = phi(K) - K Phi(-K) for W ~ N(0, 1), within 1.6e-14
        # relative; with the kinks w = K inside the 0.2-wide panels instead
        # of on their edges, up to 6.6e-4 off
        ens = ensemble_at(build_transport(builtin_potential("zero"), 1.0),
                          [0.0, 1.0])
        strikes = np.linspace(-3.0, 3.0, 13) + 0.037
        calls = [builtin_convex_test("call", strike=k) for k in strikes]
        exact = std_normal_pdf(strikes) - strikes * std_normal_cdf(-strikes)
        moments = [m for m, _ in moment_check(ens, calls, list(exact))]
        np.testing.assert_allclose(moments, exact, rtol=1e-13, atol=0)

    def test_wrong_measure_fails(self):
        # a quadratic(1) ensemble against the moments of zero: E|X| is
        # sqrt(2/pi) (1 - 1/sqrt 2) apart, E X^2 by 1/2; linear(1) would
        # not do, its centered moments are zero's
        zero = build_transport(builtin_potential("zero"), 1.0)
        quad = build_transport(builtin_potential("quadratic"), 1.0)
        ens = ensemble_at(quad, [0.0, 1.0])
        refs = [moment_rhs(psi, zero) for psi in PSIS]
        assert not any(agrees for _, agrees in moment_check(ens, PSIS, refs))
        assert all(agrees for _, agrees in moment_check(
            ens, PSIS, [moment_rhs(psi, quad) for psi in PSIS]))

    def test_shifted_mean_fails_call_1(self, quad_setup):
        # E g shifted by 1e-9 moves E (X - 1)^+ by P(X > 1) 1e-9, far
        # inside the 3 SE band of 50000 paths
        tm, ens = quad_setup
        call = builtin_convex_test("call", strike=1.0)
        ref = moment_rhs(call, tm)
        assert moment_check(ens, [call], [ref])[0][1]
        shifted = copy.copy(ens.clark)
        shifted.mean_g += 1e-9
        moved = dataclasses.replace(ens, clark=shifted,
                                    bt=ens.bt - 1e-9)
        assert not moment_check(moved, [call], [ref])[0][1]
        assert mc_crosscheck(call, moved, ref)[2]


def test_format_float():
    assert format_float(1.0) == "1"
    assert format_float(math.inf) == "inf"
    assert format_float(None) is None
    assert float(format_float(1 / 3)) == 1 / 3
    for x in (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
              -2.2250738585072009e-308, np.float64(1 / 3), np.float64(np.nan)):
        assert format_float(x) == f"{x:.17g}"
    assert [format_float(x) for x in (-0.0, -math.inf, math.nan)] == \
        ["-0", "-inf", "nan"]


def test_format_floats_reaches_nested_floats():
    nested = {"a": 0.1, "b": (1.5, [math.inf, None]), "c": True, "d": "x",
              "e": {"f": np.float64(-0.0), "g": 3}}
    assert format_floats(nested) == {
        "a": "0.10000000000000001", "b": ["1.5", ["inf", None]], "c": True,
        "d": "x", "e": {"f": "-0", "g": 3}}
