"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
the full-scale ensembles (1e5 paths, 2048 steps, seed 42, six potentials) are
built once, by one simulation over shared paths, and shared by criteria 3, 4
and 6.
"""

import json
import math
import time

import numpy as np
import pytest

from blverify.bass_embedding import (ClarkIntegrand, embedded_law_check,
                                     simulate_embeddings, t_bound_check,
                                     wald_check)
from blverify.cli import main as cli_main
from blverify.convex_tests import builtin_convex_test, second_derivative_mass
from blverify.local_time import (est1_lower, est2_upper,
                                 expected_local_time_array, local_time_gap_mc)
from blverify.potentials import builtin_potential, builtin_slope_map, \
    check_slope_bounds
from blverify.transport import build_transport
from blverify.verifier import (appendix_transport,
                               check_declared_slope_bounds, moment_lhs,
                               moment_rhs, verify_appendix, verify_theorem)

from conftest import LOG_MIXTURE_PARAMS, MATRIX_KEYS
from test_bass_embedding import ks_distance, ks_threshold
from test_local_time import worst_pairwise_disagreement

PSIS = [builtin_convex_test("abs"), builtin_convex_test("square"),
        builtin_convex_test("power", p=3),
        builtin_convex_test("call", strike=1.0),
        builtin_convex_test("corridor", width=1.0)]
P_LIST = (1.5, 2.0, 4.0)
CONVEX_KEYS = ("zero", "linear", "quadratic", "abs")

_BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def matrix_clarks(matrix_transports):
    t0 = time.perf_counter()
    clarks = {key: ClarkIntegrand(matrix_transports[key])
              for key in MATRIX_KEYS}
    _BUILD_SECONDS["grids"] = time.perf_counter() - t0
    return clarks


@pytest.fixture(scope="session")
def timed_matrix_ensembles(matrix_clarks):
    t0 = time.perf_counter()
    ensembles = simulate_embeddings([matrix_clarks[key] for key in MATRIX_KEYS],
                                    100_000, 2048, seed=42)
    _BUILD_SECONDS["matrix"] = time.perf_counter() - t0
    return dict(zip(MATRIX_KEYS, ensembles))


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:2d}] {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_g_prime_bound_suite():
    t0 = time.perf_counter()
    grid = np.linspace(-8.0, 8.0, 3201)
    worst = -math.inf
    for name in CONVEX_KEYS:
        params = {"c": 1.0} if name != "zero" else None
        for a in (0.5, 1.0, 4.0):
            tm = build_transport(builtin_potential(name, params), a)
            excess = float(np.max(tm.g_prime(grid))) - math.sqrt(a)
            worst = max(worst, excess)
    elapsed = time.perf_counter() - t0
    _report(1, "derivative bound g' <= sqrt(A) on |x|<=8, 4 potentials x "
               "A in {0.5,1,4}", worst <= 1e-8 and elapsed < 5.0,
            f"max excess {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_exact_transport_oracles():
    t0 = time.perf_counter()
    grid = np.linspace(-6.0, 6.0, 601)
    errs = []
    for a in (0.5, 1.0, 4.0):
        tz = build_transport(builtin_potential("zero"), a)
        errs.append(np.max(np.abs(tz.g(grid) - math.sqrt(a) * grid)))
    tq = build_transport(builtin_potential("quadratic"), 1.0)
    errs.append(np.max(np.abs(tq.g_prime(grid) - 1.0 / math.sqrt(2.0))))
    errs.append(abs(tq.var_mu - 0.5))
    tl = build_transport(builtin_potential("linear"), 1.0)
    errs.append(np.max(np.abs(tl.g(grid) - (grid - 1.0))))
    elapsed = time.perf_counter() - t0
    worst = float(max(errs))
    _report(2, "closed-form transports (identity / Gaussian tilt / shift)",
            worst <= 1e-9 and elapsed < 1.0,
            f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_embedding_law(timed_matrix_ensembles):
    t0 = time.perf_counter()
    threshold = ks_threshold(100_000)
    worst = ("", 0.0)
    failed = []
    for key in MATRIX_KEYS:
        ens = timed_matrix_ensembles[key]
        # the KS distance is the oracle's; the run's own gate is the
        # deterministic law check
        d = ks_distance(ens.bt + ens.clark.mean_g, ens.clark.transport.cdf)
        if d > worst[1]:
            worst = (key, d)
        if not embedded_law_check(ens).passed:
            failed.append(key)
    total = time.perf_counter() - t0 + sum(_BUILD_SECONDS.values())
    _report(3, "embedded law KS <= 1.63/sqrt(1e5) and the law check for "
               "all 6 matrix potentials (seed 42, 2048 steps)",
            worst[1] <= threshold and not failed and total < 60.0,
            f"worst KS {worst[1]:.5f} at {worst[0]}, law check failed on "
            f"{failed}, total {total:.1f}s")


def test_criterion_4_stopping_time_and_wald(timed_matrix_ensembles):
    ok = True
    details = []
    for key in MATRIX_KEYS:
        ens = timed_matrix_ensembles[key]
        tb = t_bound_check(ens)
        wd = wald_check(ens)
        within = (tb.max_g_prime <= tb.g_prime_bound
                  and tb.max_a <= tb.g_prime_bound and tb.max_T <= tb.T_bound)
        ok &= within and wd.passed
        if not (within and wd.passed):
            details.append(f"{key}: g'={tb.max_g_prime!r} a={tb.max_a!r} "
                           f"T={tb.max_T!r} wald={wd.passed}")
    exact_zero = np.max(np.abs(timed_matrix_ensembles["zero"].T - 1.0))
    exact_quad = np.max(np.abs(timed_matrix_ensembles["quadratic"].T - 0.5))
    ok &= exact_zero <= 1e-12 and exact_quad <= 1e-12
    _report(4, "g' and a <= sqrt(A), T <= A, each at round-off; "
               "|mean T - var X| within budget; constant-T cases exact to "
               "1e-12",
            ok, "; ".join(details) or
            f"|T-A|={exact_zero:.1e}, |T-1/2|={exact_quad:.1e}")


def test_criterion_5_local_time_triple_agreement():
    # the production closed form against the three quadrature forms
    worst = worst_pairwise_disagreement(np.linspace(-3.0, 3.0, 20),
                                        np.linspace(0.05, 4.0, 20))
    origin_err = max(abs(expected_local_time_array(0.0, t)
                         - math.sqrt(2 * t / math.pi)) for t in (0.5, 1.0, 2.0))
    _report(5, "closed-form local time and its three quadrature forms agree "
               "(20x20 grid) and "
               "E[L^0_t] = sqrt(2t/pi)",
            worst <= 1e-9 and origin_err <= 1e-10,
            f"pairwise {worst:.1e}, origin {origin_err:.1e}")


def test_criterion_6_residual_sandwich(matrix_transports,
                                       timed_matrix_ensembles):
    ok = True
    details = []
    for key in ("abs", "quadratic"):
        tmap = matrix_transports[key]
        ens = timed_matrix_ensembles[key]
        for x in (0.0, 0.5, 1.0, 2.0):
            gap = local_time_gap_mc(ens, x)
            lo = est1_lower(x, tmap.A, tmap.var_mu)
            if lo > gap.estimate + 3.0 * gap.std_error:
                ok = False
                details.append(f"{key} x={x}: lower {lo:.4g} > "
                               f"{gap.estimate:.4g}+3se")
            for p in P_LIST:
                hi = est2_upper(x, tmap.A, tmap.var_mu, p)
                if gap.estimate > hi + 3.0 * gap.std_error:
                    ok = False
                    details.append(f"{key} x={x} p={p}: {gap.estimate:.4g} > "
                                   f"upper {hi:.4g}+3se")
    _report(6, "residual local-time sandwich (abs & quadratic, "
               "x in {0,.5,1,2}, p in {1.5,2,4})", ok, "; ".join(details))


def _matrix_reports(transports):
    reports = {}
    for key in MATRIX_KEYS:
        tm = transports[key]
        if key == "double_well_k":
            sm = builtin_slope_map("cubic")
            slope = check_declared_slope_bounds(sm, sm.alpha)
            entries = [(psi, verify_appendix(psi, tm, slope, p_list=P_LIST))
                       for psi in PSIS]
        elif key == "log_mixture_k":
            sm = builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS)
            slope = check_declared_slope_bounds(sm, sm.alpha, 2.0)
            entries = [(psi, verify_appendix(psi, tm, slope, p_list=P_LIST))
                       for psi in PSIS]
        else:
            entries = [(psi, verify_theorem(psi, tm, p_list=P_LIST))
                       for psi in PSIS]
        reports[key] = entries
    return reports


@pytest.fixture(scope="module")
def matrix_reports(matrix_transports):
    return _matrix_reports(matrix_transports)


def test_criterion_7_theorem_matrix(matrix_reports):
    ok = True
    details = []
    for key, entries in matrix_reports.items():
        for psi, rep in entries:
            if rep.bl1_margin < -1e-8:
                ok = False
                details.append(f"{key}/{psi.label} bl1 {rep.bl1_margin:.2e}")
            if rep.bl2_margin < -(1e-8 + 1e-6):
                ok = False
                details.append(f"{key}/{psi.label} bl2 {rep.bl2_margin:.2e}")
            for e in rep.bl3:
                if e.margin < -1e-8:
                    ok = False
                    details.append(
                        f"{key}/{psi.label} bl3(p={e.p}) {e.margin:.2e}")
    _report(7, "moment-inequality matrix, 6 potentials x 5 psis x 3 "
               "exponents", ok,
            "; ".join(details))


def test_criterion_8_mad_and_p1_bounds(matrix_reports):
    ok = True
    details = []
    for key in CONVEX_KEYS:
        for psi, rep in matrix_reports[key]:
            if rep.mad_ratio < rep.mad_lower_bound - 1e-9:
                ok = False
                details.append(f"{key}/{psi.label} mad {rep.mad_ratio:.6f}")
    # p -> 1 limit bound for psi = |x| (total curvature mass 2)
    for key in CONVEX_KEYS:
        psi, rep = matrix_reports[key][0]
        assert psi.label == "abs" and second_derivative_mass(psi) == 2.0
        bound = (2.0 / math.sqrt(2 * math.pi)
                 * math.sqrt(max(rep.gaussian_variance - rep.var_x, 0.0)))
        if rep.lhs - rep.rhs > bound + 1e-8:
            ok = False
            details.append(f"{key} p->1 gap {rep.lhs - rep.rhs:.4g} > "
                           f"{bound:.4g}")
    _report(8, "MAD ratio >= 1/sqrt(2 pi A) and the p->1 finite-mass gap "
               "bound", ok, "; ".join(details))


def test_criterion_9_appendix_suite(matrix_transports):
    ok = True
    details = []
    sm_dw = builtin_slope_map("cubic")
    tm_dw = matrix_transports["double_well_k"]
    slope_dw = check_declared_slope_bounds(sm_dw, sm_dw.alpha)
    for psi in PSIS:
        rep = verify_appendix(psi, tm_dw, slope_dw, p_list=())
        if rep.bl1_margin < -1e-7:
            ok = False
            details.append(f"double_well/{psi.label} {rep.bl1_margin:.2e}")
    sm_lm = builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS)
    tm_lm = matrix_transports["log_mixture_k"]
    a = LOG_MIXTURE_PARAMS["a"]
    tm_improved = appendix_transport(sm_lm, a)
    slope_lm = check_declared_slope_bounds(sm_lm, sm_lm.alpha, 2.0)
    for psi in PSIS:
        rep = verify_appendix(psi, tm_lm, slope_lm, p_list=())
        improved = verify_appendix(psi, tm_improved, slope_lm, p_list=())
        if rep.bl1_margin < -1e-7:
            ok = False
            details.append(f"log_mixture/{psi.label} upper {rep.bl1_margin:.2e}")
        if improved.bl1_margin < -1e-7:
            ok = False
            details.append(
                f"log_mixture/{psi.label} improved {improved.bl1_margin:.2e}")
        if rep.lower_margin < -1e-7:
            ok = False
            details.append(f"log_mixture/{psi.label} lower {rep.lower_margin:.2e}")
    bounds = check_slope_bounds(sm_lm, np.linspace(-8.0, 8.0, 1601))
    if (bounds.min_kprime < LOG_MIXTURE_PARAMS["p"] - 1e-7
            or bounds.max_kprime > math.sqrt(LOG_MIXTURE_PARAMS["b"]) + 1e-7):
        ok = False
        details.append(f"slope range [{bounds.min_kprime:.6f}, "
                       f"{bounds.max_kprime:.6f}]")
    _report(9, "slope-map suite: double-well upper bound; log-mixture "
               "declared/improved/reverse bounds and slope range", ok,
            "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    config = {
        "potentials": [{"family": "abs", "params": {"c": 1.0}}],
        "A": 1.0,
        "psis": ["abs", "square"],
        "p_list": [2.0],
        "n_paths": 1500,
        "n_steps": 128,
        "seed": 42,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    ens1 = (out / "ensemble.csv").read_bytes()
    rep1 = (out / "report.json").read_bytes()
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    same = ((out / "ensemble.csv").read_bytes() == ens1
            and (out / "report.json").read_bytes() == rep1)
    _report(10, "identical configs produce byte-identical ensemble.csv and "
                "report.json", same)
