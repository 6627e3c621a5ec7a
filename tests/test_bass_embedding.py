import copy
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from blverify import bass_embedding
from blverify.bass_embedding import (ClarkIntegrand, clark_integrands,
                                     embedded_law_check, ks_distance,
                                     simulate_embedding, simulate_embeddings,
                                     t_bound_check, wald_check)
from blverify.gaussian_core import std_normal_cdf
from blverify.potentials import builtin_potential, builtin_slope_map
from blverify.transport import build_transport
from blverify.verifier import appendix_transport

from conftest import LOG_MIXTURE_PARAMS

_DIRECT_EVAL_BAND = 1e-6       # 1 - s below which a(s, y) = g'(y) directly


def direct_a(clark, s, y):
    """Direct Gauss-Hermite evaluation of a(s, y) for 0 <= s <= 1, the
    oracle for the integrand's tabulated grid."""
    s = float(s)
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"time argument must lie in [0, 1], got {s}")
    arr = np.atleast_1d(np.asarray(y, float))
    if 1.0 - s < _DIRECT_EVAL_BAND:
        out = np.asarray(clark.transport.g_prime(arr), float)
    else:
        tau = math.sqrt(1.0 - s)
        pts = arr[None, :] + tau * clark._gh_z[:, None]
        out = clark._gh_w @ np.interp(pts, clark._fine_x, clark._fine_gp)
    return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))


@pytest.fixture(scope="module")
def zero_clark():
    return ClarkIntegrand(build_transport(builtin_potential("zero"), 1.0))


@pytest.fixture(scope="module")
def quad_clark():
    return ClarkIntegrand(build_transport(builtin_potential("quadratic"), 1.0))


@pytest.fixture(scope="module")
def abs_clark():
    return ClarkIntegrand(build_transport(builtin_potential("abs"), 1.0))


A_VALUES = (0.25, 1.0, 4.0)
# the largest excesses of g' over sqrt(A) found in sweeps of linear(c)
# over c in [-7, 20] and A in [0.01, 50] while the transport window could
# not reach a mode beyond 12 sqrt(A) + 8.  Windows that reach it go higher:
# 2560 u at linear(+-6), A = 34.5, inside the tolerance but above the
# quarter of it that test_t_bound_tolerances_cover_measured_round_off allows.
WORST_LINEAR = (("linear", 20.0, 1.4399033208816328),
                ("linear", 5.0, 7.4989))


@pytest.fixture(scope="module")
def bound_clarks():
    """Integrands keyed (label, A): zero, linear(1), quadratic(1), abs(1)
    and the cubic slope map at alpha = 1/A for each A of A_VALUES, the
    log-mixture map at its alpha, and WORST_LINEAR."""
    transports = {}
    for a in A_VALUES:
        for name in ("zero", "linear", "quadratic", "abs"):
            transports[name, a] = build_transport(builtin_potential(name), a)
        transports["cubic", a] = appendix_transport(
            builtin_slope_map("cubic"), 1.0 / a)
    for name, c, a in WORST_LINEAR:
        transports[f"{name}({c:g})", a] = build_transport(
            builtin_potential(name, {"c": c}), a)
    mixture = builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS)
    transports["log_mixture", 1.0 / mixture.alpha] = appendix_transport(
        mixture, mixture.alpha)
    return dict(zip(transports, clark_integrands(transports.values())))


class TestClarkIntegrand:
    def test_constant_for_identity_transport(self, zero_clark):
        for s in (0.0, 0.3, 0.9, 1.0):
            for y in (-2.0, 0.0, 1.7):
                assert direct_a(zero_clark, s, y) == pytest.approx(
                    1.0, abs=1e-12)

    def test_constant_for_gaussian_tilt(self, quad_clark):
        assert direct_a(quad_clark, 0.4, -1.1) == pytest.approx(
            1 / math.sqrt(2), abs=1e-10)

    def test_terminal_slice_is_g_prime(self, abs_clark):
        tm = abs_clark.transport
        for y in (-1.0, 0.3, 2.2):
            assert direct_a(abs_clark, 1.0, y) == pytest.approx(
                float(tm.g_prime(y)), abs=1e-12)

    def test_bounded_by_sqrt_variance(self, abs_clark):
        ss = np.linspace(0.0, 1.0, 21)
        ys = np.linspace(-8.0, 8.0, 161)
        for s in ss:
            assert np.max(direct_a(abs_clark, s, ys)) <= 1.0 + 1e-9

    def test_range_within_g_prime_range(self, abs_clark):
        tm = abs_clark.transport
        gp = np.asarray(tm.g_prime(np.linspace(-11.5, 11.5, 4001)), float)
        lo, hi = gp.min(), gp.max()
        for s in (0.1, 0.5, 0.95):
            vals = direct_a(abs_clark, s, np.linspace(-8, 8, 321))
            assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)

    def test_grid_interpolation_matches_direct(self, abs_clark):
        rows = abs_clark.rows_for_steps(64, 0, 65)
        y_nodes = abs_clark._y
        for i, s in enumerate(np.arange(65) / 64):
            direct = np.asarray(direct_a(abs_clark, s, y_nodes), float)
            assert np.max(np.abs(rows[i] - direct)) <= 2e-4
        # a step range is a slice of the full table, bit for bit
        for start, stop in ((0, 7), (7, 65), (64, 65), (30, 30)):
            assert np.array_equal(abs_clark.rows_for_steps(64, start, stop),
                                  rows[start:stop])

    def test_mean_of_g_matches_transport_mean(self):
        for name in ("zero", "linear", "quadratic", "abs"):
            tm = build_transport(builtin_potential(name), 1.0)
            clark = ClarkIntegrand(tm)
            assert clark.mean_g == pytest.approx(tm.mean_mu, abs=1e-9)

    def test_rejects_time_outside_unit_interval(self, zero_clark):
        with pytest.raises(ValueError):
            direct_a(zero_clark, 1.5, 0.0)


class TestSimulation:
    def test_identity_transport_has_constant_stopping_time(self, zero_clark):
        ens = simulate_embedding(zero_clark, 500, 64, seed=5)
        assert np.max(np.abs(ens.T - 1.0)) <= 1e-12

    def test_gaussian_tilt_constant_stopping_time(self, quad_clark):
        ens = simulate_embedding(quad_clark, 500, 64, seed=5)
        assert np.max(np.abs(ens.T - 0.5)) <= 1e-12

    def test_embedded_value_identity(self, abs_clark):
        ens = simulate_embedding(abs_clark, 300, 64, seed=9)
        assert ens.clark is abs_clark
        recon = np.asarray(abs_clark.transport.g(ens.w1), float) - \
            abs_clark.mean_g
        assert np.max(np.abs(ens.bt - recon)) <= 1e-12

    def test_deterministic_for_fixed_seed(self, abs_clark):
        a = simulate_embedding(abs_clark, 5000, 128, seed=42)
        b = simulate_embedding(abs_clark, 5000, 128, seed=42)
        assert np.array_equal(a.T, b.T)
        assert np.array_equal(a.bt, b.bt)
        assert np.array_equal(a.w1, b.w1)

    def test_seed_changes_stream(self, abs_clark):
        a = simulate_embedding(abs_clark, 1000, 64, seed=1)
        b = simulate_embedding(abs_clark, 1000, 64, seed=2)
        assert not np.array_equal(a.w1, b.w1)

    def test_worker_count_does_not_change_results(self, abs_clark, monkeypatch):
        monkeypatch.setattr(bass_embedding, "_worker_count", lambda: 1)
        a = simulate_embedding(abs_clark, 9000, 64, seed=13)
        monkeypatch.setattr(bass_embedding, "_worker_count", lambda: 4)
        b = simulate_embedding(abs_clark, 9000, 64, seed=13)
        assert np.array_equal(a.T, b.T) and np.array_equal(a.bt, b.bt)

    def test_step_halving_within_budget(self, abs_clark):
        coarse = simulate_embedding(abs_clark, 4000, 128, seed=21)
        fine = simulate_embedding(abs_clark, 4000, 256, seed=21)
        budget = 4.0 * 2.0 * math.sqrt(abs_clark.transport.A) / 128
        assert abs(np.mean(coarse.T) - np.mean(fine.T)) <= budget

    def test_input_validation(self, zero_clark):
        for n_paths in (0, 1):
            with pytest.raises(ValueError, match="n_paths must be >= 2"):
                simulate_embedding(zero_clark, n_paths, 64, seed=1)
        with pytest.raises(ValueError):
            simulate_embedding(zero_clark, 10, 8, seed=1)

    def test_csv_export_format(self, zero_clark, tmp_path):
        ens = simulate_embedding(zero_clark, 3, 64, seed=6)
        path = tmp_path / "ens.csv"
        ens.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "path,T,bt,w1"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == ens.T[0]
        assert float(cells[3]) == ens.w1[0]

    def test_csv_bytes_match_row_loop(self, abs_clark, tmp_path):
        # oracle: the row-by-row writer the joined format replaced
        def row_loop(ens, path):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("path,T,bt,w1\n")
                for i in range(ens.n_paths):
                    fh.write(f"{i},{ens.T[i]:.17g},{ens.bt[i]:.17g},"
                             f"{ens.w1[i]:.17g}\n")

        # 4113 rows: two full row chunks and a part-full one
        ens = simulate_embedding(abs_clark, 4113, 64, seed=9)
        odd = np.array([0.0, -0.0, 1e-300, -5e-324, 1e300, np.inf, -np.inf,
                        np.nan, 0.1, 1.0 / 3.0])
        special = dataclasses.replace(ens, T=odd, bt=odd[::-1].copy(),
                                      w1=-odd)
        for case in (ens, special):
            case.to_csv(tmp_path / "joined.csv")
            row_loop(case, tmp_path / "loop.csv")
            assert ((tmp_path / "joined.csv").read_bytes()
                    == (tmp_path / "loop.csv").read_bytes())

    def test_csv_writer_memory_is_bounded(self, abs_clark, tmp_path):
        # rows are formatted a chunk at a time, so the transient stays under
        # 1 MB; formatting all 12288 rows in one join takes about 3.5 MB
        rng = np.random.default_rng(5)
        ens = simulate_embedding(abs_clark, 3, 64, seed=9)
        big = dataclasses.replace(ens, T=rng.random(12288),
                                  bt=rng.standard_normal(12288),
                                  w1=rng.standard_normal(12288))
        tracemalloc.start()
        try:
            big.to_csv(tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestChecks:
    def test_wald_identity_constant_cases(self, zero_clark, quad_clark):
        for clark, var in ((zero_clark, 1.0), (quad_clark, 0.5)):
            ens = simulate_embedding(clark, 400, 64, seed=2)
            rep = wald_check(ens)
            assert rep.passed
            assert rep.reference_var == pytest.approx(var, abs=1e-12)
            assert rep.mean_T == pytest.approx(var, abs=1e-12)

    def test_wald_on_tilted_case(self, abs_clark):
        ens = simulate_embedding(abs_clark, 40_000, 512, seed=17)
        rep = wald_check(ens)
        assert rep.passed

    def test_t_bound_equality_case(self, bound_clarks):
        # zero: g' = a = sqrt(A) everywhere and T = A on every path; the
        # cubic map at its alpha = 1: g' = 1/k'(g) reaches 1 = sqrt(A) at
        # x = 0 only
        for key in [("zero", a) for a in A_VALUES] + [("cubic", 1.0)]:
            clark = bound_clarks[key]
            a = clark.transport.A
            rep = t_bound_check(simulate_embedding(clark, 400, 64, seed=2))
            assert rep.passed
            assert rep.max_g_prime == pytest.approx(math.sqrt(a), rel=1e-13)
            assert rep.max_a == pytest.approx(math.sqrt(a), rel=1e-13)
            if key[0] == "zero":
                assert rep.max_T == pytest.approx(a, rel=1e-13)
        cubic = bound_clarks["cubic", 1.0]
        assert cubic._fine_x[np.argmax(cubic._fine_gp)] == 0.0

    def test_t_bound_tilted(self, bound_clarks):
        # abs(1) at every A, and the cubic map below its alpha: strictly
        # inside every bound
        for key in [("abs", a) for a in A_VALUES] + [("cubic", 4.0)]:
            clark = bound_clarks[key]
            a = clark.transport.A
            rep = t_bound_check(simulate_embedding(clark, 20_000, 256,
                                                   seed=19))
            assert rep.passed
            assert rep.max_a <= rep.max_g_prime < math.sqrt(a) * (1 - 1e-3)
            assert rep.max_T < a * (1 - 1e-3)

    def test_t_bound_tolerances_cover_measured_round_off(self, bound_clarks):
        # the g' tables and grids stay within a quarter of the tolerance
        # above sqrt(A) (measured: 1366 u on linear(20) at A = 1.44); the
        # cubic map at alpha = 4 breaks its slope bound, see below
        excess = max(max(np.max(c._fine_gp), np.max(c._grid))
                     / math.sqrt(c.transport.A) - 1.0
                     for key, c in bound_clarks.items()
                     if key != ("cubic", 0.25))
        assert excess <= bass_embedding._G_PRIME_REL_TOL / 4
        # T over the squared grid maximum is the rounding of the trapezoid
        # sum: at most a quarter of the (n_steps + 32) u the bound allows
        keys = [("zero", 1.0), ("linear(5)", 7.4989)]
        max_t = {}
        for n_steps in (16, 1000, 3001, 16384):
            ensembles = simulate_embeddings([bound_clarks[k] for k in keys],
                                            64, n_steps, seed=3)
            for key, ens in zip(keys, ensembles):
                max_t[key, n_steps] = np.max(ens.T)
                used = max_t[key, n_steps] / np.max(bound_clarks[key]._grid)**2
                assert used - 1.0 <= (n_steps + 32) * bass_embedding._U / 4
        # T = A exactly for zero, yet the sum rounds it up (+148 u at 3001
        # steps, +2740 u above A = 7.5 at 16384): no tolerance without an
        # n_steps term would hold
        assert max_t[("zero", 1.0), 3001] > 1.0
        assert max_t[("linear(5)", 7.4989), 16384] > 7.4989 * (
            1.0 + 2048 * bass_embedding._U)

    def test_t_bound_fails_on_g_prime_above_the_bound(self, bound_clarks):
        # a real g' table, then a real grid, scaled by 1 + 2 tol: only the
        # scaled maximum exceeds its bound
        zero = bound_clarks["zero", 1.0]
        ens = simulate_embedding(zero, 400, 64, seed=2)
        scale = 1.0 + 2.0 * bass_embedding._G_PRIME_REL_TOL
        scaled = copy.copy(zero)
        scaled._fine_gp = zero._fine_gp * scale
        rep = t_bound_check(dataclasses.replace(ens, clark=scaled))
        assert not rep.passed
        assert rep.max_g_prime > rep.g_prime_bound
        assert rep.max_a <= rep.g_prime_bound and rep.max_T <= rep.T_bound
        scaled = copy.copy(zero)
        scaled._grid = zero._grid * scale
        rep = t_bound_check(dataclasses.replace(ens, clark=scaled))
        assert not rep.passed
        assert rep.max_a > rep.g_prime_bound
        assert rep.max_g_prime <= rep.g_prime_bound
        # the cubic map at alpha = 4: k' >= 2 fails at x = 0, where
        # g' = 1 = 2 sqrt(A), and T exceeds A
        cubic = bound_clarks["cubic", 0.25]
        ens = simulate_embedding(cubic, 400, 64, seed=2)
        rep = t_bound_check(ens)
        assert not rep.passed
        assert rep.max_g_prime == pytest.approx(1.0, rel=1e-13)
        assert rep.max_T > rep.T_bound

    def test_t_bound_fails_on_one_T_above_the_bound(self, bound_clarks):
        clark = bound_clarks["abs", 1.0]
        ens = simulate_embedding(clark, 4000, 128, seed=19)
        rep = t_bound_check(ens)
        assert rep.passed
        T = ens.T.copy()
        T[0] = np.nextafter(rep.T_bound, np.inf)
        raised = dataclasses.replace(ens, T=T)
        assert wald_check(raised).passed
        rep = t_bound_check(raised)
        assert not rep.passed and rep.max_T > rep.T_bound
        assert rep.max_g_prime <= rep.g_prime_bound

    def test_embedded_law_exact_sampler(self, zero_clark):
        ens = simulate_embedding(zero_clark, 100_000, 64, seed=23)
        rep = embedded_law_check(ens)
        assert rep.passed

    def test_embedded_law_shift_case(self):
        tm = build_transport(builtin_potential("linear"), 1.0)
        ens = simulate_embedding(ClarkIntegrand(tm), 100_000, 64, seed=29)
        # mu = N(-1, 1): check against the shifted Gaussian CDF directly
        d = ks_distance(ens.bt + ens.clark.mean_g,
                        lambda x: std_normal_cdf(np.asarray(x) + 1.0))
        assert d <= 1.63 / math.sqrt(ens.n_paths)
        assert embedded_law_check(ens).passed

    def test_empty_ensemble_rejected(self, zero_clark):
        # an empty ensemble cannot reach the checks; nor can one path,
        # which has no standard error: every Monte Carlo check would pass
        # or fail whatever the sample
        ens = simulate_embedding(zero_clark, 2, 64, seed=1)
        assert ens.n_paths == 2
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least 2 paths"):
                dataclasses.replace(ens, T=ens.T[:n], bt=ens.bt[:n],
                                    w1=ens.w1[:n])

