import copy
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from blverify import bass_embedding, transport
from blverify.bass_embedding import (ClarkIntegrand, EmbeddingEnsemble,
                                     clark_integrands, embedded_law_check,
                                     simulate_embedding, simulate_embeddings,
                                     t_bound_check, wald_check)
from blverify.gaussian_core import std_normal_cdf
from blverify.potentials import builtin_potential, builtin_slope_map
from blverify.transport import build_transport
from blverify.verifier import appendix_transport

from conftest import LOG_MIXTURE_PARAMS, WORST_LINEAR, make_matrix_transport
from test_embedding_oracle import exact_a


def ks_distance(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples against a CDF: the
    RNG and pipeline oracle that the law check replaced."""
    s = np.sort(np.asarray(samples, float))
    n = s.size
    f = np.asarray(cdf(s), float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_threshold(n: int) -> float:
    """The asymptotic 1% critical value of the KS distance."""
    return 1.63 / math.sqrt(n)


def ensemble_at(tmap, w1) -> EmbeddingEnsemble:
    """What a simulation of ``tmap`` gives for B(T) at the endpoints w1,
    without the Clark grid (T is left at zero): the law check's inputs."""
    clark = ClarkIntegrand.__new__(ClarkIntegrand)
    clark._tabulate(tmap)
    w1 = np.asarray(w1, float)
    bt = np.asarray(tmap.g(w1), float) - clark.mean_g
    return EmbeddingEnsemble(T=np.zeros_like(w1), bt=bt, w1=w1, n_steps=16,
                             clark=clark, clamp_count=0)


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


# E[T_n] - var X of the grid at 256 steps (test_expected_T_matches_var_x),
# measured; the exact smoothing took abs(1) from +2.10e-5 and the cubic map
# from -1.32e-5, and the linear y interpolation now dominates
EXPECTED_T_BIAS = {"abs": 2.961e-6, "double_well_k": -7.498e-6,
                   "log_mixture_k": 2.446e-6}


def expected_T(clark: ClarkIntegrand, n_steps: int) -> float:
    """E[T_n] = sum_i w_i E[a_i(W_{s_i})^2]: the rows of each step, read as
    the step loop reads them, integrated against N(0, s_i) by a 20001-point
    trapezoid over +-10 standard deviations."""
    rows = clark.rows_for_steps(n_steps, 0, n_steps + 1)
    y = clark._y
    inv_dy = (len(y) - 1) / (y[-1] - y[0])
    weights = np.full(n_steps + 1, 1.0 / n_steps)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    z = np.linspace(-10.0, 10.0, 20001)
    density = np.full(z.size, z[1] - z[0]) * np.exp(-0.5 * z * z) / math.sqrt(
        2.0 * math.pi)
    density[[0, -1]] *= 0.5
    total = 0.0
    for i, row in enumerate(rows):
        pos = np.clip((math.sqrt(i / n_steps) * z - y[0]) * inv_dy, 0.0,
                      len(y) - 1)
        j = pos.astype(np.int64)
        a = row[j] + (pos - j) * np.append(np.diff(row), 0.0)[j]
        total += weights[i] * np.dot(density, a * a)
    return total


class TestClarkIntegrand:
    def test_constant_for_identity_transport(self, zero_clark):
        rows = zero_clark.rows_for_steps(10, 0, 11)
        assert np.max(np.abs(rows - 1.0)) <= 1e-14
        assert exact_a(zero_clark, 0.3, [-2.0, 0.0, 1.7]) == pytest.approx(
            1.0, abs=1e-14)

    def test_constant_for_gaussian_tilt(self, quad_clark):
        rows = quad_clark.rows_for_steps(10, 0, 11)
        assert np.max(np.abs(rows - 1 / math.sqrt(2))) <= 1e-14
        assert exact_a(quad_clark, 0.4, -1.1) == pytest.approx(
            1 / math.sqrt(2), abs=1e-14)

    def test_terminal_slice_is_g_prime(self, abs_clark):
        # s = 1 reads the grid's tau = 0 row, which is g' at the y nodes
        tm = abs_clark.transport
        last = abs_clark.rows_for_steps(64, 64, 65)[0]
        assert np.array_equal(last, np.asarray(tm.g_prime(abs_clark._y),
                                               float))
        assert np.max(np.abs(exact_a(abs_clark, 1.0, abs_clark._y[::16])
                             - last[::16])) <= 1e-15

    def test_bounded_by_sqrt_variance(self, abs_clark):
        assert np.max(abs_clark._grid) <= 1.0
        for s in np.linspace(0.0, 1.0, 5):
            assert np.max(exact_a(abs_clark, s, np.linspace(-8, 8, 17))) <= 1.0

    def test_range_within_g_prime_range(self, abs_clark):
        tm = abs_clark.transport
        gp = np.asarray(tm.g_prime(np.linspace(-11.5, 11.5, 4001)), float)
        lo, hi = gp.min(), gp.max()
        assert np.all(abs_clark._grid >= lo) and np.all(abs_clark._grid <= hi)

    def test_grid_interpolation_matches_direct(self, abs_clark):
        # rows between the grid's tau nodes are linear in tau; against the
        # exact smoothing they err by at most 1.17e-6 (s = 61/64, y =
        # -0.3125), on the 33 y nodes of [-1, 1] that this test reads as on
        # all 1025; allowed 1.5 times that.  A step on a tau node (64 - 64 s
        # a square, s = 0 among them) reads that node's row, which errs by
        # 1.1e-16 here and 1.3e-15 on all 1025 y nodes; allowed 1.5 times
        # the latter
        rows = abs_clark.rows_for_steps(64, 0, 65)
        assert np.array_equal(abs_clark.rows_for_steps(64, 0, 1)[0],
                              abs_clark._grid[-1])
        near_kink = slice(448, 577, 4)
        for i, s in enumerate(np.arange(65) / 64):
            exact = exact_a(abs_clark, s, abs_clark._y[near_kink])
            bound = 2e-15 if math.isqrt(64 - i)**2 == 64 - i else 1.8e-6
            assert np.max(np.abs(rows[i, near_kink] - exact)) <= bound, s
        # a step range is a slice of the full table, bit for bit
        for start, stop in ((0, 7), (7, 65), (64, 65), (30, 30)):
            assert np.array_equal(abs_clark.rows_for_steps(64, start, stop),
                                  rows[start:stop])

    @pytest.mark.parametrize("key", sorted(EXPECTED_T_BIAS))
    def test_expected_T_matches_var_x(self, key):
        # E[T_n] at 256 steps is within 1.5 times its measured distance
        # from var X; the Gauss-Hermite grid was 7x (abs(1)) and 1.8x (the
        # cubic map) farther
        tmap = make_matrix_transport(key)
        bias = expected_T(ClarkIntegrand(tmap), 256) - tmap.var_mu
        assert abs(bias) <= 1.5 * abs(EXPECTED_T_BIAS[key]), bias

    def test_mean_of_g_matches_transport_mean(self):
        for name in ("zero", "linear", "quadratic", "abs"):
            tm = build_transport(builtin_potential(name), 1.0)
            clark = ClarkIntegrand(tm)
            assert clark.mean_g == pytest.approx(tm.mean_mu, abs=1e-9)

    def test_rejects_time_outside_unit_interval(self, zero_clark):
        with pytest.raises(ValueError):
            exact_a(zero_clark, 1.5, 0.0)


class TestSimulation:
    def test_reads_the_end_column_beyond_the_grid(self, zero_clark):
        # a = 1 on the grid but 2 in its last column, on y nodes that end at
        # 0: every path starts on the last node, and a path that stays
        # above 0 reads a = 2 at every step, so its T is 4 exactly (the
        # trapezoid weights are powers of two)
        clark = copy.copy(zero_clark)
        clark._y = np.linspace(-16.0, 0.0, zero_clark._y.size)
        clark._grid = np.ones_like(zero_clark._grid)
        clark._grid[:, -1] = 2.0
        ens = simulate_embedding(clark, 400, 64, seed=3)
        assert np.max(ens.T) == 4.0
        assert np.count_nonzero(ens.T == 4.0) >= 10

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
        # the g' tables and grids stay within a quarter of their tolerance
        # above sqrt(A) (measured: 0.204 of it on linear(20) at A = 50); the
        # cubic map at alpha = 4 breaks its slope bound, see below
        used = max((max(np.max(c._fine_gp), np.max(c._grid))
                    / math.sqrt(c.transport.A) - 1.0)
                   / bass_embedding._g_prime_rel_tol(c.transport)
                   for key, c in bound_clarks.items()
                   if key != ("cubic", 0.25))
        assert used <= 0.25
        # no offset, no widening: the bound keeps its bytes
        for key, c in bound_clarks.items():
            if c.transport._shift == 0.0:
                assert bass_embedding._g_prime_rel_tol(c.transport) == \
                    bass_embedding._G_PRIME_REL_TOL, key
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

    def test_t_bound_on_a_far_shifted_gaussian(self, bound_clarks):
        # linear(20) at A = 50 passes on its own tables (its g' round-off,
        # 3.8e-12, used to fail a bound of 1e-12), and fails once its g'
        # table is scaled by 1 + 1e-10
        clark = bound_clarks["linear(20)", 49.99999999999999]
        ens = simulate_embedding(clark, 400, 64, seed=2)
        assert t_bound_check(ens).passed
        scaled = copy.copy(clark)
        scaled._fine_gp = clark._fine_gp * (1.0 + 1e-10)
        rep = t_bound_check(dataclasses.replace(ens, clark=scaled))
        assert not rep.passed
        assert rep.max_g_prime > rep.g_prime_bound

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
        assert embedded_law_check(ens).passed
        assert ks_distance(ens.w1, std_normal_cdf) <= ks_threshold(100_000)
        assert ks_distance(ens.bt + ens.clark.mean_g,
                           ens.clark.transport.cdf) <= ks_threshold(100_000)

    def test_embedded_law_shift_case(self):
        tm = build_transport(builtin_potential("linear"), 1.0)
        ens = simulate_embedding(ClarkIntegrand(tm), 100_000, 64, seed=29)
        # mu = N(-1, 1): check against the shifted Gaussian CDF directly
        d = ks_distance(ens.bt + ens.clark.mean_g,
                        lambda x: std_normal_cdf(np.asarray(x) + 1.0))
        assert d <= ks_threshold(ens.n_paths)
        rep = embedded_law_check(ens)
        assert rep.passed
        assert rep.tolerance == pytest.approx(2 * bass_embedding._LAW_TOL)

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


# the linear(c) transports, (c, A), with the largest law errors over a
# 28 x 24 sweep of c in [-7, 20] and A in logspace[0.01, 50]: the largest
# scaled error (5.7e-16, the mean) and the largest pushforward error before
# scaling (1.6e-15, 4.3e-17 after it)
WORST_LAW_LINEAR = ((10.0, 0.40574000290090356), (19.0, 3.7427991722363276))


def law_transports():
    """The default matrix at A = 1 and 4 (the slope maps at alpha = 1/A),
    its convex entries at A = 1/4, and WORST_LAW_LINEAR."""
    out = {}
    for a in (0.25, 1.0, 4.0):
        for name in ("zero", "linear", "quadratic", "abs"):
            out[name, a] = build_transport(builtin_potential(name), a)
    for a in (1.0, 4.0):
        out["cubic", a] = appendix_transport(builtin_slope_map("cubic"), 1 / a)
        out["log_mixture", a] = appendix_transport(
            builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS), 1 / a)
    for c, a in WORST_LAW_LINEAR:
        out[f"linear({c:g})", a] = build_transport(
            builtin_potential("linear", {"c": c}), a)
    return out


def _law_scale(tmap) -> float:
    return 1.0 + abs(tmap.mean_mu) / math.sqrt(tmap.var_mu)


class TestEmbeddedLaw:
    # 20000 normal endpoints and a 2001-point grid of [-6, 6]
    W1 = np.concatenate([np.random.default_rng(5).standard_normal(20000),
                         np.linspace(-6.0, 6.0, 2001)])

    def test_law_tolerance_covers_measured_round_off(self):
        # measured: pushforward 1.7e-16 (abs(1), A = 1), mean 5.7e-16
        # (linear(10), A = 0.406), both divided by 1 + |E X| / sd(X)
        errors = {}
        for key, tmap in law_transports().items():
            rep = embedded_law_check(ensemble_at(tmap, self.W1))
            assert rep.tolerance == bass_embedding._LAW_TOL * _law_scale(tmap)
            errors[key] = max(rep.pushforward_error,
                              rep.mean_error) / _law_scale(tmap)
        assert max(errors.values()) <= bass_embedding._LAW_TOL / 4, errors

    def test_upper_side_reads_the_survival_function(self):
        # at w = +-8.3 both sides hold Phi(-8.3) = 5.2e-17 to 1e-31; the
        # complement of the left-accumulated CDF is off by 1.6e-15, a
        # third of the tolerance
        tm = build_transport(builtin_potential("abs"), 1.0)
        ens = ensemble_at(tm, [-8.3, 8.3])
        assert embedded_law_check(ens).pushforward_error <= 1e-31
        x = ens.bt[1] + ens.clark.mean_g
        assert abs(1.0 - tm.cdf(x) - std_normal_cdf(-8.3)) > 1e-15

    def test_hermite_start_alone_fails_where_ks_passes(self, monkeypatch):
        # g at its cubic Hermite start, with no Newton step, is off by
        # 6.8e-12 (abs(1)) and 1.1e-10 (cubic) in F_mu, measured: 1.4e3 and
        # 2.1e4 times the law tolerance, far inside the KS threshold of
        # 12288 paths, 1.5e-2
        monkeypatch.setattr(transport, "_NEWTON_STEPS", 0)
        transports = [build_transport(builtin_potential("abs"), 1.0),
                      appendix_transport(builtin_slope_map("cubic"), 1.0)]
        ensembles = simulate_embeddings(clark_integrands(transports), 12288,
                                        16, seed=42)
        for ens in ensembles:
            tmap = ens.clark.transport
            rep = embedded_law_check(ens)
            assert not rep.passed
            assert rep.pushforward_error > 1e3 * rep.tolerance
            assert ks_distance(ens.bt + ens.clark.mean_g,
                               tmap.cdf) <= ks_threshold(12288)

    def test_shifted_mean_fails_where_ks_passes(self, abs_clark):
        ens = simulate_embedding(abs_clark, 12288, 16, seed=42)
        assert embedded_law_check(ens).passed
        shifted = copy.copy(abs_clark)
        shifted.mean_g = abs_clark.mean_g + 1e-9
        ens = dataclasses.replace(ens, clark=shifted)
        rep = embedded_law_check(ens)
        assert not rep.passed
        assert rep.mean_error > 1e-9 and rep.pushforward_error > 1e-10
        assert ks_distance(ens.bt + shifted.mean_g,
                           abs_clark.transport.cdf) <= ks_threshold(12288)
