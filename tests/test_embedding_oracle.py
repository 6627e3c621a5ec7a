"""The streamed simulator against one-shot references, and the Clark grid
against the real-space closed form of its smoothing.

The simulation reference is the straightforward implementation: one block
of paths at a time with the block's whole increment array drawn up front,
one potential at a time.  Production code streams the simulation in bounded
chunks, drawn ahead on one helper thread, and steps every potential along
one set of paths; it must reproduce the reference bit for bit.

The grid is filled by FFT on the g' lattice; `exact_a` evaluates the same
smoothing in real space, term by term, with neither an FFT nor a Gaussian
quadrature rule.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from blverify import bass_embedding
from blverify.bass_embedding import (ClarkIntegrand, clark_integrands,
                                     simulate_embedding, simulate_embeddings)
from blverify.potentials import (Potential, builtin_potential,
                                 builtin_slope_map)
from blverify.transport import build_transport
from blverify.verifier import appendix_transport

from conftest import MATRIX_KEYS


def exact_a(clark: ClarkIntegrand, s: float, y):
    """a(s, y) for 0 <= s <= 1: the Gaussian smoothing of the integrand's
    g' table, summed in real space, the oracle for its grid.

    The table's interpolant is L_0 + sum_j kink_j (x - x_j)_+, where kink_j
    is the change of slope at x_j, and E (y + tau Z - x_j)_+ =
    tau psi1((y - x_j) / tau) with psi1(t) = phi(t) + t Phi(t).  Each
    point's terms are summed exactly by math.fsum.
    """
    s = float(s)
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"time argument must lie in [0, 1], got {s}")
    x, table = clark._fine_x, clark._fine_gp
    kinks = np.diff(np.concatenate(([0.0], np.diff(table) / np.diff(x),
                                    [0.0])))
    tau = math.sqrt(1.0 - s)
    d = np.atleast_1d(np.asarray(y, float))[:, None] - x
    if tau == 0.0:
        terms = kinks * np.maximum(d, 0.0)
    else:
        t = d / tau
        terms = tau * kinks * (np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
                               + t * ndtr(t))
    out = np.array([math.fsum([table[0], *row.tolist()]) for row in terms])
    return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))


def reference_simulation(clark: ClarkIntegrand, n_paths: int, n_steps: int,
                         seed: int):
    """(T, bt, w1) stepping one 4096-path block at a time."""
    rows = clark.rows_for_steps(n_steps, 0, n_steps + 1)
    # row[j + 1] - row[j], and 0 at the last y node, which W beyond it reads
    diffs = np.append(np.diff(rows, axis=1), np.zeros((len(rows), 1)), axis=1)
    y0 = clark._y[0]
    inv_dy = (len(clark._y) - 1) / (clark._y[-1] - clark._y[0])
    n_y = len(clark._y)
    dt = 1.0 / n_steps
    weights = np.full(n_steps + 1, dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    block = bass_embedding._BLOCK_PATHS
    t_parts, w_parts = [], []
    for index in range((n_paths + block - 1) // block):
        size = min(block, n_paths - index * block)
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))
        incr = gen.standard_normal((n_steps, size))
        incr *= math.sqrt(dt)
        t_acc = np.zeros(size)
        w = np.zeros(size)
        for i in range(n_steps + 1):
            pos = np.clip((w - y0) * inv_dy, 0.0, n_y - 1)
            j = pos.astype(np.int64)
            a = rows[i][j] + diffs[i][j] * (pos - j)
            t_acc += a * a * weights[i]
            if i < n_steps:
                w += incr[i]
        t_parts.append(t_acc)
        w_parts.append(w)
    w1 = np.concatenate(w_parts)
    bt = np.asarray(clark.transport.g(w1), float) - clark.mean_g
    return np.concatenate(t_parts), bt, w1


def assert_matches_reference(clark, n_paths, n_steps, seed):
    T, bt, w1 = reference_simulation(clark, n_paths, n_steps, seed)
    ens = simulate_embedding(clark, n_paths, n_steps, seed)
    assert np.array_equal(ens.T, T)
    assert np.array_equal(ens.bt, bt)
    assert np.array_equal(ens.w1, w1)


@pytest.fixture(scope="module")
def matrix_clarks(matrix_transports):
    return {key: ClarkIntegrand(matrix_transports[key]) for key in MATRIX_KEYS}


# the transports of test_grid_matches_real_space_smoothing beyond the
# matrix: abs(1) and the cubic map at A = 1/4 and 4, and a measure whose g'
# tends to different constants at the two ends (0.998 at -11.5 and 0.128 at
# 11.5), where every other one tends to the same
GRID_KEYS = MATRIX_KEYS + ("abs-A0.25", "abs-A4", "cubic-A0.25", "cubic-A4",
                           "half_quartic")
# Per unit of sqrt(A), 4.8x the largest difference of the grids from
# exact_a over the points of test_grid_matches_real_space_smoothing (8.3e-16,
# the cubic map at A = 1/4; 5.6e-16 on abs(1), 0 on the Gaussian entries)
GRID_ORACLE_TOL = 4e-15
# rows tau = k / 256 of the oracle points: the first nonzero tau and four
# across the rest, all powers of 2, so that s = 1 - tau^2 gives tau back
# exactly
GRID_ORACLE_ROWS = (1, 16, 64, 128, 256)


@pytest.fixture(scope="module")
def grid_clarks(matrix_clarks):
    half_quartic = Potential(
        "half_quartic", lambda x: np.maximum(np.asarray(x, float), 0.0)**4,
        convex=True)
    extra = {"half_quartic": build_transport(half_quartic, 1.0)}
    for a in (0.25, 4.0):
        extra[f"abs-A{a:g}"] = build_transport(builtin_potential("abs"), a)
        extra[f"cubic-A{a:g}"] = appendix_transport(
            builtin_slope_map("cubic"), 1.0 / a)
    return dict(matrix_clarks,
                **dict(zip(extra, clark_integrands(extra.values()))))


@pytest.mark.parametrize("key", GRID_KEYS)
def test_grid_matches_real_space_smoothing(key, grid_clarks):
    """At five tau rows, 21 spread y nodes and the three y nodes at and
    around the w-image of each kink of V (where g' has a kink), the grid is
    the real-space smoothing of its g' table at round-off."""
    clark = grid_clarks[key]
    tmap = clark.transport
    y, dy = clark._y, clark._y[1] - clark._y[0]
    y_index = set(np.linspace(0, len(y) - 1, 21).astype(int))
    for kink in tmap.potential.kinks:
        i = round((float(ndtri(tmap.cdf(kink))) - y[0]) / dy)
        y_index |= {i - 1, i, i + 1}
    y_index = sorted(y_index)
    scale = math.sqrt(tmap.A)
    for row in GRID_ORACLE_ROWS:
        tau = clark._tau[row]
        exact = exact_a(clark, 1.0 - tau * tau, y[y_index])
        err = np.max(np.abs(clark._grid[row, y_index] - exact)) / scale
        assert err <= GRID_ORACLE_TOL, (row, err)
    # tau = 0 is the table itself at the y nodes
    assert np.array_equal(clark._grid[0], np.asarray(tmap.g_prime(y), float))


def test_multipliers_leave_out_only_terms_that_underflow():
    """Each batch's multipliers equal the whole alias sum, bit for bit."""
    u = np.fft.rfftfreq(bass_embedding._FFT_SIZE)
    tau = ClarkIntegrand._tau
    for t0 in range(1, len(tau), bass_embedding._FFT_TAU_ROWS):
        batch = tau[t0:t0 + bass_embedding._FFT_TAU_ROWS, None]
        whole = 0.0
        for alias in (u, u - 1.0):
            k_tau = 2.0 * np.pi * 384 * alias * batch
            whole = whole + np.sinc(alias)**2 * np.exp(-0.5 * k_tau * k_tau)
        assert np.array_equal(
            bass_embedding._smoothing_multipliers(batch[:, 0]), whole), t0


def test_simulation_builds_fresh_grids_bit_for_bit(matrix_transports,
                                                   matrix_clarks):
    """Grids filled together by clark_integrands equal those of one
    ClarkIntegrand per transport, and so do the ensembles stepped on them."""
    n_paths, n_steps = 4113, 130
    expected = simulate_embeddings(
        [matrix_clarks[key] for key in MATRIX_KEYS], n_paths, n_steps, 17)
    clarks = clark_integrands([matrix_transports[key] for key in MATRIX_KEYS])
    for key, clark in zip(MATRIX_KEYS, clarks):
        assert np.array_equal(clark._grid, matrix_clarks[key]._grid), key
    ensembles = simulate_embeddings(clarks, n_paths, n_steps, 17)
    for key, ens, ref in zip(MATRIX_KEYS, ensembles, expected):
        assert np.array_equal(ens.T, ref.T), key
        assert np.array_equal(ens.bt, ref.bt), key


def test_concurrent_simulations_build_each_chunk_once(matrix_transports):
    """Two threads simulating on one integrand, each with its own fill
    helper, at a 1 us switch interval, match the reference: the grid is
    built once, by the constructor, and the simulations only read it."""
    clark = ClarkIntegrand(matrix_transports["double_well_k"])
    grid = clark._grid.copy()
    results = [None, None]

    def simulate(k):
        results[k] = simulate_embedding(clark, 4113, 300, seed=21)

    threads = [threading.Thread(target=simulate, args=(k,), daemon=True)
               for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), \
        "simulations did not finish in 120 s"
    assert np.array_equal(clark._grid, grid)
    T, bt, w1 = reference_simulation(clark, 4113, 300, seed=21)
    for ens in results:
        assert np.array_equal(ens.T, T)
        assert np.array_equal(ens.w1, w1)


def test_extrapolation_count_does_not_depend_on_workers(matrix_transports):
    """Only the calling thread touches the transports, never the fill
    helper: the counters move by exactly as much as the constructor's g'
    table and E g and the final g(W_1) alone move them."""
    tmaps = [matrix_transports[key] for key in MATRIX_KEYS]
    before = [tmap.extrapolation_count for tmap in tmaps]
    ensembles = simulate_embeddings([ClarkIntegrand(tmap) for tmap in tmaps],
                                    4096, 64, seed=19)
    middle = [tmap.extrapolation_count for tmap in tmaps]
    for tmap, ens in zip(tmaps, ensembles):
        ClarkIntegrand(tmap)
        tmap.g(ens.w1)
    after = [tmap.extrapolation_count for tmap in tmaps]
    simulated = [m - b for m, b in zip(middle, before)]
    assert simulated == [a - m for a, m in zip(after, middle)]
    assert all(delta > 0 for delta in simulated)


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_simulation_matches_reference_on_matrix(key, matrix_clarks):
    assert_matches_reference(matrix_clarks[key], 4113, 64, seed=7)


@pytest.mark.parametrize("n_paths,n_steps", [
    (3, 600), (4113, 200), (9000, 97), (12288, 130), (4096, 256)])
def test_simulation_matches_reference_ragged(n_paths, n_steps, matrix_clarks):
    # the chunks hold 255 steps for 3 paths, 63 for 4113, 29 for 9000, 21
    # for 12288 and 64 for 4096: the first four step counts leave the last
    # chunk part-full, and with 4096 paths it holds only the final grid time
    assert_matches_reference(matrix_clarks["abs"], n_paths, n_steps, seed=11)


def test_simulation_matches_reference_with_large_seed(matrix_clarks):
    assert_matches_reference(matrix_clarks["double_well_k"], 5000, 300,
                             seed=2**63 + 12345)


@pytest.mark.parametrize("n_paths", [3, 4113, 12288],
                         ids=lambda n: f"{n}-trapezoid")
def test_batched_simulation_matches_per_potential_reference(
        n_paths, matrix_clarks):
    # six integrands give chunks of 42 steps for 3 and 4113 paths and 21
    # for 12288; 131 grid times leave the last chunk part-full
    n_steps = 130
    clarks = [matrix_clarks[key] for key in MATRIX_KEYS]
    expected = [reference_simulation(clark, n_paths, n_steps, 13)
                for clark in clarks]
    ensembles = simulate_embeddings(clarks, n_paths, n_steps, 13)
    assert len(ensembles) == len(clarks)
    for key, ens, (T, bt, w1) in zip(MATRIX_KEYS, ensembles, expected):
        assert np.array_equal(ens.T, T), key
        assert np.array_equal(ens.bt, bt), key
        assert np.array_equal(ens.w1, w1), key
        assert ens.clark is matrix_clarks[key], key


def test_batched_simulation_gives_each_ensemble_its_own_w1(matrix_clarks):
    ensembles = simulate_embeddings(
        [matrix_clarks["abs"], matrix_clarks["zero"]], 100, 32, seed=1)
    first, second = (ens.w1 for ens in ensembles)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)


def test_batched_simulation_rejects_bad_integrand_lists():
    with pytest.raises(ValueError, match="at least one"):
        simulate_embeddings([], 100, 32, seed=1)


def test_fill_ahead_under_fast_switching(matrix_clarks):
    """The fill-ahead on a 1 us switch interval still matches the reference.

    The helper draws ten ragged blocks per chunk through one scratch buffer
    into the half of the double buffer the calling thread is not stepping;
    a generator used out of order or a buffer refilled while being stepped
    would change the ensemble.
    """
    clark = matrix_clarks["log_mixture_k"]
    n_paths, n_steps = 9 * 4096 + 17, 120
    result = {}
    worker = threading.Thread(
        target=lambda: result.update(
            ens=simulate_embedding(clark, n_paths, n_steps, seed=5)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "simulation did not finish in 120 s"
    T, bt, w1 = reference_simulation(clark, n_paths, n_steps, seed=5)
    assert np.array_equal(result["ens"].T, T)
    assert np.array_equal(result["ens"].bt, bt)
    assert np.array_equal(result["ens"].w1, w1)


def test_a_failing_fill_fails_the_run(matrix_clarks, monkeypatch):
    """A draw that raises on the helper thread fails the simulation with
    that error, and the call leaves no thread of its own running.

    Three blocks over seven chunks of 31 steps; the draw of block 1 in
    chunk 3 raises, while the calling thread steps chunk 2.  Every draw
    before it ran on one thread other than the caller's.
    """
    real_generator = np.random.Generator
    drawers, calls = set(), []

    class FailingGenerator:
        def __init__(self, bit_generator):
            self._gen = real_generator(bit_generator)

        def standard_normal(self, **kwargs):
            calls.append(None)
            if len(calls) == 3 * 3 + 2:
                raise RuntimeError("draw failed")
            drawers.add(threading.get_ident())
            return self._gen.standard_normal(**kwargs)

    monkeypatch.setattr(np.random, "Generator", FailingGenerator)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="draw failed"):
        simulate_embedding(matrix_clarks["abs"], 2 * 4096 + 5, 200, seed=3)
    assert set(threading.enumerate()) <= before
    assert len(calls) == 3 * 3 + 2
    assert len(drawers) == 1 and threading.get_ident() not in drawers


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_per_chunk(matrix_transports, matrix_clarks):
    """Grid build and long simulations stay far below one-shot sizes.

    One-shot, the grid build holds the multipliers, spectra and inverse
    FFTs of all 256 rows (~85 MB), and the simulation a 8192 x 4096
    increment array plus 8193 integrand rows (~330 MB), and 8193 more rows
    (~67 MB) for each further potential.
    """
    bound = 48 * 2**20
    tmap = matrix_transports["abs"]
    assert _peak_bytes(lambda: ClarkIntegrand(tmap)) < bound
    clark = ClarkIntegrand(tmap)
    assert _peak_bytes(
        lambda: simulate_embedding(clark, 4096, 8192, seed=3)) < bound
    clarks = [matrix_clarks[key] for key in MATRIX_KEYS]
    assert _peak_bytes(
        lambda: simulate_embeddings(clarks, 4096, 8192, seed=3)) < bound


def test_memory_of_construction_and_simulation_is_bounded(matrix_transports):
    """Six fresh integrands built and simulated together: six grids (13 MB)
    plus the grid chunks and step chunks in flight stay within the same
    bound (chunk memory does not grow with n_steps)."""
    tmaps = [matrix_transports[key] for key in MATRIX_KEYS]
    assert _peak_bytes(lambda: simulate_embeddings(
        [ClarkIntegrand(tmap) for tmap in tmaps], 4096, 2048,
        seed=3)) < 48 * 2**20


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulation_rejects_seeds_outside_64_bits(seed, matrix_clarks):
    with pytest.raises(ValueError, match="seed"):
        simulate_embedding(matrix_clarks["abs"], 100, 32, seed)

