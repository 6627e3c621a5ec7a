"""The streamed simulator and chunked Clark grid against one-shot references.

The references below are the straightforward implementations: the Clark grid
as one einsum over every (tau, node, y) point, and the simulation as one
block of paths at a time with the block's whole increment array drawn up
front, one potential at a time.  Production code builds the grid in chunks
and streams the simulation in bounded chunks, both on worker threads, and
steps every potential along one set of paths; it must reproduce the
references bit for bit whatever the worker count.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from blverify import bass_embedding
from blverify.bass_embedding import (ClarkIntegrand, simulate_embedding,
                                     simulate_embeddings)

from conftest import MATRIX_KEYS


def reference_grid(clark: ClarkIntegrand) -> np.ndarray:
    disp = clark._tau[:, None, None] * clark._gh_z[None, :, None]
    pts = clark._y[None, None, :] + disp
    gp = clark._interp_gprime(pts.reshape(len(clark._tau), -1))
    gp = gp.reshape(len(clark._tau), len(clark._gh_z), len(clark._y))
    grid = np.einsum("k,tky->ty", clark._gh_w, gp)
    grid[0] = clark._interp_gprime(clark._y)
    return grid


def reference_simulation(clark: ClarkIntegrand, n_paths: int, n_steps: int,
                         seed: int):
    """(T, bt, w1) stepping one 4096-path block at a time."""
    rows = clark.rows_for_steps(n_steps)
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
            pos = np.clip((w - y0) * inv_dy, 0.0, n_y - 1.001)
            j = pos.astype(np.int64)
            frac = pos - j
            lo = rows[i][j]
            a = lo + (rows[i][j + 1] - lo) * frac
            t_acc += a * a * weights[i]
            if i < n_steps:
                w += incr[i]
        t_parts.append(t_acc)
        w_parts.append(w)
    w1 = np.concatenate(w_parts)
    bt = np.asarray(clark.transport.g(w1), float) - clark.mean_g
    return np.concatenate(t_parts), bt, w1


def reference_rows(grid: np.ndarray, clark: ClarkIntegrand, n_steps: int,
                   start: int, stop: int) -> np.ndarray:
    """Rows at s_i = i / n_steps, interpolated linearly in tau from grid."""
    tau = np.sqrt(1.0 - np.arange(start, stop) / n_steps)
    pos = np.clip(tau / (clark._tau[1] - clark._tau[0]), 0.0,
                  len(clark._tau) - 1.001)
    j = pos.astype(np.int64)
    frac = (pos - j)[:, None]
    return grid[j] * (1.0 - frac) + grid[j + 1] * frac


WORKER_COUNTS = (1, 2, 4)


def set_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(bass_embedding, "_worker_count", lambda: n)


def assert_matches_reference(monkeypatch, clark, n_paths, n_steps, seed):
    T, bt, w1 = reference_simulation(clark, n_paths, n_steps, seed)
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        ens = simulate_embedding(clark, n_paths, n_steps, seed)
        assert np.array_equal(ens.T, T), n
        assert np.array_equal(ens.bt, bt), n
        assert np.array_equal(ens.w1, w1), n


@pytest.fixture(scope="module")
def matrix_clarks(matrix_transports):
    return {key: ClarkIntegrand(matrix_transports[key]) for key in MATRIX_KEYS}


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_grid_matches_one_shot_einsum(key, matrix_clarks, monkeypatch):
    expected = reference_grid(matrix_clarks[key])
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        clark = ClarkIntegrand(matrix_clarks[key].transport)
        assert np.array_equal(clark._grid, expected), n
        assert np.array_equal(clark.rows_for_steps(64),
                              reference_rows(expected, clark, 64, 0, 65)), n


def test_simulation_builds_fresh_grids_bit_for_bit(matrix_transports,
                                                   matrix_clarks, monkeypatch):
    """Grids of fresh integrands equal the one-shot grid, and so do the
    ensembles stepped on them, at every worker count."""
    n_paths, n_steps = 4113, 130
    expected = simulate_embeddings(
        [matrix_clarks[key] for key in MATRIX_KEYS], n_paths, n_steps, 17)
    grids = [reference_grid(matrix_clarks[key]) for key in MATRIX_KEYS]
    for n in WORKER_COUNTS:
        set_workers(monkeypatch, n)
        clarks = [ClarkIntegrand(matrix_transports[key])
                  for key in MATRIX_KEYS]
        ensembles = simulate_embeddings(clarks, n_paths, n_steps, 17)
        for key, clark, ens, ref, grid in zip(MATRIX_KEYS, clarks, ensembles,
                                              expected, grids):
            assert np.array_equal(clark._grid, grid), (n, key)
            assert np.array_equal(ens.T, ref.T), (n, key)
            assert np.array_equal(ens.bt, ref.bt), (n, key)


def test_concurrent_simulations_build_each_chunk_once(matrix_transports,
                                                      monkeypatch):
    """Two threads simulating on one integrand, each with its own fill pool,
    at a 1 us switch interval, match the reference: the grid is built once,
    by the constructor, and the simulations only read it."""
    set_workers(monkeypatch, 4)
    clark = ClarkIntegrand(matrix_transports["double_well_k"])
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
    assert np.array_equal(clark._grid, reference_grid(clark))
    T, bt, w1 = reference_simulation(clark, 4113, 300, seed=21)
    for ens in results:
        assert np.array_equal(ens.T, T)
        assert np.array_equal(ens.w1, w1)


def test_extrapolation_count_does_not_depend_on_workers(matrix_transports,
                                                        monkeypatch):
    """Only the calling thread touches the transports: the constructor's g'
    table and E g, and g at the end of the run."""
    tmaps = [matrix_transports[key] for key in MATRIX_KEYS]
    deltas = {}
    for n in (1, 2):
        set_workers(monkeypatch, n)
        before = [tmap.extrapolation_count for tmap in tmaps]
        simulate_embeddings([ClarkIntegrand(tmap) for tmap in tmaps],
                            4096, 64, seed=19)
        deltas[n] = [tmap.extrapolation_count - b
                     for tmap, b in zip(tmaps, before)]
    assert deltas[1] == deltas[2]
    assert all(delta > 0 for delta in deltas[1])


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_simulation_matches_reference_on_matrix(key, matrix_clarks,
                                                monkeypatch):
    assert_matches_reference(monkeypatch, matrix_clarks[key], 4113, 64, seed=7)


@pytest.mark.parametrize("n_paths,n_steps", [
    (3, 600), (4113, 200), (9000, 97), (12288, 130), (4096, 256)])
def test_simulation_matches_reference_ragged(n_paths, n_steps, matrix_clarks,
                                             monkeypatch):
    # the chunks hold 255 steps for 3 paths, 63 for 4113, 29 for 9000, 21
    # for 12288 and 64 for 4096: the first four step counts leave the last
    # chunk part-full, and with 4096 paths it holds only the final grid time
    assert_matches_reference(monkeypatch, matrix_clarks["abs"], n_paths,
                             n_steps, seed=11)


def test_simulation_matches_reference_with_large_seed(matrix_clarks,
                                                      monkeypatch):
    assert_matches_reference(monkeypatch, matrix_clarks["double_well_k"], 5000,
                             300, seed=2**63 + 12345)


@pytest.mark.parametrize("n_paths", [3, 4113, 12288],
                         ids=lambda n: f"{n}-trapezoid")
def test_batched_simulation_matches_per_potential_reference(
        n_paths, matrix_clarks, monkeypatch):
    # six integrands give chunks of 42 steps for 3 and 4113 paths and 21
    # for 12288; 131 grid times leave the last chunk part-full
    n_steps = 130
    clarks = [matrix_clarks[key] for key in MATRIX_KEYS]
    expected = [reference_simulation(clark, n_paths, n_steps, 13)
                for clark in clarks]
    for n in (1, 2):
        set_workers(monkeypatch, n)
        ensembles = simulate_embeddings(clarks, n_paths, n_steps, 13)
        assert len(ensembles) == len(clarks)
        for key, ens, (T, bt, w1) in zip(MATRIX_KEYS, ensembles, expected):
            assert np.array_equal(ens.T, T), (n, key)
            assert np.array_equal(ens.bt, bt), (n, key)
            assert np.array_equal(ens.w1, w1), (n, key)
            assert ens.potential_label == \
                matrix_clarks[key].transport.potential.label


def test_batched_simulation_gives_each_ensemble_its_own_w1(matrix_clarks):
    ensembles = simulate_embeddings(
        [matrix_clarks["abs"], matrix_clarks["zero"]], 100, 32, seed=1)
    first, second = (ens.w1 for ens in ensembles)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)


def test_batched_simulation_rejects_bad_integrand_lists():
    with pytest.raises(ValueError, match="at least one"):
        simulate_embeddings([], 100, 32, seed=1)


def test_many_fill_threads_under_fast_switching(matrix_clarks, monkeypatch):
    """Eight fill threads on a 1 us switch interval still match the reference.

    Ten ragged blocks over eight fill tasks share tasks and scratch buffers;
    a generator used out of order or a buffer refilled while being stepped
    would change the ensemble.
    """
    set_workers(monkeypatch, 8)
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


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_per_chunk(matrix_transports, matrix_clarks):
    """Grid build and long simulations stay far below one-shot sizes.

    One-shot, the grid build holds two 257 x 64 x 1025 arrays (~270 MB) and
    the simulation a 8192 x 4096 increment array plus 8193 integrand rows
    (~330 MB), and 8193 more rows (~67 MB) for each further potential.
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


def test_grid_chunk_allocates_only_the_interpolated_values(matrix_transports):
    """After a thread's first chunk its node buffer is reused, so a chunk
    allocates only np.interp's output.  A fresh node array beside it made
    glibc re-fault the worker threads' heap pages around every chunk."""
    clark = ClarkIntegrand(matrix_transports["abs"])
    clark._fill_grid(2)     # sizes this thread's node buffer
    chunk_bytes = 8 * (bass_embedding._GRID_TAU_ROWS * len(clark._gh_z)
                       * len(clark._y))
    tracemalloc.start()
    try:
        clark._fill_grid(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk_bytes <= peak < 1.5 * chunk_bytes


def test_worker_count_follows_affinity(monkeypatch):
    monkeypatch.setattr(bass_embedding.os, "sched_getaffinity",
                        lambda pid: {0, 2, 3, 5, 7, 9}, raising=False)
    monkeypatch.setattr(bass_embedding.os, "cpu_count", lambda: 64)
    assert bass_embedding._worker_count() == 6
