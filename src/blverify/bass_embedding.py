"""Computational Skorokhod embedding through the martingale integrand of g.

Write g for the increasing map pushing N(0, 1) to mu and W for a Brownian
motion on [0, 1].  The martingale representation of g(W_1) has predictable
integrand

    a(s, y) = E[ g'(y + W_{1-s}) ],

and time-changing it produces a Brownian motion B for which

    T = int_0^1 a(s, W_s)^2 ds

is a stopping time with B(T) = g(W_1) - E[g(W_1)], distributed as the
centered mu.  Since a <= sup g' <= sqrt(A) (Caffarelli's bound for convex V;
g' = 1/k'(g) for a slope map with k' >= sqrt(alpha) = 1/sqrt(A)), the
stopping time is bounded by the Gaussian variance A, and Wald's identity
gives E[T] = var(X).  `t_bound_check` checks each link of that chain at
round-off on the tables a run builds.

An ensemble carries the integrand it was simulated on, and every check
reads the transport, A and E[g(W_1)] from it, taking the ensemble alone.

The simulator draws W on a uniform grid, integrates a(s, W_s)^2 by the
trapezoidal rule, and evaluates the embedded value through the distributional
identity B(T) = g(W_1) - E[g(W_1)] directly (the time-changed path itself is
never needed).  Randomness comes from counter-based Philox streams keyed by
(seed, block index) over fixed-size path blocks, so results are bit-identical
for a given (seed, n_paths, n_steps) no matter how many workers process the
blocks or how the steps are chunked.

T is a functional of the path W alone, so one simulation serves several
transports: `simulate_embeddings` draws the increments once, locates W on
the integrands' common y grid once per step, and integrates each integrand
along the same paths.  Each of its ensembles is bit-identical to a
`simulate_embedding` call for that integrand alone.

Memory is bounded per chunk, not per problem or per integrand.  The Clark
grids are filled when their integrands are constructed, a few tau rows per
task on a pool of one worker thread per CPU the process may run on; after
that an integrand is read-only.  The quadrature nodes are the same for
every transport, so `clark_integrands` fills several grids in one pass that
locates each node in the dense g' table once for all of them and then
interpolates each table by numpy.interp's formula, bit for bit.

The simulation streams the steps in row chunks of a few MB: while the
calling thread interpolates the integrand rows of the current chunk and
steps every path side by side in one vector, at most as many worker threads
draw the next chunk's increments block by block into reused buffers
(Philox fills release the GIL).  A chunk holds fewer steps the more
integrands share it, so its row tables stay the same size.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gaussian_core import std_normal_cdf
from .transport import TransportMap

__all__ = [
    "ClarkIntegrand",
    "EmbeddingEnsemble",
    "clark_integrands",
    "WaldReport",
    "TBoundReport",
    "LawReport",
    "simulate_embedding",
    "simulate_embeddings",
    "wald_check",
    "t_bound_check",
    "embedded_law_check",
]

_BLOCK_PATHS = 4096            # fixed: part of the random-stream layout
_HERMITE_NODES = 64            # Gauss-Hermite nodes of the smoothing
_TAU_CELLS = 256               # Clark grid cells in tau = sqrt(1 - s)
_Y_CELLS = 1024                # Clark grid cells in y, on [-_Y_MAX, _Y_MAX]
_Y_MAX = 8.0
_FINE_CELLS = 8192             # cells of the dense g' table on [-11.5, 11.5]
_CHUNK_VALUES = 1 << 18        # float64 values per step-chunk table (2 MB)
_GRID_TAU_ROWS = 2             # tau rows per Clark-grid chunk (~1 MB of nodes)
_CSV_ROWS = 2048               # rows formatted per CSV write (~0.6 MB transient)
_U = 2.0**-53                  # unit roundoff
# Relative round-off allowed above sqrt(A) on the g' table and the Clark
# grid: 6.6x the largest excess that test_bass_embedding.py's
# TestChecks::test_t_bound_tolerances_cover_measured_round_off measures
# (1366 u = 1.5e-13, on the g' table of linear(20) at A = 1.44, whose
# transport window is centred on the mode -28.8; 844 u while the window
# stopped at -6), a test that fails from 1/4 of it.
_G_PRIME_REL_TOL = 1e-12
# Per unit of 1 + |E X| / sd(X), 8.8x the largest law error (5.7e-16) of
# test_bass_embedding.py::TestEmbeddedLaw::test_law_tolerance_covers_measured_round_off
_LAW_TOL = 5e-15


@dataclass
class EmbeddingEnsemble:
    """Monte Carlo samples of (T, B(T), W_1) simulated on ``clark``; at
    least two paths, so that every check has a standard error."""

    T: np.ndarray
    bt: np.ndarray
    w1: np.ndarray
    n_steps: int
    clark: ClarkIntegrand
    clamp_count: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("an ensemble needs at least 2 paths, got "
                             f"{self.n_paths}")

    @property
    def n_paths(self) -> int:
        return int(self.T.size)

    def to_csv(self, path) -> None:
        """Write `path,T,bt,w1` rows with 17 significant digits."""
        row = "{},{:.17g},{:.17g},{:.17g}\n".format
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("path,T,bt,w1\n")
            for start in range(0, self.n_paths, _CSV_ROWS):
                stop = start + _CSV_ROWS
                fh.write("".join(map(row, range(start, stop),
                                     self.T[start:stop].tolist(),
                                     self.bt[start:stop].tolist(),
                                     self.w1[start:stop].tolist())))


class ClarkIntegrand:
    """The smoothed-derivative integrand a(s, y) = E[g'(y + sqrt(1-s) Z)].

    The smoothing is a 64-node Gauss-Hermite sum, tabulated on a tensor grid
    (257 tau = sqrt(1-s) nodes, uniform in tau where the integrand is
    smooth, by 1025 uniform y nodes on [-8, 8]) that path simulation
    samples bilinearly.  g' enters through a dense table on [-11.5, 11.5],
    interpolated linearly; its constant continuation beyond the ends
    matches the transport's linear extrapolation of g.

    The constructor tabulates g' and E[g(W_1)] and fills the whole grid; it
    is the one-transport case of `clark_integrands`, which fills the grids
    of several transports in one pass.  The integrand is read-only
    afterwards, so any number of simulations may share it.
    """

    # abscissae shared by every integrand: the Gauss-Hermite nodes, the
    # dense g' table (the displacements reach |y| ~ 23, where g' is already
    # the constant extrapolation slope) and the (tau, y) grid
    _gh_z, _gh_w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    _gh_z = np.sqrt(2.0) * _gh_z
    _gh_w = _gh_w / np.sqrt(np.pi)
    _fine_x = np.linspace(-11.5, 11.5, _FINE_CELLS + 1)
    _tau = np.linspace(0.0, 1.0, _TAU_CELLS + 1)
    _y = np.linspace(-_Y_MAX, _Y_MAX, _Y_CELLS + 1)

    def __init__(self, transport: TransportMap):
        self._tabulate(transport)
        _fill_grids([self])

    def _tabulate(self, transport: TransportMap) -> None:
        # everything that calls the transport, on the calling thread
        self.transport = transport
        self._fine_gp = np.asarray(transport.g_prime(self._fine_x), float)
        self.mean_g = float(np.dot(self._gh_w,
                                   np.asarray(transport.g(self._gh_z), float)))
        self._grid = np.empty((len(self._tau), len(self._y)))

    def rows_for_steps(self, n_steps: int, start: int,
                       stop: int) -> np.ndarray:
        """Integrand rows at s_i = i / n_steps for start <= i < stop, with
        0 <= start < stop <= n_steps + 1.

        The rows are interpolated linearly in tau.
        """
        s = np.arange(start, stop) / n_steps
        tau = np.sqrt(1.0 - s)
        dtau = self._tau[1] - self._tau[0]
        pos = np.clip(tau / dtau, 0.0, len(self._tau) - 1.001)
        j = pos.astype(np.int64)
        frac = (pos - j)[:, None]
        return self._grid[j] * (1.0 - frac) + self._grid[j + 1] * frac


def clark_integrands(transports) -> list[ClarkIntegrand]:
    """One integrand per transport, their grids filled in one pass.

    Every grid smooths its own g' table over the same quadrature nodes
    y + tau z_k, so each node is located in the dense table once for all
    the transports.  Each integrand is bit-identical to
    `ClarkIntegrand(transport)`.
    """
    transports = list(transports)
    clarks = [ClarkIntegrand.__new__(ClarkIntegrand) for _ in transports]
    for clark, transport in zip(clarks, transports):
        clark._tabulate(transport)
    _fill_grids(clarks)
    return clarks


# the dense table's nodes are exactly x0 + j h, so a node's cell follows
# from one division
_FINE_X0 = ClarkIntegrand._fine_x[0]
_FINE_H = (ClarkIntegrand._fine_x[-1] - _FINE_X0) / _FINE_CELLS
assert np.array_equal(ClarkIntegrand._fine_x,
                      _FINE_X0 + np.arange(_FINE_CELLS + 1) * _FINE_H)
# abscissae by cell of the padded table: cell 0 holds every x < x0, and
# its -max keeps x - xp finite there
_FINE_XP = np.concatenate(([-np.finfo(float).max], ClarkIntegrand._fine_x))


def _interp_tables(fine_gp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and slopes of the g' table by cell, with zero-slope cells
    for x < x0 (index 0) and for x >= the last node (the last index)."""
    values = np.concatenate((fine_gp[:1], fine_gp))
    slopes = np.concatenate(
        ([0.0], np.diff(fine_gp) / np.diff(ClarkIntegrand._fine_x), [0.0]))
    return values, slopes


def _fine_cells(x: np.ndarray, cell: np.ndarray, offset: np.ndarray,
                below: np.ndarray) -> None:
    """Locate finite x in the padded g' table: x lies in
    [_FINE_XP[cell], _FINE_XP[cell + 1]) and offset = x - _FINE_XP[cell].

    The rounded quotient can land on the next node but never below the true
    cell (rounding is monotone and every node is exact), so one step back
    where the offset came out negative finds it.  ``below`` is scratch.
    """
    np.subtract(x, _FINE_X0 - _FINE_H, out=offset)
    offset /= _FINE_H
    np.clip(offset, 0.0, _FINE_CELLS + 1, out=offset)
    np.copyto(cell, offset, casting="unsafe")    # floor: offset >= 0
    _FINE_XP.take(cell, out=offset, mode="clip")
    np.subtract(x, offset, out=offset)
    np.less(offset, 0.0, out=below)
    back = np.flatnonzero(below)
    cell[back] -= 1
    offset[back] = x[back] - _FINE_XP[cell[back]]


def _interp_cells(table, cell: np.ndarray, offset: np.ndarray,
                  out: np.ndarray, scratch: np.ndarray) -> None:
    """g' at the points located by `_fine_cells`, by numpy.interp's formula
    slope[j] (x - xp[j]) + fp[j], so bit for bit equal to numpy.interp over
    the table (whose values are finite)."""
    values, slopes = table
    slopes.take(cell, out=out, mode="clip")     # every cell is in range
    out *= offset
    values.take(cell, out=scratch, mode="clip")
    out += scratch


def _fill_grids(clarks) -> None:
    """Fill the grids of `clarks` in chunks of _GRID_TAU_ROWS tau rows on a
    pool of `_worker_count` threads."""
    tables = [_interp_tables(clark._fine_gp) for clark in clarks]
    with ThreadPoolExecutor(_worker_count()) as pool:
        for _ in pool.map(lambda t0: _fill_chunk(clarks, tables, t0),
                          range(0, len(ClarkIntegrand._tau), _GRID_TAU_ROWS)):
            pass    # re-raises a failed chunk's exception


def _fill_chunk(clarks, tables, t0: int) -> None:
    # Gauss-Hermite smoothing of g' for tau rows t0 .. t0 + _GRID_TAU_ROWS
    tau = ClarkIntegrand._tau[t0:t0 + _GRID_TAU_ROWS]
    z, y = ClarkIntegrand._gh_z, ClarkIntegrand._y
    shape = (len(tau), len(z), len(y))
    nodes, offset, cell, below, gathered = _chunk_buffers(math.prod(shape))
    np.add(y[None, None, :], tau[:, None, None] * z[None, :, None],
           out=nodes.reshape(shape))
    _fine_cells(nodes, cell, offset, below)
    values = nodes.reshape(shape)   # the nodes are no longer needed
    for clark, table in zip(clarks, tables):
        _interp_cells(table, cell, offset, out=nodes, scratch=gathered)
        rows = clark._grid[t0:t0 + len(tau)]
        np.einsum("k,tky->ty", ClarkIntegrand._gh_w, values, out=rows)
        if t0 == 0:
            rows[0] = values[0, 0]      # tau = 0: the nodes are y, a = g'(y)


_scratch = threading.local()


def _chunk_buffers(n: int):
    """This thread's reused buffers for the n quadrature nodes of a grid
    chunk: nodes (later the g' values), offsets, cells, a mask and gathered
    table values.

    A chunk then allocates about 0.1 MB.  Fresh MB-sized arrays per chunk
    made glibc release and re-fault a worker thread's heap pages around
    every chunk: about 400k page faults and 1 s of system time per
    six-potential, 12288-path run.
    """
    bufs = getattr(_scratch, "grid", None)
    if bufs is None or bufs[0].size < n:
        bufs = _scratch.grid = (np.empty(n), np.empty(n),
                                np.empty(n, dtype=np.intp),
                                np.empty(n, dtype=bool), np.empty(n))
    return tuple(buf[:n] for buf in bufs)


def _worker_count() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def simulate_embedding(clark: ClarkIntegrand, n_paths: int, n_steps: int,
                       seed: int) -> EmbeddingEnsemble:
    """Simulate the stopping-time ensemble.

    Parameters
    ----------
    clark : ClarkIntegrand
        Integrand of the transport being embedded.
    n_paths : int
        Number of Brownian paths (>= 2).
    n_steps : int
        Uniform time steps on [0, 1] (>= 16).  The stopping time of each
        path is the trapezoidal integral of a(s, W_s)^2; Wald's check allows
        it a discretization bias of 2 sqrt(A) / n_steps.
    seed : int
        Stream key in [0, 2^64); identical (seed, n_paths, n_steps)
        reproduce the ensemble bit-for-bit, independent of the worker count.
    """
    return simulate_embeddings([clark], n_paths, n_steps, seed)[0]


def simulate_embeddings(clarks, n_paths: int, n_steps: int,
                        seed: int) -> list[EmbeddingEnsemble]:
    """Simulate one ensemble per integrand on one shared set of paths.

    The stopping time is a functional of the Brownian path alone, so every
    integrand is integrated along the same W: the increments are drawn once
    and each step locates W on the common y grid once.  Each ensemble is
    bit-identical to a `simulate_embedding` call for its integrand with the
    same arguments (see there for the parameters).

    Raises
    ------
    ValueError
        On an empty integrand list and on the invalid arguments
        `simulate_embedding` rejects.
    """
    clarks = list(clarks)
    if not clarks:
        raise ValueError("simulate_embeddings needs at least one integrand")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_steps < 16:
        raise ValueError("n_steps must be >= 16")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")

    y = clarks[0]._y
    y0 = y[0]
    inv_dy = (len(y) - 1) / (y[-1] - y[0])
    n_y = len(y)
    dt = 1.0 / n_steps
    sqrt_dt = math.sqrt(dt)
    weights = np.full(n_steps + 1, dt)   # trapezoid weights
    weights[0] *= 0.5
    weights[-1] *= 0.5

    # block b owns paths [4096 b, 4096 (b + 1)) and the Philox stream keyed
    # (seed, b), drawn row-major over (step, path) as one continuous stream
    blocks = [(off, min(_BLOCK_PATHS, n_paths - off), np.random.Generator(
                   np.random.Philox(key=np.array(
                       [seed, off // _BLOCK_PATHS],
                       dtype=np.uint64))))
              for off in range(0, n_paths, _BLOCK_PATHS)]
    # steps per chunk: an increment buffer and the row tables of all the
    # integrands each hold at most _CHUNK_VALUES values
    chunk = max(1, _CHUNK_VALUES // max(n_paths, len(clarks) * n_y))
    starts = range(0, n_steps + 1, chunk)
    n_fill = min(_worker_count(), len(blocks))
    incr_bufs = [np.empty((chunk, n_paths)) for _ in range(2)]
    scratch = [np.empty(chunk * min(n_paths, _BLOCK_PATHS))
               for _ in range(n_fill)]

    def fill(k: int, c: int) -> None:
        # increments of chunk c for every n_fill-th block from k, so each
        # block's generator is only ever used by one task at a time
        start = starts[c]
        n_rows = min(start + chunk, n_steps) - start
        for off, size, gen in blocks[k::n_fill]:
            normals = scratch[k][:n_rows * size].reshape(n_rows, size)
            gen.standard_normal(out=normals)
            np.multiply(normals, sqrt_dt,
                        out=incr_bufs[c % 2][:n_rows, off:off + size])

    t_accs = [np.zeros(n_paths) for _ in clarks]
    w = np.zeros(n_paths)
    pos, frac, lo, hi = (np.empty(n_paths) for _ in range(4))
    j = np.empty(n_paths, dtype=np.int64)
    with ThreadPoolExecutor(n_fill) as pool:
        pending = [pool.submit(fill, k, 0) for k in range(n_fill)]
        for c, start in enumerate(starts):
            for fut in pending:
                fut.result()
            if c + 1 < len(starts):   # draw the next chunk during this one
                pending = [pool.submit(fill, k, c + 1) for k in range(n_fill)]
            incr = incr_bufs[c % 2]
            stop = min(start + chunk, n_steps + 1)
            tables = []
            for clark in clarks:
                rows = clark.rows_for_steps(n_steps, start, stop)
                # diffs[r, j] = row[j+1] - row[j]
                tables.append((rows, np.diff(rows, axis=1)))
            for r in range(stop - start):
                i = start + r
                np.subtract(w, y0, out=pos)
                pos *= inv_dy
                np.clip(pos, 0.0, n_y - 1.001, out=pos)
                np.copyto(j, pos, casting="unsafe")   # truncates like astype
                np.subtract(pos, j, out=frac)
                for (rows, diffs), t_acc in zip(tables, t_accs):
                    # 0 <= j <= n_y - 2 after the clip, so mode="clip" only
                    # skips the bounds check
                    rows[r].take(j, out=lo, mode="clip")
                    diffs[r].take(j, out=hi, mode="clip")
                    hi *= frac          # hi = frac * (row[j+1] - row[j])
                    lo += hi            # lo = a(s_i, w)
                    lo *= lo
                    lo *= weights[i]
                    t_acc += lo
                if i < n_steps:
                    w += incr[r]

    ensembles = []
    for clark, t_acc in zip(clarks, t_accs):
        tmap = clark.transport
        ensembles.append(EmbeddingEnsemble(
            T=t_acc, bt=np.asarray(tmap.g(w), float) - clark.mean_g,
            w1=w.copy(), n_steps=int(n_steps), clark=clark,
            clamp_count=int(np.count_nonzero(t_acc > tmap.A))))
    return ensembles


# ---------------------------------------------------------------------------
# ensemble checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaldReport:
    mean_T: float
    std_error: float
    bias_budget: float
    reference_var: float
    passed: bool


@dataclass(frozen=True)
class TBoundReport:
    """The maxima behind T <= A and the bounds they must not exceed.

    ``g_prime_bound`` (sqrt(A) widened by round-off) bounds both the dense
    g' table and the Clark grid a, and ``T_bound`` (A widened by the same
    round-off squared and by the rounding of the trapezoid sum) bounds T.
    """

    max_g_prime: float
    max_a: float
    g_prime_bound: float
    max_T: float
    T_bound: float
    passed: bool


@dataclass(frozen=True)
class LawReport:
    pushforward_error: float    # max |F_mu(bt + E g) - Phi(w1)| over paths
    mean_error: float           # |E g - E X| / sd(X)
    tolerance: float
    passed: bool


def wald_check(ensemble: EmbeddingEnsemble) -> WaldReport:
    """E[T] = var(X) up to Monte Carlo noise and discretization bias."""
    tmap = ensemble.clark.transport
    var_x = float(tmap.var_mu)
    mean_t = float(np.mean(ensemble.T))
    se = float(np.std(ensemble.T, ddof=1) / math.sqrt(ensemble.n_paths))
    budget = 3.0 * se + 2.0 * math.sqrt(tmap.A) / ensemble.n_steps
    return WaldReport(mean_T=mean_t, std_error=se, bias_budget=budget,
                      reference_var=var_x,
                      passed=bool(abs(mean_t - var_x) <= budget))


def t_bound_check(ensemble: EmbeddingEnsemble) -> TBoundReport:
    """T <= A, and Caffarelli's g' <= sqrt(A) behind it, at round-off.

    g' <= sqrt(A) on the integrand's dense g' table; its Gauss-Hermite
    averages a <= sqrt(A) on the Clark grid; and T <= A, since each T is a
    trapezoid sum of a^2 whose weights sum to 1.  The T bound adds to the
    squared a bound (n_steps + 32) u: the recursive sum of n_steps + 1
    terms rounds by at most n_steps u / (1 - n_steps u) relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 4.2), and
    the weights, the two linear interpolations and the square of each term
    by less than 20 u, which leaves the second-order terms room.
    """
    clark = ensemble.clark
    gp_bound = math.sqrt(clark.transport.A) * (1.0 + _G_PRIME_REL_TOL)
    t_bound = gp_bound**2 * (1.0 + (ensemble.n_steps + 32) * _U)
    max_gp = float(np.max(clark._fine_gp))
    max_a = float(np.max(clark._grid))
    max_t = float(np.max(ensemble.T))
    return TBoundReport(
        max_g_prime=max_gp, max_a=max_a, g_prime_bound=gp_bound, max_T=max_t,
        T_bound=t_bound,
        passed=bool(max_gp <= gp_bound and max_a <= gp_bound
                    and max_t <= t_bound))


def embedded_law_check(ensemble: EmbeddingEnsemble) -> LawReport:
    """Whether F_mu(bt + E g) = Phi(w1) at every path (by the survival
    function above w1 = 0) and E g = E X, within _LAW_TOL (1 + |E X| /
    sd(X)): the law of bt + E g = g(W_1) is mu at round-off."""
    clark, tmap, w = ensemble.clark, ensemble.clark.transport, ensemble.w1
    x, up = ensemble.bt + clark.mean_g, w > 0.0
    push = float(np.max(np.abs(np.concatenate((
        tmap.cdf(x[~up]) - std_normal_cdf(w[~up]),
        tmap.survival(x[up]) - std_normal_cdf(-w[up]))))))
    sd = math.sqrt(tmap.var_mu)
    mean_err = abs(clark.mean_g - tmap.mean_mu) / sd
    tol = _LAW_TOL * (1.0 + abs(tmap.mean_mu) / sd)
    return LawReport(push, mean_err, tol, bool(max(push, mean_err) <= tol))
