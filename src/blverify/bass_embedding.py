"""Computational Skorokhod embedding through the martingale integrand of g.

Write g for the increasing map pushing N(0, 1) to mu and W for a Brownian
motion on [0, 1].  The martingale representation of g(W_1) has predictable
integrand

    a(s, y) = E[ g'(y + W_{1-s}) ],

and time-changing it produces a Brownian motion B for which

    T = int_0^1 a(s, W_s)^2 ds

is a stopping time with B(T) = g(W_1) - E[g(W_1)], distributed as the
centered mu.  Since a <= sup g' <= sqrt(A), the stopping time is bounded by
the Gaussian variance A, and Wald's identity gives E[T] = var(X).

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

Memory is bounded per chunk, not per problem or per integrand.  The
simulation streams the steps in row chunks of a few MB: while the calling
thread interpolates the integrand rows of the current chunk and steps every
path side by side in one vector, worker threads draw the next chunk's
increments block by block into reused buffers (Philox fills release the
GIL).  A chunk holds fewer steps the more integrands share it, so its row
tables stay the same size.  The Clark grids are built inside the same
pipeline: a second pool fills them in chunks of a few tau rows, highest tau
first, which is the order the steps read them in, and the step loop waits
only for the chunks covering its current steps.  The worker count is the
number of CPUs the process may run on, capped by the BL_EMBED_THREADS
environment variable; a cap of 1 runs everything on the calling thread,
building each grid chunk just before its rows are first read.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .transport import TransportMap

__all__ = [
    "ClarkIntegrand",
    "EmbeddingEnsemble",
    "WaldReport",
    "TBoundReport",
    "KSReport",
    "simulate_embedding",
    "simulate_embeddings",
    "wald_check",
    "t_bound_check",
    "embedded_law_check",
    "ks_distance",
]

_BLOCK_PATHS = 4096            # fixed: part of the random-stream layout
_HERMITE_NODES = 64            # Gauss-Hermite nodes of the smoothing
_TAU_CELLS = 256               # Clark grid cells in tau = sqrt(1 - s)
_Y_CELLS = 1024                # Clark grid cells in y, on [-_Y_MAX, _Y_MAX]
_Y_MAX = 8.0
_CHUNK_VALUES = 1 << 18        # float64 values per step-chunk table (2 MB)
_GRID_TAU_ROWS = 2             # tau rows per Clark-grid chunk (~1 MB of nodes)
_CSV_ROWS = 2048               # rows formatted per CSV write (~0.6 MB transient)
ENV_THREADS = "BL_EMBED_THREADS"


@dataclass
class EmbeddingEnsemble:
    """Monte Carlo samples of (T, B(T), W_1) from one simulation run."""

    T: np.ndarray
    bt: np.ndarray
    w1: np.ndarray
    n_steps: int
    seed: int
    A: float
    mean_g: float
    clamp_count: int
    potential_label: str

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
    samples bilinearly.

    The constructor tabulates g' and E[g(W_1)] but not the grid: that is
    filled in chunks of _GRID_TAU_ROWS tau rows, on `simulate_embeddings`'
    worker threads while it simulates, or on the calling thread by
    `rows_for_steps` and `_grid` for any chunk they read that is still
    missing.  Each chunk is built exactly once, by whichever thread claims
    it first, so the integrand is not read-only until its grid is complete;
    all its methods are safe for concurrent use.
    """

    def __init__(self, transport: TransportMap):
        self.transport = transport
        t, w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
        self._gh_z = np.sqrt(2.0) * t
        self._gh_w = w / np.sqrt(np.pi)

        # dense g' lookup: the GH displacements reach |y| ~ 23, where g' is
        # already the constant extrapolation slope
        self._fine_x = np.linspace(-11.5, 11.5, 8193)
        self._fine_gp = np.asarray(transport.g_prime(self._fine_x), float)

        self._tau = np.linspace(0.0, 1.0, _TAU_CELLS + 1)
        self._y = np.linspace(-_Y_MAX, _Y_MAX, _Y_CELLS + 1)
        self._table = np.empty((len(self._tau), len(self._y)))
        # one future per chunk of _GRID_TAU_ROWS tau rows, set by the thread
        # that claimed the chunk once its rows are in the table
        self._chunks: list[Future | None] = \
            [None] * -(-len(self._tau) // _GRID_TAU_ROWS)
        self._chunk_lock = threading.Lock()

        self.mean_g = float(np.dot(self._gh_w,
                                   np.asarray(transport.g(self._gh_z), float)))

    @property
    def _grid(self) -> np.ndarray:
        """The whole (tau, y) grid; missing chunks are built first."""
        self._wait_rows(0, len(self._tau))
        return self._table

    def _interp_gprime(self, x: np.ndarray) -> np.ndarray:
        # constant continuation beyond the table matches the transport's
        # linear extrapolation of g
        return np.interp(x, self._fine_x, self._fine_gp)

    def _fill_grid(self, t0: int) -> None:
        # Gauss-Hermite smoothing of g' for tau rows t0 .. t0 + _GRID_TAU_ROWS
        tau = self._tau[t0:t0 + _GRID_TAU_ROWS]
        disp = tau[:, None, None] * self._gh_z[None, :, None]
        pts = _node_buffer((len(tau), len(self._gh_z), len(self._y)))
        np.add(self._y[None, None, :], disp, out=pts)
        np.einsum("k,tky->ty", self._gh_w, self._interp_gprime(pts),
                  out=self._table[t0:t0 + len(tau)])
        if t0 == 0:
            self._table[0] = self._interp_gprime(self._y)  # a(1, y) = g'(y)

    def _build_chunk(self, c: int) -> Future:
        """Future of grid chunk c, after building the chunk if it is unclaimed.

        The first caller claims the chunk and builds it; later callers get
        the same future, which holds the exception if the build failed.
        """
        with self._chunk_lock:
            future = self._chunks[c]
            claimed = future is None
            if claimed:
                future = self._chunks[c] = Future()
        if claimed:
            try:
                self._fill_grid(c * _GRID_TAU_ROWS)
            except BaseException as exc:
                future.set_exception(exc)
                raise
            future.set_result(None)
        return future

    def _wait_rows(self, lo: int, hi: int) -> None:
        """Build, or wait for, every chunk holding a grid row in [lo, hi)."""
        for c in range(lo // _GRID_TAU_ROWS, (hi - 1) // _GRID_TAU_ROWS + 1):
            self._build_chunk(c).result()

    def rows_for_steps(self, n_steps: int, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
        """Integrand rows at s_i = i / n_steps for start <= i < stop.

        The rows are interpolated linearly in tau; `stop` defaults to
        n_steps + 1, so the default range covers every grid time.
        """
        stop = n_steps + 1 if stop is None else stop
        s = np.arange(start, stop) / n_steps
        tau = np.sqrt(1.0 - s)
        dtau = self._tau[1] - self._tau[0]
        pos = np.clip(tau / dtau, 0.0, len(self._tau) - 1.001)
        j = pos.astype(np.int64)
        if j.size:
            self._wait_rows(int(j.min()), int(j.max()) + 2)
        frac = (pos - j)[:, None]
        return self._table[j] * (1.0 - frac) + self._table[j + 1] * frac


_scratch = threading.local()


def _node_buffer(shape: tuple[int, ...]) -> np.ndarray:
    """This thread's reused buffer for the quadrature nodes of a grid chunk.

    Each chunk then allocates only np.interp's output (about 1 MB).  With a
    fresh node array beside it, glibc released and re-faulted a worker
    thread's heap pages around every chunk: about 400k page faults and 1 s
    of system time per six-potential, 12288-path run.
    """
    n = math.prod(shape)
    buf = getattr(_scratch, "nodes", None)
    if buf is None or buf.size < n:
        buf = _scratch.nodes = np.empty(n)
    return buf[:n].reshape(shape)


def _worker_count() -> int:
    """CPUs this process may run on, capped by BL_EMBED_THREADS if it is set.

    An empty or non-integer BL_EMBED_THREADS is ignored.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    n_cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    try:
        cap = int(os.environ.get(ENV_THREADS, ""))
    except ValueError:
        cap = n_cpus
    return max(1, min(cap, n_cpus))


def _completed(fn, *args) -> Future:
    future = Future()
    future.set_result(fn(*args))
    return future


@contextlib.contextmanager
def _submitter(workers: int):
    """Yield `submit(fn, *args) -> Future` backed by `workers` threads.

    With one worker, submit runs fn inline and no thread is started.  Tasks
    still queued when the block exits are cancelled.
    """
    if workers == 1:
        yield _completed
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            yield pool.submit
        finally:
            pool.shutdown(cancel_futures=True)


def simulate_embedding(clark: ClarkIntegrand, n_paths: int, n_steps: int,
                       seed: int) -> EmbeddingEnsemble:
    """Simulate the stopping-time ensemble.

    Parameters
    ----------
    clark : ClarkIntegrand
        Integrand of the transport being embedded.
    n_paths : int
        Number of Brownian paths (>= 1).
    n_steps : int
        Uniform time steps on [0, 1] (>= 16).  The stopping time of each
        path is the trapezoidal integral of a(s, W_s)^2; the discretization
        bias budget quoted by the checks is 2 sqrt(A) / n_steps.
    seed : int
        Stream key; identical (seed, n_paths, n_steps) reproduce the
        ensemble bit-for-bit, independent of the worker count.
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
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_steps < 16:
        raise ValueError("n_steps must be >= 16")

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
                       [seed & 0xFFFFFFFFFFFFFFFF, off // _BLOCK_PATHS],
                       dtype=np.uint64))))
              for off in range(0, n_paths, _BLOCK_PATHS)]
    # steps per chunk: an increment buffer and the row tables of all the
    # integrands each hold at most _CHUNK_VALUES values
    chunk = max(1, _CHUNK_VALUES // max(n_paths, len(clarks) * n_y))
    starts = range(0, n_steps + 1, chunk)
    workers = _worker_count()
    n_fill = min(workers, len(blocks))
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
    with _submitter(workers) as submit, _submitter(workers) as submit_grid:
        if workers > 1:
            # build the missing grid chunks highest tau first, the order the
            # steps read them in (s = 0 is tau = 1); rows_for_steps waits for
            # the chunks it reads, and with one worker builds them itself
            jobs = sorted((-clark._tau[c * _GRID_TAU_ROWS], k, c)
                          for k, clark in enumerate(clarks)
                          for c, built in enumerate(clark._chunks)
                          if built is None)
            for _, k, c in jobs:
                submit_grid(clarks[k]._build_chunk, c)
        pending = [submit(fill, k, 0) for k in range(n_fill)]
        for c, start in enumerate(starts):
            for fut in pending:
                fut.result()
            if c + 1 < len(starts):   # draw the next chunk during this one
                pending = [submit(fill, k, c + 1) for k in range(n_fill)]
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
            w1=w.copy(), n_steps=int(n_steps), seed=int(seed),
            A=float(tmap.A), mean_g=float(clark.mean_g),
            clamp_count=int(np.count_nonzero(t_acc > tmap.A)),
            potential_label=tmap.potential.label))
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
    max_T: float
    slack: float
    violation_count: int
    passed: bool


@dataclass(frozen=True)
class KSReport:
    ks_distance: float
    threshold: float
    passed: bool


def wald_check(ensemble: EmbeddingEnsemble, var_x: float) -> WaldReport:
    """E[T] = var(X) up to Monte Carlo noise and discretization bias."""
    if ensemble.n_paths == 0:
        raise ValueError("wald_check needs a nonempty ensemble")
    n = ensemble.n_paths
    mean_t = float(np.mean(ensemble.T))
    se = float(np.std(ensemble.T, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    budget = 3.0 * se + 2.0 * math.sqrt(ensemble.A) / ensemble.n_steps
    return WaldReport(mean_T=mean_t, std_error=se, bias_budget=budget,
                      reference_var=float(var_x),
                      passed=bool(abs(mean_t - var_x) <= budget))


def t_bound_check(ensemble: EmbeddingEnsemble) -> TBoundReport:
    """T <= A up to the trapezoid discretization slack 2 sqrt(A)/n_steps."""
    if ensemble.n_paths == 0:
        raise ValueError("t_bound_check needs a nonempty ensemble")
    slack = 2.0 * math.sqrt(ensemble.A) / ensemble.n_steps
    limit = ensemble.A * (1.0 + 1e-9) + slack
    violations = int(np.count_nonzero(ensemble.T > limit))
    return TBoundReport(max_T=float(np.max(ensemble.T)), slack=slack,
                        violation_count=violations, passed=(violations == 0))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples against a CDF."""
    s = np.sort(np.asarray(samples, float))
    n = s.size
    f = np.asarray(cdf(s), float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def embedded_law_check(ensemble: EmbeddingEnsemble,
                       tmap: TransportMap) -> KSReport:
    """The embedded samples bt + E[g(W_1)] are distributed as mu.

    Pass criterion: KS distance <= 1.63 / sqrt(n), the 1% critical value.
    """
    if ensemble.n_paths == 0:
        raise ValueError("embedded_law_check needs a nonempty ensemble")
    d = ks_distance(ensemble.bt + ensemble.mean_g, tmap.cdf)
    thr = 1.63 / math.sqrt(ensemble.n_paths)
    return KSReport(ks_distance=d, threshold=thr, passed=bool(d <= thr))
