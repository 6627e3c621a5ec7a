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

The Clark grid is the exact Gaussian smoothing of the piecewise-linear
interpolant of a dense g' table.  On the table's uniform lattice, which
contains the grid's y nodes, that smoothing is a discrete convolution whose
kernel has a closed-form DFT, so an FFT fills a batch of tau rows at a
time.  The kernel depends on tau alone, so `clark_integrands` fills several
grids in one pass that computes each batch's multipliers once for all of
them.  The grids are filled when their integrands are constructed; after
that an integrand is read-only.

Memory is bounded per chunk, not per problem or per integrand: the grid
fill holds one batch of tau rows, and the simulation streams the steps in
row chunks of a few MB.  While the calling thread interpolates the
integrand rows of the current chunk and steps every path side by side in
one vector, at most as many worker threads draw the next chunk's increments
block by block into reused buffers (Philox fills release the GIL).  A chunk
holds fewer steps the more integrands share it, so its row tables stay the
same size.
"""

from __future__ import annotations

import math
import os
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
_HERMITE_NODES = 64            # Gauss-Hermite nodes of E[g(W_1)]
_TAU_CELLS = 256               # Clark grid cells in tau = sqrt(1 - s)
_Y_CELLS = 1024                # Clark grid cells in y, on [-_Y_MAX, _Y_MAX]
_Y_MAX = 8.0
_FINE_PER_UNIT = 384           # g' lattice x_j = j / 384, 6 cells per y cell
_FINE_HALF = 4416              # |j| <= 4416: the lattice spans [-11.5, 11.5]
_FFT_SIZE = 16384              # circular convolution length of the smoothing
_FFT_TAU_ROWS = 16             # tau rows per FFT batch (2 MB per array)
_EXP_UNDERFLOW = 746.0         # exp(-x) rounds to 0 in float64 for x >= this
_CHUNK_VALUES = 1 << 18        # float64 values per step-chunk table (2 MB)
_CSV_ROWS = 2048               # rows formatted per CSV write (~0.6 MB transient)
_U = 2.0**-53                  # unit roundoff
# Relative round-off allowed above sqrt(A) on the g' table and the Clark
# grid: 6.6x the largest excess that test_bass_embedding.py's
# TestChecks::test_t_bound_tolerances_cover_measured_round_off measures
# (1366 u = 1.5e-13, on the g' table of linear(20) at A = 1.44, whose
# transport window is centred on the mode -28.8; 854 u on its grid), a test
# that fails from 1/4 of it.
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

    g' enters through a dense table on the lattice x_j = j / 384,
    |j| <= 4416, which spans [-11.5, 11.5] and contains every y node; it is
    read as its piecewise-linear interpolant, continued as a constant
    beyond the ends to match the transport's linear extrapolation of g.
    The integrand is that interpolant's exact Gaussian smoothing,
    tabulated on a tensor grid (257 tau = sqrt(1-s) nodes, uniform in tau
    where the integrand is smooth, by 1025 uniform y nodes on [-8, 8])
    that path simulation samples bilinearly.

    The constructor tabulates g' and E[g(W_1)] and fills the whole grid; it
    is the one-transport case of `clark_integrands`, which fills the grids
    of several transports in one pass.  The integrand is read-only
    afterwards, so any number of simulations may share it.
    """

    # abscissae shared by every integrand: the 64-node Gauss-Hermite rule of
    # mean_g, the g' lattice (the smoothing reaches |y| ~ 23, where g' is
    # already the constant extrapolation slope) and the (tau, y) grid
    _gh_z, _gh_w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    _gh_z = np.sqrt(2.0) * _gh_z
    _gh_w = _gh_w / np.sqrt(np.pi)
    _fine_x = np.arange(-_FINE_HALF, _FINE_HALF + 1) / _FINE_PER_UNIT
    _tau = np.linspace(0.0, 1.0, _TAU_CELLS + 1)
    _y = np.linspace(-_Y_MAX, _Y_MAX, _Y_CELLS + 1)

    def __init__(self, transport: TransportMap):
        self._tabulate(transport)
        _fill_grids([self])

    def _tabulate(self, transport: TransportMap) -> None:
        self.transport = transport
        self._fine_gp = np.asarray(transport.g_prime(self._fine_x), float)
        self.mean_g = float(np.dot(self._gh_w,
                                   np.asarray(transport.g(self._gh_z), float)))
        self._grid = np.empty((len(self._tau), len(self._y)))

    def rows_for_steps(self, n_steps: int, start: int,
                       stop: int) -> np.ndarray:
        """Integrand rows at s_i = i / n_steps for start <= i < stop, with
        0 <= start < stop <= n_steps + 1.

        The rows are interpolated linearly in tau; a step on a tau node,
        s = 0 among them, reads that node's row exactly.
        """
        s = np.arange(start, stop) / n_steps
        tau = np.sqrt(1.0 - s)
        pos = tau / (self._tau[1] - self._tau[0])
        # tau = 1 is the last node: j is the cell below it, and frac = 1
        j = np.minimum(pos.astype(np.int64), len(self._tau) - 2)
        frac = (pos - j)[:, None]
        return self._grid[j] * (1.0 - frac) + self._grid[j + 1] * frac


def clark_integrands(transports) -> list[ClarkIntegrand]:
    """One integrand per transport, their grids filled in one pass.

    The smoothing kernel depends on tau alone, so each batch of tau rows
    computes its Fourier multipliers once for all the transports.  Each
    integrand is bit-identical to `ClarkIntegrand(transport)`.
    """
    transports = list(transports)
    clarks = [ClarkIntegrand.__new__(ClarkIntegrand) for _ in transports]
    for clark, transport in zip(clarks, transports):
        clark._tabulate(transport)
    _fill_grids(clarks)
    return clarks


# y_i = -8 + i / 64 is the lattice node j = 6 i - 3072, exactly
_Y_ON_FINE = slice(_FINE_HALF - 3072, _FINE_HALF + 3073, 6)
assert np.array_equal(ClarkIntegrand._fine_x[_Y_ON_FINE], ClarkIntegrand._y)


def _smoothing_multipliers(tau: np.ndarray) -> np.ndarray:
    """The DFT over _FFT_SIZE lattice cells of the kernel that maps a g'
    table to its Gaussian smoothing at the lattice nodes, one row per tau.

    The table's interpolant is sum_j L_j hat((x - x_j) / h), so smoothing it
    by N(0, tau^2) convolves L with the samples of hat * N(0, tau^2) at the
    lattice offsets.  That kernel's Fourier transform is
    h sinc^2(k h / 2) e^{-tau^2 k^2 / 2}, and the DFT of its samples sums
    it over the aliases k + 2 pi n / h.  In cycles per cell, u = k h / 2 pi
    in [0, 1/2], the terms n = 0 and n = -1 remain: the largest of the
    others, n = 1, stays below 4e-24 for tau >= 1/256, and adding n = 1,
    +-2 and -3 leaves every grid of the default matrix bit for bit.
    """
    u = np.fft.rfftfreq(_FFT_SIZE)
    k_per_u = 2.0 * np.pi * _FINE_PER_UNIT
    # beyond |k| = reach, e^{-k^2 tau^2 / 2} is 0 at every tau of the batch,
    # so leaving those terms out changes no bit
    reach = math.sqrt(2.0 * _EXP_UNDERFLOW) / np.min(tau)
    out = np.zeros((len(tau), len(u)))
    for alias in (u, u - 1.0):
        near = np.abs(k_per_u * alias) < reach
        k_tau = k_per_u * alias[near] * tau[:, None]
        out[:, near] += np.sinc(alias[near])**2 * np.exp(-0.5 * k_tau * k_tau)
    return out


def _fill_grids(clarks) -> None:
    """Fill the grids of `clarks` with the exact Gaussian smoothing of their
    g' tables: the tau = 0 row is the table at the y nodes, and the other
    rows convolve L - L_0 with the smoothing kernel by FFT, _FFT_TAU_ROWS
    rows at a time, and add L_0 back (which keeps a constant table exact).

    Padded to _FFT_SIZE cells, L - L_0 continues as the constant L_N - L_0
    over the first half of the padding and as 0 over the second, which the
    circular convolution reads as lying left of x_0.  Every y node lies
    5120 cells, at least 13.3 tau, from the jump between the halves, where
    the kernel's tail weighs below 1e-39.
    """
    n_fine = len(ClarkIntegrand._fine_x)
    split = n_fine + (_FFT_SIZE - n_fine) // 2
    spectra = []
    for clark in clarks:
        table = clark._fine_gp
        padded = np.zeros(_FFT_SIZE)
        np.subtract(table, table[0], out=padded[:n_fine])
        padded[n_fine:split] = table[-1] - table[0]
        spectra.append(np.fft.rfft(padded))
        clark._grid[0] = table[_Y_ON_FINE]
    tau = ClarkIntegrand._tau
    for t0 in range(1, len(tau), _FFT_TAU_ROWS):
        multipliers = _smoothing_multipliers(tau[t0:t0 + _FFT_TAU_ROWS])
        for clark, spectrum in zip(clarks, spectra):
            rows = np.fft.irfft(spectrum * multipliers, _FFT_SIZE)
            np.add(rows[:, _Y_ON_FINE], clark._fine_gp[0],
                   out=clark._grid[t0:t0 + len(multipliers)])


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
                # diffs[r, j] = row[j+1] - row[j], and 0 in the last column,
                # so that W beyond the last y node reads that node's value
                diffs = np.zeros_like(rows)
                np.subtract(rows[:, 1:], rows[:, :-1], out=diffs[:, :-1])
                tables.append((rows, diffs))
            for r in range(stop - start):
                i = start + r
                np.subtract(w, y0, out=pos)
                pos *= inv_dy
                np.clip(pos, 0.0, n_y - 1, out=pos)
                np.copyto(j, pos, casting="unsafe")   # truncates like astype
                np.subtract(pos, j, out=frac)
                for (rows, diffs), t_acc in zip(tables, t_accs):
                    # 0 <= j <= n_y - 1 after the clip, so mode="clip" only
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

    g' <= sqrt(A) on the integrand's dense g' table; its Gaussian averages
    a <= sqrt(A) on the Clark grid; and T <= A, since each T is a
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
