"""Monotone transport from a Gaussian to a tilted measure.

Given a potential V and a Gaussian reference law nu = N(0, A), the measure

    mu(dx) = (1/Z) exp(-V(x)) nu(dx)

is represented through composite Gauss-Legendre panel integrals of its
unnormalized density on an adaptively refined edge grid.  Cumulative masses
are accumulated from *both* ends, so the CDF keeps full relative accuracy in
the left tail and the survival function in the right tail; the increasing
rearrangement map g = F_mu^{-1} o Phi and its derivative

    g'(x) = Phi'(x) / F_mu'(g(x))

are then accurate deep into both tails.  The derivative is always evaluated
through this density ratio, never by finite differences.

Every panel edge x_k is an exact node of g: its w-image is
w_k = Phi^{-1}(F_mu(x_k)), from the cumulative table of the side that
resolves it (infinite below 1e-300 of the mass), and g'(w_k) = Phi'(w_k) /
F_mu'(x_k).  g(x) brackets x between two w-images, starts from the cubic
Hermite interpolant of that panel's (w, x, g') at its two edges, and takes
three Newton steps on the panel's cumulative mass, left-accumulated up to
x = 0 and right-accumulated above.  The build splits each inner panel from
an infinite w-image to one within +-11.5, and end panels holding
Phi(-11.5) ~ 6.6e-31 of the mass or more raise DivergentNormalizerError, so
every |x| <= 11.5 brackets between two finite w-images.  Beyond that, g
continues linearly.

For convex V the map satisfies g' <= sqrt(A) (Caffarelli); every simulating
run checks that bound on the dense g' table of its Clark integrand
(``bass_embedding.t_bound_check``).
"""

from __future__ import annotations

import numpy as np

from .gaussian_core import (_Q_EDGE, std_normal_cdf, std_normal_pdf,
                            std_normal_quantile)
from .potentials import Potential

__all__ = [
    "TransportMap",
    "DivergentNormalizerError",
    "NonFinitePotentialError",
    "NonConvexPotentialError",
    "build_transport",
]


class DivergentNormalizerError(ValueError):
    """The normalizer integral of exp(-V) d nu did not converge."""


class NonFinitePotentialError(ValueError):
    """The potential is not finite on the evaluation window."""


class NonConvexPotentialError(ValueError):
    """An operation that requires a convex potential got a non-convex one."""


# Gauss-Legendre panel rule; 7 points is exact through degree 13 and leaves
# composite errors far below every tolerance in use for panels <= 0.05 sd.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(7)

_WINDOW_SIGMA = 12.0       # window half width in units of sqrt(A), plus pad
_WINDOW_PAD = 2.0
_MODE_GRID_PAD = 8.0          # the mode search grid reaches 12 sd + this
_MODE_GRID_MOVES = 16         # most moves of that grid toward the mode
_INITIAL_PANELS = 4096
_MAX_EDGES = 9000
_MAX_REFINE_ROUNDS = 30
_G_XMAX = 11.5                # |x| beyond which g is linearly extrapolated
_G_TAIL = std_normal_cdf(-_G_XMAX)    # about 6.6e-31
# Newton steps of g from its cubic Hermite start; tests/test_transport.py
# (TestInverse) holds the residual of fewer and more steps
_NEWTON_STEPS = 3
_G_BLOCK = 4096               # points of g per pass, as a simulation block
_TINY = 5e-324
# Relative panel tolerance of the density tables.  On every transport of the
# default matrix at A = 1 and 4, 1e-10, 1e-6 and 1.0 give the same 4097
# edges: the initial panels already meet it.
_QUADRATURE_TOL = 1e-10


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_X[None, :], half


class TransportMap:
    """Quadrature representation of mu and of the transport map g.

    Build once via :func:`build_transport`; evaluation methods are read-only
    and safe for concurrent use (the extrapolation counter is advisory).
    """

    def __init__(self, potential: Potential, variance: float):
        if not (variance > 0.0 and np.isfinite(variance)):
            raise ValueError(f"Gaussian variance must be positive, got {variance}")
        self.potential = potential
        self.A = float(variance)
        self.extrapolation_count = 0

        sd = np.sqrt(self.A)
        center, expo_min = self._mode(_WINDOW_SIGMA * sd + _MODE_GRID_PAD)
        # The tables integrate exp(shift - V(x) - x^2/(2A)) / sqrt(2 pi A),
        # shift being the exponent's minimum rounded to a whole number: the
        # peak stays within e^(1/2) of 1/sqrt(2 pi A) however far the tilt
        # moves the mode, and a minimum within 1/2 of 0 (zero, quadratic,
        # abs, the slope maps) leaves the tables bit for bit as without the
        # shift.  _z is their total mass, Z e^shift.
        self._shift = float(round(expo_min))
        self._log_norm = np.log(np.sqrt(2.0 * np.pi) * sd) - self._shift
        half = _WINDOW_SIGMA * sd + _WINDOW_PAD
        self.window = (center - half, center + half)

        self._build_tables()
        self._g_edge_x = np.array([-_G_XMAX, _G_XMAX])
        self._g_edge_val = self._g_core(self._g_edge_x)
        self._g_edge_slope = self._g_prime_core(self._g_edge_x)

    # -- construction ------------------------------------------------------

    def _mode(self, reach: float) -> tuple[float, float]:
        """The window centre and the exponent there: the argmin of the
        tilted exponent V(x) + x^2/(2A) on a 4097-point grid of
        [-reach, reach], moved by ``reach`` toward an argmin that lands on
        an end of the grid.  For convex V the exponent is strictly convex,
        so an argmin inside the grid is the mode; the Gaussian mass outside
        the window around it is below 1e-31."""
        center = 0.0
        for _ in range(_MODE_GRID_MOVES + 1):
            coarse = np.linspace(center - reach, center + reach, 4097)
            expo = (np.asarray(self.potential.value(coarse), float)
                    + coarse**2 / (2 * self.A))
            if not np.all(np.isfinite(expo)):
                raise NonFinitePotentialError(
                    f"potential {self.potential.label!r} is not finite on "
                    "the window")
            i = int(np.argmin(expo))
            center = float(coarse[i])
            if 0 < i < coarse.size - 1:
                return center, float(expo[i])
        raise DivergentNormalizerError(
            f"the tilted exponent of {self.potential.label!r} still falls at "
            f"x = {center:g}, {_MODE_GRID_MOVES} grid moves out: its mode is "
            "out of reach or exp(-V) d nu diverges")

    def _unnormalized_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        expo = np.asarray(self.potential.value(x), float) + x * x / (2.0 * self.A)
        return np.exp(-expo - self._log_norm)

    def _build_tables(self) -> None:
        lo, hi = self.window
        edges = np.linspace(lo, hi, _INITIAL_PANELS + 1)
        interior_kinks = [k for k in self.potential.kinks if lo < k < hi]
        if interior_kinks:
            edges = np.unique(np.concatenate([edges, np.asarray(interior_kinks)]))

        for _ in range(_MAX_REFINE_ROUNDS):
            nodes, half = _panel_nodes(edges[:-1], edges[1:])
            vals = self._unnormalized_density(nodes)
            if not np.all(np.isfinite(vals)):
                raise NonFinitePotentialError(
                    f"density of {self.potential.label!r} is not finite "
                    "inside the window")
            mass = half * (vals @ _GL_W)
            z = float(np.sum(mass))
            cum_lo = np.concatenate([[0.0], np.cumsum(mass)])
            cum_hi = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
            mids = 0.5 * (edges[:-1] + edges[1:])
            ln, lh = _panel_nodes(edges[:-1], mids)
            rn, rh = _panel_nodes(mids, edges[1:])
            refined = (lh * (self._unnormalized_density(ln) @ _GL_W)
                       + rh * (self._unnormalized_density(rn) @ _GL_W))
            total = float(np.sum(refined))
            bad = np.abs(mass - refined) > _QUADRATURE_TOL * max(total, 1e-300)
            # and each inner panel from an infinite w-image into +-_G_XMAX
            q, p = _Q_EDGE * z, _G_TAIL * z
            bad[1:-1] |= (((cum_lo[1:-2] < q) & (cum_lo[2:-1] >= p))
                          | ((cum_hi[2:-1] < q) & (cum_hi[1:-2] >= p)))
            if not bad.any():
                break
            if len(edges) + int(np.sum(bad)) > _MAX_EDGES:
                raise DivergentNormalizerError(
                    f"normalizer quadrature for {self.potential.label!r} "
                    "did not converge within the node budget")
            edges = np.unique(np.concatenate([edges, mids[bad]]))
        else:
            raise DivergentNormalizerError(
                f"normalizer quadrature for {self.potential.label!r} did not "
                f"converge after {_MAX_REFINE_ROUNDS} refinement rounds")

        # the accepting round's nodes and values give every table
        mass_x = half * ((vals * nodes) @ _GL_W)
        mass_x2 = half * ((vals * nodes * nodes) @ _GL_W)
        if not (np.isfinite(z) and z > 0.0):
            raise DivergentNormalizerError(
                f"normalizer of {self.potential.label!r} evaluated to {z}")

        self.edges = edges
        self._z = z
        self._cum_lo, self._cum_hi = cum_lo, cum_hi
        self._cum_x_lo = np.concatenate([[0.0], np.cumsum(mass_x)])
        self._cum_x_hi = np.concatenate([np.cumsum(mass_x[::-1])[::-1], [0.0]])
        self.mean_mu = float(np.sum(mass_x) / z)
        self.var_mu = float(np.sum(mass_x2) / z - self.mean_mu**2)

        # the edges as nodes of g (module docstring): w-images and g'
        lower = self._cum_lo <= self._cum_hi
        frac = np.where(lower, self._cum_lo, self._cum_hi) / z
        q = np.full(frac.shape, -np.inf)
        q[frac >= _Q_EDGE] = std_normal_quantile(frac[frac >= _Q_EDGE])
        self._edge_w = np.where(lower, q, -q)
        self._edge_gp = std_normal_pdf(self._edge_w) / np.maximum(
            self._unnormalized_density(edges) / z, _TINY)
        finite = self._edge_w[np.isfinite(self._edge_w)]
        if not (finite[0] < -_G_XMAX and finite[-1] > _G_XMAX):
            raise DivergentNormalizerError(
                f"the end panels of {self.potential.label!r} hold "
                f"{mass[0] / z:.2e} and {mass[-1] / z:.2e} of its mass (g needs "
                f"each below {_G_TAIL:.2e}): exp(-V) d nu has not decayed")

    # -- elementary evaluations ---------------------------------------------

    @property
    def Z(self) -> float:
        """The normalizer, the integral of exp(-V) d nu; inf where that
        overflows (a tilt that moves the mode far out), while the tables,
        which hold it times e^shift, stay finite."""
        with np.errstate(over="ignore"):
            return float(self._z * np.exp(-self._shift))

    def _partial_mass(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        nodes, half = _panel_nodes(lo, hi)
        return half * (self._unnormalized_density(nodes) @ _GL_W)

    def _partial_moments(self, lo: np.ndarray, hi: np.ndarray):
        """Unnormalized mass and first moment on [lo, hi], from one density
        evaluation on the panel nodes."""
        nodes, half = _panel_nodes(lo, hi)
        vals = self._unnormalized_density(nodes)
        return half * (vals @ _GL_W), half * ((vals * nodes) @ _GL_W)

    def _bracket(self, x: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.edges, x, side="right") - 1
        return np.clip(j, 0, len(self.edges) - 2)

    def _cdf_at(self, arr: np.ndarray, j: np.ndarray,
                mass: np.ndarray) -> np.ndarray:
        # mass: unnormalized mass on [edges[j], clip(arr)]
        out = np.clip((self._cum_lo[j] + mass) / self._z, 0.0, 1.0)
        out[arr <= self.window[0]] = 0.0
        out[arr >= self.window[1]] = 1.0
        return out

    def _survival_at(self, arr: np.ndarray, j: np.ndarray,
                     mass: np.ndarray) -> np.ndarray:
        # mass: unnormalized mass on [clip(arr), edges[j + 1]]
        out = np.clip((self._cum_hi[j + 1] + mass) / self._z, 0.0, 1.0)
        out[arr <= self.window[0]] = 1.0
        out[arr >= self.window[1]] = 0.0
        return out

    def cdf(self, x):
        """F_mu(x), formed from left-accumulated panel masses."""
        arr = np.atleast_1d(np.asarray(x, float))
        j = self._bracket(arr)
        out = self._cdf_at(arr, j, self._partial_mass(self.edges[j], np.clip(
            arr, self.window[0], self.window[1])))
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def survival(self, x):
        """1 - F_mu(x), formed from right-accumulated masses (tail accurate)."""
        arr = np.atleast_1d(np.asarray(x, float))
        j = self._bracket(arr)
        out = self._survival_at(arr, j, self._partial_mass(
            np.clip(arr, self.window[0], self.window[1]), self.edges[j + 1]))
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    # -- the transport map ----------------------------------------------------

    def _g_core(self, x: np.ndarray) -> np.ndarray:
        """g(x) for |x| <= 11.5, as the module docstring describes, in
        blocks of _G_BLOCK points, so that the Newton steps' temporaries
        do not grow with the size of x."""
        w, gp = self._edge_w, self._edge_gp
        out = np.empty_like(x)
        for k in range(0, x.size, _G_BLOCK):
            xb = x[k:k + _G_BLOCK]
            j = np.searchsorted(w, xb, side="right") - 1
            lo, hi = self.edges[j], self.edges[j + 1]
            h = w[j + 1] - w[j]
            t = (xb - w[j]) / h
            s = 1.0 - t
            y = np.clip(s * s * (1.0 + 2.0 * t) * lo
                        + t * t * (3.0 - 2.0 * t) * hi
                        + h * t * s * (s * gp[j] - t * gp[j + 1]), lo, hi)
            neg = xb <= 0.0
            target = std_normal_cdf(np.where(neg, xb, -xb)) * self._z
            base = np.where(neg, self._cum_lo[j], self._cum_hi[j + 1])
            sign = np.where(neg, 1.0, -1.0)
            for _ in range(_NEWTON_STEPS):
                resid = base + self._partial_mass(
                    np.where(neg, lo, y), np.where(neg, y, hi)) - target
                y = np.clip(y - sign * resid / np.maximum(
                    self._unnormalized_density(y), _TINY), lo, hi)
            out[k:k + _G_BLOCK] = y
        return out

    def _g_prime_core(self, x: np.ndarray) -> np.ndarray:
        gx = self._g_core(x)
        dens = self._unnormalized_density(gx) / self._z
        return std_normal_pdf(x) / np.maximum(dens, _TINY)

    def g(self, x):
        """The transport map g(x) = F_mu^{-1}(Phi(x)).

        Beyond |x| = 11.5 the map is extended linearly with the edge slope
        (the Gaussian mass there is below 1e-30); such calls are tallied in
        ``extrapolation_count``.
        """
        arr = np.atleast_1d(np.asarray(x, float))
        out = np.empty_like(arr)
        inside = np.abs(arr) <= _G_XMAX
        if np.any(inside):
            out[inside] = self._g_core(arr[inside])
        n_out = int(arr.size - np.count_nonzero(inside))
        if n_out:
            self.extrapolation_count += n_out
            side = (arr[~inside] > 0).astype(int)
            out[~inside] = (self._g_edge_val[side]
                            + self._g_edge_slope[side]
                            * (arr[~inside] - self._g_edge_x[side]))
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def g_prime(self, x):
        """g'(x) = Phi'(x) / F_mu'(g(x)), by the density ratio."""
        arr = np.atleast_1d(np.asarray(x, float))
        out = np.empty_like(arr)
        inside = np.abs(arr) <= _G_XMAX
        if np.any(inside):
            out[inside] = self._g_prime_core(arr[inside])
        n_out = int(arr.size - np.count_nonzero(inside))
        if n_out:
            self.extrapolation_count += n_out
            side = (arr[~inside] > 0).astype(int)
            out[~inside] = self._g_edge_slope[side]
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    # -- partial first moments (used by the moment verifier) -------------------

    def upper_call_value(self, c):
        """E[(X - c)^+] via right-accumulated partial first moments."""
        arr = np.atleast_1d(np.asarray(c, float))
        j = self._bracket(arr)
        cx = np.clip(arr, self.window[0], self.window[1])
        mass, moment = self._partial_moments(cx, self.edges[j + 1])
        pm = (self._cum_x_hi[j + 1] + moment) / self._z
        out = pm - arr * self._survival_at(arr, j, mass)
        out[arr <= self.window[0]] = self.mean_mu - arr[arr <= self.window[0]]
        out[arr >= self.window[1]] = 0.0
        out = np.maximum(out, 0.0)
        return float(out[0]) if np.ndim(c) == 0 else out.reshape(np.shape(c))

    def lower_put_value(self, c):
        """E[(c - X)^+] via left-accumulated partial first moments."""
        arr = np.atleast_1d(np.asarray(c, float))
        j = self._bracket(arr)
        cx = np.clip(arr, self.window[0], self.window[1])
        mass, moment = self._partial_moments(self.edges[j], cx)
        pm = (self._cum_x_lo[j] + moment) / self._z
        out = arr * self._cdf_at(arr, j, mass) - pm
        out[arr <= self.window[0]] = 0.0
        out[arr >= self.window[1]] = arr[arr >= self.window[1]] - self.mean_mu
        out = np.maximum(out, 0.0)
        return float(out[0]) if np.ndim(c) == 0 else out.reshape(np.shape(c))


def build_transport(potential: Potential, variance: float) -> TransportMap:
    """Construct the transport representation of mu = exp(-V) d N(0, A) / Z.

    Raises
    ------
    DivergentNormalizerError
        If the normalizer quadrature fails to converge or the integrand has
        not decayed at the window boundary.
    NonFinitePotentialError
        If V takes non-finite values on the evaluation window.
    """
    return TransportMap(potential, variance)
