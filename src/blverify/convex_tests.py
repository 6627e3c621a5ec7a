"""Convex test functions represented through their second-derivative measure.

A convex psi on R is encoded by psi(0), its left slope at 0, and the measure
psi''(dx) split into point masses (kinks) and a density (curvature).  The
function itself is recovered as

    psi(x) = psi(0) + psi'_-(0) x
             + int_[0,inf) (x - y)^+ psi''(dy)
             + int_(-inf,0) (y - x)^+ psi''(dy),

which is also the decomposition the inequality verifier exploits: every
moment of psi reduces to call/put values integrated against psi''.

The density is a sum of terms c |y|^e with c > 0 and 0 <= e <= 20, and
every psi''-integral int f(y) psi''(dy) is an atom sum plus one adaptive
quadrature of the density over a finite window: composite 7-point
Gauss-Legendre panels, bisected where a panel and its two halves disagree,
with f called on the whole array of a round's nodes (never point by point),
so the integrands passed to ``integrate_against_second_derivative`` must
accept numpy arrays.

Every such integral is finite.  mu is sqrt(A)-Lipschitz-Gaussian (Caffarelli,
Harge), so both moment sides and every constant weigh a polynomial density
against Gaussian tails; the exponent cap keeps the part of each integral
beyond its window below 1.3e-18 of it (the window sizes are at the callers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .local_time import check_variance_pair, est1_lower
from .gaussian_core import std_normal_pdf
from .potentials import _from_catalog, _real_number
from .transport import _GL_W, _panel_nodes

__all__ = [
    "ConvexTest",
    "builtin_convex_test",
    "convex_test_from_spec",
    "second_derivative_mass",
    "integrate_against_second_derivative",
    "bl2_correction",
    "bl3_constant",
    "p1_limit_bounds",
    "P1LimitBounds",
]

# Largest exponent e of a density term c |y|^e.  As A grows, the share of a
# psi'' integral beyond its window tends to (mpmath, e = 20) 3.5e-21 for the
# 12 sd of moment_lhs and bl2, 2.4e-20 for the 12 sd of bl3, and 1.3e-18
# for the 11.43 sd of moment_rhs; at e = 30 these are 3.7e-17, 1.7e-16 and
# 8.1e-15, and at e = 60 4.8e-9, 1.2e-8 and 2.5e-7.
_MAX_EXPONENT = 20

# The psi'' integrals use the 7-point Gauss-Legendre panels of the
# transport tables.
_PANEL_BUDGET = 400       # most panels per integral, as quad's limit=400


@dataclass(frozen=True)
class ConvexTest:
    """A convex test function given by (psi(0), psi'_-(0), psi'').

    ``atoms`` are (location, mass >= 0) pairs; ``density`` holds the terms
    (c, e) of the density sum c |y|^e, each with c > 0 and
    0 <= e <= 20.  ``closed_form`` evaluates psi directly on arrays;
    ``verifier.moment_check`` needs it (every catalog and psi'' data test
    function has one), while the quadrature verdicts use only psi(0),
    psi'_-(0) and psi''.

    ``_gaussian_sides`` holds the verifier's integrals of psi'' against
    Gaussian kernels alone (E psi(Y) and the bl3 constants), keyed by
    quantity and arguments: they read no measure, so every verdict that
    shares this psi computes each of them once.
    """

    label: str
    value_at_zero: float
    left_slope_at_zero: float
    atoms: tuple[tuple[float, float], ...] = ()
    density: tuple[tuple[float, float], ...] = ()
    closed_form: Callable | None = None
    _gaussian_sides: dict = field(default_factory=dict, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        for loc, mass in self.atoms:
            if mass < 0.0:
                raise ValueError(f"negative atom mass {mass} at {loc}")
        for c, e in self.density:
            if not (0.0 < c < math.inf and 0 <= e <= _MAX_EXPONENT):
                raise ValueError(f"density term {c:g} |y|^{e:g} needs "
                                 f"0 < c < inf and 0 <= e <= {_MAX_EXPONENT}")

    def density_at(self, y) -> np.ndarray:
        """The psi'' density sum c |y|^e at the points y."""
        ay = np.abs(np.asarray(y, float))
        return sum(c * ay ** e for c, e in self.density)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _abs_test() -> ConvexTest:
    return ConvexTest("abs", 0.0, -1.0, atoms=((0.0, 2.0),),
                      closed_form=np.abs)


def _square_test() -> ConvexTest:
    return ConvexTest("square", 0.0, 0.0, density=((2.0, 0),),
                      closed_form=lambda x: np.asarray(x, float) ** 2)


def _power_test(p: float) -> ConvexTest:
    # |x|^p for 2 <= p <= 22; the psi'' density p(p-1)|x|^{p-2} of 1 < p < 2
    # is non-integrable at 0 and is deliberately not offered
    if not 2.0 <= p <= _MAX_EXPONENT + 2:
        raise ValueError("power test functions require 2 <= p <= "
                         f"{_MAX_EXPONENT + 2}, got {p:g}")
    return ConvexTest(
        f"power({p:g})", 0.0, 0.0, density=((p * (p - 1.0), p - 2.0),),
        closed_form=lambda x, _p=p: np.abs(np.asarray(x, float)) ** _p)


def _call_test(strike: float) -> ConvexTest:
    return ConvexTest(
        f"call({strike:g})",
        value_at_zero=max(-strike, 0.0),
        left_slope_at_zero=1.0 if strike < 0.0 else 0.0,
        atoms=((float(strike), 1.0),),
        closed_form=lambda x, _k=strike: np.maximum(np.asarray(x, float) - _k, 0.0))


def _corridor_test(width: float) -> ConvexTest:
    # max(|x| - K, 0): flat on [-K, K], unit kinks at +-K
    if width <= 0.0:
        raise ValueError("corridor width must be positive")
    return ConvexTest(
        f"corridor({width:g})", 0.0, 0.0,
        atoms=((-float(width), 1.0), (float(width), 1.0)),
        closed_form=lambda x, _k=width: np.maximum(np.abs(np.asarray(x, float)) - _k, 0.0))


def _finite(value, what: str) -> float:
    x = _real_number(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


# each factory's arguments are the test function's parameters
_CATALOG = {
    "abs": _abs_test,
    "square": _square_test,
    "power": lambda p: _power_test(_finite(p, "power")),
    "call": lambda strike=1.0: _call_test(_finite(strike, "strike")),
    "corridor": lambda width=1.0: _corridor_test(_finite(width, "width")),
}
# the keys of an explicit psi'' object
_DATA_KEYS = {"atoms", "density_poly_coeffs", "label", "value_at_zero",
              "left_slope_at_zero"}


def builtin_convex_test(name: str, **params) -> ConvexTest:
    """Catalog: ``abs``, ``square``, ``power(p)``, ``call(strike)``,
    ``corridor(width)``; each parameter must be finite, and any other name
    or parameter raises ValueError."""
    return _from_catalog(_CATALOG, "convex test", name, params)


def convex_test_from_spec(spec) -> ConvexTest:
    """Parse the config encoding of a test function.

    Accepts ``"abs"``, ``"square"``, ``{"power": p}``, ``{"call": K}``,
    ``{"corridor": K}``, or ``{"atoms": [[loc, mass], ...],
    "density_poly_coeffs": [c0, c1, ...]}`` (density sum_i c_i |y|^i,
    required nonnegative, with c_i = 0 for i > 20), optionally with a
    string ``label``, ``value_at_zero`` and ``left_slope_at_zero``; every
    number must be finite, and an object with any other key is rejected.
    ``power`` takes 2 <= p <= 22.  The last form gets the closed form
    psi(0) + psi'_-(0) x + sum of kinks + sum_i c_i |x|^(i+2) / ((i+1)(i+2)).
    """
    if isinstance(spec, str):
        return builtin_convex_test(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"cannot parse convex test spec {spec!r}")
    if len(spec) == 1 and next(iter(spec)) in ("power", "call", "corridor"):
        (name, value), = spec.items()
        return _CATALOG[name](value)
    keys = set(spec)
    if keys - _DATA_KEYS or not keys & {"atoms", "density_poly_coeffs"}:
        raise ValueError(f"cannot parse convex test spec {spec!r}: an object "
                         "is {'power': p}, {'call': K}, {'corridor': K} or "
                         f"psi'' data with keys among {sorted(_DATA_KEYS)}")
    atoms = tuple((_finite(l, "atom location"), _finite(m, "atom mass"))
                  for l, m in spec.get("atoms", []))
    coeffs = tuple(_finite(c, "density coefficient")
                   for c in spec.get("density_poly_coeffs", []))
    label = spec.get("label", "custom")
    if not isinstance(label, str):
        raise ValueError(f"psi label must be a string, got {label!r}")
    value_at_zero = _finite(spec.get("value_at_zero", 0.0), "value_at_zero")
    left_slope = _finite(spec.get("left_slope_at_zero", 0.0),
                         "left_slope_at_zero")
    if any(c < 0 for c in coeffs):
        raise ValueError("density polynomial coefficients must be >= 0")
    density = tuple((c, i) for i, c in enumerate(coeffs) if c > 0.0)

    def closed_form(x):
        # the psi'' reconstruction integrated term by term:
        # int_0^|x| (|x| - y) c_i y^i dy = c_i |x|^(i+2) / ((i+1)(i+2))
        x = np.asarray(x, float)
        out = value_at_zero + left_slope * x
        for loc, mass in atoms:
            out = out + mass * (np.maximum(x - loc, 0.0) if loc >= 0.0
                                else np.maximum(loc - x, 0.0))
        ax = np.abs(x)
        for c, i in density:
            out = out + c * ax ** (i + 2) / ((i + 1) * (i + 2))
        return out

    return ConvexTest(
        label=label, value_at_zero=value_at_zero,
        left_slope_at_zero=left_slope, atoms=atoms, density=density,
        closed_form=closed_form)


# ---------------------------------------------------------------------------
# psi'' integrals
# ---------------------------------------------------------------------------

def second_derivative_mass(psi: ConvexTest) -> float:
    """Total mass psi''(R): the atom masses, or +inf with any density term."""
    if psi.density:
        return math.inf
    return float(sum(mass for _, mass in psi.atoms))


def integrate_against_second_derivative(psi: ConvexTest, f: Callable,
                                        scale: float, window: float) -> float:
    """int f(y) psi''(dy) over |y| <= window: atom sum plus density
    quadrature.

    ``f`` is vectorized: it is called once on the array of atom locations
    and once per refinement round on the flat array of quadrature nodes.
    ``scale`` is the width of f's bulk: each half-line starts from 16
    equal panels with added edges at scale 2^k (k >= -3), so that a kernel
    far narrower than the window still meets nodes.
    """
    total = 0.0
    if psi.atoms:
        locs = np.array([loc for loc, _ in psi.atoms])
        values = np.broadcast_to(np.asarray(f(locs), float), locs.shape)
        for (_, mass), value in zip(psi.atoms, values):
            total += mass * float(value)
    if psi.density:
        h = lambda y: psi.density_at(y) * np.asarray(f(y), float)
        k = np.arange(-3, math.ceil(math.log2(window / scale)))
        grades = scale * 2.0 ** k
        edges = np.union1d(np.linspace(0.0, window, 17),
                           grades[grades < window])
        # split at 0: power-law densities have a corner there
        total += (_gauss_legendre(h, -edges[::-1], 1e-13, 1e-11)
                  + _gauss_legendre(h, edges, 1e-13, 1e-11))
    return total


def _panel_values(h: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """7-point Gauss-Legendre value of h on each panel [lo_i, hi_i], with h
    called once on the flat array of all nodes."""
    nodes, half = _panel_nodes(lo, hi)
    vals = np.broadcast_to(np.asarray(h(nodes.ravel()), float), nodes.size)
    return half * (vals.reshape(nodes.shape) @ _GL_W)


def _gauss_legendre(h: Callable, edges: np.ndarray,
                    epsabs: float, epsrel: float) -> float:
    """Adaptive composite 7-point Gauss-Legendre quadrature of h on
    [edges[0], edges[-1]], started from the panels between ``edges``.

    Every round evaluates the two halves of each open panel in one call of
    h.  A panel is accepted when its one-panel and two-half values differ by
    at most its width share of max(epsabs, epsrel |estimate|); the others
    are bisected.  When bisecting would exceed ``_PANEL_BUDGET`` panels the
    current estimate is returned, as quad does at its subinterval limit.
    """
    lo, hi = edges[0], edges[-1]
    a, b = edges[:-1], edges[1:]
    n = a.size
    m = 0.5 * (a + b)
    vals = _panel_values(h, np.concatenate([a, a, m]), np.concatenate([b, m, b]))
    whole, left, right = vals[:n], vals[n:2 * n], vals[2 * n:]
    accepted = 0.0
    n_panels = n
    while True:
        halves = left + right
        estimate = accepted + float(np.sum(halves))
        if not math.isfinite(estimate):
            return estimate     # overflowing integrand: nothing can converge
        tol = max(epsabs, epsrel * abs(estimate))
        ok = np.abs(whole - halves) <= (b - a) / (hi - lo) * tol
        accepted += float(np.sum(halves[ok]))
        bad = ~ok
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0 or n_panels + n_bad > _PANEL_BUDGET:
            return accepted + float(np.sum(halves[bad]))
        n_panels += n_bad
        a = np.concatenate([a[bad], m[bad]])
        b = np.concatenate([m[bad], b[bad]])
        whole = np.concatenate([left[bad], right[bad]])
        m = 0.5 * (a + b)
        n = a.size
        vals = _panel_values(h, np.concatenate([a, m]), np.concatenate([m, b]))
        left, right = vals[:n], vals[n:]


# ---------------------------------------------------------------------------
# inequality constants
# ---------------------------------------------------------------------------

def bl2_correction(psi: ConvexTest, variance: float, var_x: float) -> float:
    """Sharpening term of the lower moment inequality:

        (1/2) int psi''(dx) est1_lower(x, A, var_x),

    half the closed-form lower bound of ``local_time.est1_lower`` for the
    residual local time E[L^x_A - L^x_T], integrated against psi'' on whole
    node arrays.  Zero when var_x = A, nondecreasing as var_x drops; var_x
    above A beyond rounding raises ValueError (``check_variance_pair``).
    """
    var_x = check_variance_pair(variance, var_x)
    if var_x == variance:
        return 0.0
    sd = math.sqrt(variance)
    return 0.5 * integrate_against_second_derivative(
        psi, lambda x: est1_lower(x, variance, var_x), sd, 12.0 * sd + 10.0)


def bl3_constant(psi: ConvexTest, variance: float, q: float) -> float:
    """Constant of the upper moment inequality at conjugate exponent q:

        (A(1+q))^{1/(2q)} int psi''(dx) p(1; x / sqrt(A(1+q))),

    a finite value >= 0.
    """
    if not (q > 1.0):
        raise ValueError(f"bl3_constant requires q > 1, got {q}")
    aq = variance * (1.0 + q)
    scale = math.sqrt(aq)
    integral = integrate_against_second_derivative(
        psi, lambda x: std_normal_pdf(x / scale), scale, 12.0 * scale + 10.0)
    return aq ** (1.0 / (2.0 * q)) * integral


@dataclass(frozen=True)
class P1LimitBounds:
    """The two p -> 1 limit bounds.

    ``finite_mass_bound`` caps the moment gap by
    psi''(R) (A - var_x)^{1/2} / sqrt(2 pi) and is None when psi'' has
    infinite mass; ``mad_lower`` is the universal lower bound
    1 / sqrt(2 pi A) for E|X - EX| / var(X).
    """

    finite_mass_bound: float | None
    mad_lower: float


def p1_limit_bounds(psi: ConvexTest, variance: float, var_x: float) -> P1LimitBounds:
    """Evaluate the finite-mass gap bound and the MAD ratio lower bound;
    var_x is checked against A as in :func:`bl2_correction`."""
    var_x = check_variance_pair(variance, var_x)
    mass = second_derivative_mass(psi)
    if math.isinf(mass):
        fmb = None
    else:
        fmb = mass * math.sqrt(variance - var_x) / math.sqrt(2.0 * math.pi)
    return P1LimitBounds(finite_mass_bound=fmb,
                         mad_lower=1.0 / math.sqrt(2.0 * math.pi * variance))
