"""Convex test functions represented through their second-derivative measure.

A convex psi on R is encoded by psi(0), its left slope at 0, and the measure
psi''(dx) split into point masses (kinks) and a density (curvature).  The
function itself is recovered as

    psi(x) = psi(0) + psi'_-(0) x
             + int_[0,inf) (x - y)^+ psi''(dy)
             + int_(-inf,0) (y - x)^+ psi''(dy),

which is also the decomposition the inequality verifier exploits: every
moment of psi reduces to call/put values integrated against psi''.

Every psi''-integral int f(y) psi''(dy) is an atom sum plus one adaptive
quadrature of the density: composite 7-point Gauss-Legendre panels, bisected
where a panel and its two halves disagree, with the density and f called on
the whole array of a round's nodes (never point by point).  Densities and
the integrands passed to ``integrate_against_second_derivative`` must
therefore accept numpy arrays.

Divergent psi''-integrals are reported as an explicit +inf value, not an
error; the moment inequalities are understood to hold when both sides are
infinite, and the constants they involve live in [0, inf].
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

# Density integration runs over |y| <= this plus the caller's scale; the
# relative contribution of the outermost strips flags divergence.
_TAIL_FRACTION = 1e-8

# The psi'' integrals use the 7-point Gauss-Legendre panels of the
# transport tables.
_INITIAL_PANELS = 16
_PANEL_BUDGET = 400       # most panels per integral, as quad's limit=400


@dataclass(frozen=True)
class ConvexTest:
    """A convex test function given by (psi(0), psi'_-(0), psi'').

    ``atoms`` are (location, mass >= 0) pairs; ``density`` is a nonnegative
    callable of polynomial growth.  It must accept a 1-d array of points and
    return their values elementwise, because the quadrature evaluates it on
    all nodes of a refinement round at once.  ``closed_form`` evaluates psi
    directly on arrays; the Monte Carlo cross-check needs it (every catalog
    and psi'' data test function has one), while the quadrature verdicts
    use only psi(0), psi'_-(0) and psi''.
    """

    label: str
    value_at_zero: float
    left_slope_at_zero: float
    atoms: tuple[tuple[float, float], ...] = ()
    density: Callable | None = None
    closed_form: Callable | None = None

    def __post_init__(self):
        for loc, mass in self.atoms:
            if mass < 0.0:
                raise ValueError(f"negative atom mass {mass} at {loc}")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _abs_test() -> ConvexTest:
    return ConvexTest("abs", 0.0, -1.0, atoms=((0.0, 2.0),),
                      closed_form=np.abs)


def _square_test() -> ConvexTest:
    return ConvexTest("square", 0.0, 0.0,
                      density=lambda y: np.full_like(np.asarray(y, float), 2.0),
                      closed_form=lambda x: np.asarray(x, float) ** 2)


def _power_test(p: float) -> ConvexTest:
    # |x|^p for p >= 2; the psi'' density p(p-1)|x|^{p-2} of 1 < p < 2 is
    # non-integrable at 0 and is deliberately not offered.
    if p < 2.0:
        raise ValueError("power test functions require p >= 2")
    c = p * (p - 1.0)
    if not math.isfinite(c):   # an infinite density gives inf * 0 = nan at 0
        raise ValueError(f"power {p:g} is too large: p (p - 1) overflows")
    return ConvexTest(
        f"power({p:g})", 0.0, 0.0,
        density=lambda y, _c=c, _e=p - 2.0: _c * np.abs(np.asarray(y, float)) ** _e,
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
    required nonnegative), optionally with a string ``label``,
    ``value_at_zero`` and ``left_slope_at_zero``; every number must be
    finite, and an object with any other key is rejected.  The last form
    gets the closed form
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
    density = None
    if coeffs:
        if any(c < 0 for c in coeffs):
            raise ValueError("density polynomial coefficients must be >= 0")

        def density(y, _c=coeffs):
            ay = np.abs(np.asarray(y, float))
            return sum(ci * ay ** i for i, ci in enumerate(_c))

    def closed_form(x):
        # the psi'' reconstruction integrated term by term:
        # int_0^|x| (|x| - y) c_i y^i dy = c_i |x|^(i+2) / ((i+1)(i+2))
        x = np.asarray(x, float)
        out = value_at_zero + left_slope * x
        for loc, mass in atoms:
            out = out + mass * (np.maximum(x - loc, 0.0) if loc >= 0.0
                                else np.maximum(loc - x, 0.0))
        ax = np.abs(x)
        for i, ci in enumerate(coeffs):
            out = out + ci * ax ** (i + 2) / ((i + 1) * (i + 2))
        return out

    return ConvexTest(
        label=label, value_at_zero=value_at_zero,
        left_slope_at_zero=left_slope, atoms=atoms, density=density,
        closed_form=closed_form)


# ---------------------------------------------------------------------------
# psi'' integrals
# ---------------------------------------------------------------------------

def second_derivative_mass(psi: ConvexTest) -> float:
    """Total mass psi''(R); +inf when the density does not decay."""
    return integrate_against_second_derivative(psi, np.ones_like,
                                               window=200.0)


def integrate_against_second_derivative(psi: ConvexTest, f: Callable,
                                        window: float = 60.0) -> float:
    """int f(y) psi''(dy): atom sum plus density quadrature.

    ``f`` is vectorized: it is called once on the array of atom locations
    and once per refinement round on the flat array of quadrature nodes.
    Returns +inf when the boundary strips of the density integral still
    carry relative mass above 1e-8, the numerical signature of divergence
    (e.g. f == 1 against the infinite-mass curvature of x^2).
    """
    total = 0.0
    if psi.atoms:
        locs = np.array([loc for loc, _ in psi.atoms])
        values = np.broadcast_to(np.asarray(f(locs), float), locs.shape)
        for (_, mass), value in zip(psi.atoms, values):
            total += mass * float(value)
    if psi.density is not None:
        h = lambda y: psi.density(y) * np.asarray(f(y), float)
        inner = 0.0
        # split at 0: power-law densities have a corner there
        for lo, hi in ((-window, 0.0), (0.0, window)):
            inner += _gauss_legendre(h, lo, hi, 1e-13, 1e-11)
        strip_hi = _gauss_legendre(h, window, window * 1.05, 1e-13, 1e-11)
        strip_lo = _gauss_legendre(h, -window * 1.05, -window, 1e-13, 1e-11)
        if abs(strip_hi) + abs(strip_lo) > _TAIL_FRACTION * max(abs(inner) + total, 1e-300):
            return math.inf
        total += inner
    return total


def _panel_values(h: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """7-point Gauss-Legendre value of h on each panel [lo_i, hi_i], with h
    called once on the flat array of all nodes."""
    nodes, half = _panel_nodes(lo, hi)
    vals = np.broadcast_to(np.asarray(h(nodes.ravel()), float), nodes.size)
    return half * (vals.reshape(nodes.shape) @ _GL_W)


def _gauss_legendre(h: Callable, lo: float, hi: float,
                    epsabs: float, epsrel: float) -> float:
    """Adaptive composite 7-point Gauss-Legendre quadrature of h on [lo, hi].

    Every round evaluates the two halves of each open panel in one call of
    h.  A panel is accepted when its one-panel and two-half values differ by
    at most its width share of max(epsabs, epsrel |estimate|); the others
    are bisected.  When bisecting would exceed ``_PANEL_BUDGET`` panels the
    current estimate is returned, as quad does at its subinterval limit.
    """
    edges = np.linspace(lo, hi, _INITIAL_PANELS + 1)
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
    window = 12.0 * math.sqrt(variance) + 10.0
    return 0.5 * integrate_against_second_derivative(
        psi, lambda x: est1_lower(x, variance, var_x), window=window)


def bl3_constant(psi: ConvexTest, variance: float, q: float) -> float:
    """Constant of the upper moment inequality at conjugate exponent q:

        (A(1+q))^{1/(2q)} int psi''(dx) p(1; x / sqrt(A(1+q))),

    a value in [0, inf]; +inf propagates from the psi'' integral.
    """
    if not (q > 1.0):
        raise ValueError(f"bl3_constant requires q > 1, got {q}")
    aq = variance * (1.0 + q)
    scale = math.sqrt(aq)
    window = 12.0 * scale + 10.0
    integral = integrate_against_second_derivative(
        psi, lambda x: std_normal_pdf(x / scale), window=window)
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
