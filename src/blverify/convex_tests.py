"""Convex test functions represented through their second-derivative measure.

A convex psi on R is encoded by psi(0), its left slope at 0, and the measure
psi''(dx) split into point masses (kinks) and a density (curvature).  The
function itself is recovered as

    psi(x) = psi(0) + psi'_-(0) x
             + int_[0,inf) (x - y)^+ psi''(dy)
             + int_(-inf,0) (y - x)^+ psi''(dy),

which is also the decomposition the inequality verifier exploits: every
moment of psi reduces to call/put values integrated against psi''.

The density is a sum of terms c |y|^e with c > 0 and 0 <= e <= 20, so
every psi''-integral of the verdicts is a sum: the kernel at each atom plus
one closed-form value per density term.  Against a Gaussian kernel (E psi(Y),
the bl3 constants) that value is a Gaussian absolute moment, against the
bl2 kernel an incomplete gamma function (``bl2_correction``), and on the
measure side (``verifier.moment_rhs``) a moment E|X - EX|^(e+2) of the
transport tables.

Every such integral is finite.  mu is sqrt(A)-Lipschitz-Gaussian (Caffarelli,
Harge), so both moment sides and every constant weigh a polynomial density
against Gaussian tails; the exponent cap keeps the part of each table moment
beyond the tables' window below 1.7e-19 of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .local_time import check_variance_pair, est1_lower
from .gaussian_core import std_normal_pdf
from .potentials import _from_catalog, _real_number

__all__ = [
    "ConvexTest",
    "builtin_convex_test",
    "convex_test_from_spec",
    "second_derivative_mass",
    "bl2_correction",
    "bl3_constant",
    "p1_limit_bounds",
    "P1LimitBounds",
]

# Largest exponent e of a density term c |y|^e.  The measure side takes
# E|X - EX|^(e+2) from the transport tables, which end at the mode
# +- (12 sqrt(A) + 2).  For X ~ N(0, A) the share of E|X - EX|^22 beyond
# them is (mpmath) 2.1e-29 at A = 1 and tends to 1.7e-19 as A grows; at
# e = 30 it tends to 8.1e-16, at e = 60 to 2.8e-8.
_MAX_EXPONENT = 20
_SQRT_PI = math.sqrt(math.pi)

# Most terms of the continued fraction of the bl2 terms.  bl2 evaluates it
# at a = -e/2 - 1 in [-11, -1] and z = A / 2h >= 1/2, where it converges in
# at most 160 terms (z = 1/2; test_convex_tests.py::TestBl2Correction::
# test_upper_gamma_scaled_against_mpmath); the cap is 2.5 times that.
_CF_MAX_TERMS = 400


@dataclass(frozen=True)
class ConvexTest:
    """A convex test function given by (psi(0), psi'_-(0), psi'').

    ``atoms`` are (location, mass >= 0) pairs; ``density`` holds the terms
    (c, e) of the density sum c |y|^e, each with c > 0 and
    0 <= e <= 20.  ``closed_form`` evaluates psi directly on arrays;
    ``verifier.moment_check`` needs it (every catalog and psi'' data test
    function has one), while the verdicts use only psi(0), psi'_-(0) and
    psi''.
    """

    label: str
    value_at_zero: float
    left_slope_at_zero: float
    atoms: tuple[tuple[float, float], ...] = ()
    density: tuple[tuple[float, float], ...] = ()
    closed_form: Callable | None = None

    def __post_init__(self):
        for loc, mass in self.atoms:
            if mass < 0.0:
                raise ValueError(f"negative atom mass {mass} at {loc}")
        for c, e in self.density:
            if not (0.0 < c < math.inf and 0 <= e <= _MAX_EXPONENT):
                raise ValueError(f"density term {c:g} |y|^{e:g} needs "
                                 f"0 < c < inf and 0 <= e <= {_MAX_EXPONENT}")


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


def _atom_sum(psi: ConvexTest, f: Callable) -> float:
    """sum of mass * f(location) over the atoms, f called on all at once."""
    if not psi.atoms:
        return 0.0
    locs = np.array([loc for loc, _ in psi.atoms])
    values = np.broadcast_to(np.asarray(f(locs), float), locs.shape)
    return sum(mass * float(v) for (_, mass), v in zip(psi.atoms, values))


def _gaussian_abs_moment(m: float, variance: float) -> float:
    """E|Y|^m = (2A)^(m/2) Gamma((m+1)/2) / sqrt(pi) for Y ~ N(0, A)."""
    return (2.0 * variance) ** (0.5 * m) * math.gamma(0.5 * m + 0.5) / _SQRT_PI


def _upper_gamma_scaled(a: float, z: float) -> float:
    """G(a, z) = e^z z^(-a) Gamma(a, z) for a <= -1 and z >= 1/2, by
    Legendre's continued fraction

        G(a, z) = 1 / (z + 1 - a - 1 (1 - a) / (z + 3 - a - 2 (2 - a) / ...)),

    evaluated by Lentz's method: there each denominator stays above half of
    its z + 2i + 1 - a, so none needs a guard against 0.  RuntimeError when
    _CF_MAX_TERMS terms leave it unconverged."""
    b = z + 1.0 - a
    c, d = math.inf, 1.0 / b
    g = d
    for i in range(1, _CF_MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        g *= step
        if abs(step - 1.0) <= 2.0 ** -52:
            return g
    raise RuntimeError(f"the continued fraction of Gamma({a:g}, {z:g}) did "
                       f"not converge in {_CF_MAX_TERMS} terms")


def _gaussian_sum(psi: ConvexTest, variance: float, at_atoms: Callable,
                  per_term: Callable, factor: float = 1.0) -> float:
    """factor (sum of m at_atoms(y) over atoms (y, m) + sum of c per_term(e)
    over density terms c |y|^e); OverflowError beyond the float range."""
    try:
        total = factor * (_atom_sum(psi, at_atoms)
                          + sum(c * per_term(e) for c, e in psi.density))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"a Gaussian side of psi {psi.label!r} at "
                            f"A = {variance:g} exceeds the float range")
    return total


# ---------------------------------------------------------------------------
# inequality constants
# ---------------------------------------------------------------------------

def bl2_correction(psi: ConvexTest, variance: float, var_x: float) -> float:
    """Sharpening term of the lower moment inequality:

        (1/2) int psi''(dx) est1_lower(x, A, var_x),

    half the closed-form lower bound of ``local_time.est1_lower`` for the
    residual local time E[L^x_A - L^x_T] integrated against psi'', in
    closed form: an atom (x, m) adds m est1_lower(x), and by the occupation
    formula and Fubini a density term c |x|^e adds

        c int_0^h E|sqrt(s) Z|^e e^(-A/2s) ds
            = c h E|sqrt(h) Z|^e e^(-z) G(-e/2 - 1, z),

    with h = (A - var_x)^2 / A, z = A / 2h and G(a, z) = e^z z^(-a)
    Gamma(a, z).  Zero when var_x = A, nondecreasing as var_x drops; var_x
    above A beyond rounding raises ValueError (``check_variance_pair``),
    and a sum beyond the float range OverflowError.
    """
    var_x = check_variance_pair(variance, var_x)
    h = (variance - var_x) ** 2 / variance
    if h == 0.0:
        return 0.0
    z = 0.5 * variance / h
    return _gaussian_sum(
        psi, variance, lambda x: est1_lower(x, variance, var_x),
        lambda e: (h * _gaussian_abs_moment(e, h) * math.exp(-z)
                   * _upper_gamma_scaled(-0.5 * e - 1.0, z)),
        factor=0.5)


def bl3_constant(psi: ConvexTest, variance: float, q: float) -> float:
    """Constant of the upper moment inequality at conjugate exponent q:

        (A(1+q))^{1/(2q)} int psi''(dx) p(1; x / S),   S = sqrt(A(1+q)),

    in closed form: an atom (x, m) adds m p(1; x / S) and a density term
    c |x|^e adds c S^(e+1) E|Z|^e.  OverflowError beyond the float range.
    """
    if not (q > 1.0):
        raise ValueError(f"bl3_constant requires q > 1, got {q}")
    aq = variance * (1.0 + q)
    scale = math.sqrt(aq)
    return _gaussian_sum(
        psi, variance, lambda x: std_normal_pdf(x / scale),
        lambda e: scale ** (e + 1.0) * _gaussian_abs_moment(e, 1.0),
        factor=aq ** (1.0 / (2.0 * q)))


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
