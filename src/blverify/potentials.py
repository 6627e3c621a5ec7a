"""One-dimensional potentials and slope maps.

A :class:`Potential` tilts a Gaussian reference measure into
mu(dx) = (1/Z) exp(-V(x)) nu(dx).  Every family of the built-in catalog is
convex; non-convex measures are given by their slope map.

A :class:`SlopeMap` is a C^1 increasing function k with k'(x) >= sqrt(alpha)
that pushes the (generally non-convex) measure exp(-U(x)) dx / sqrt(2 pi)
to the standard normal, where

    U(x) = k(x)^2 / 2 - log k'(x).

Each catalog map carries U in closed form: the cubic map k = x + x^3 gives
the double well x^2/2 + x^4 + x^6/2 - log(1 + 3 x^2), a Gaussian-mixture map
gives -log sum_i w_i exp(-kappa_i x^2 / 2), and ``linear(s)`` gives
s^2 x^2 / 2 - log s.  Densities are never evaluated through k; k and k'
serve the slope-bound check.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian_core import std_normal_cdf, std_normal_pdf, std_normal_quantile

__all__ = [
    "Potential",
    "SlopeMap",
    "SlopeBoundReport",
    "builtin_potential",
    "builtin_slope_map",
    "gaussian_mixture_slope_map",
    "log_mixture_slope_map",
    "check_slope_bounds",
]


@dataclass(frozen=True)
class Potential:
    """A potential V, flagged convex or not.

    ``kinks`` lists the points where V' jumps; quadrature grids are seeded
    with them so no integration panel straddles a kink.
    """

    label: str
    value: Callable
    convex: bool
    kinks: tuple[float, ...] = ()


@dataclass(frozen=True)
class SlopeMap:
    """An increasing C^1 map k with declared slope bounds.

    ``alpha`` is the declared lower bound in the sense k' >= sqrt(alpha);
    ``beta``, when set, declares k' <= sqrt(beta).  ``potential`` is the
    Lebesgue potential U = k^2/2 - log k' of the measure k pushes to the
    standard normal, in closed form and labelled ``slope[<label>]``.
    """

    label: str
    k: Callable
    k_prime: Callable
    potential: Potential
    alpha: float
    beta: float | None = None

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"slope map needs alpha > 0, got {self.alpha}")
        if self.beta is not None and not (self.beta >= self.alpha):
            raise ValueError("upper slope bound beta must be >= alpha")


@dataclass(frozen=True)
class SlopeBoundReport:
    """Grid check of a SlopeMap's declared slope bounds ``alpha`` and
    ``beta``."""

    alpha: float
    beta: float | None
    min_kprime: float
    max_kprime: float
    lower_violations: tuple[float, ...]
    upper_violations: tuple[float, ...]
    passed: bool


_BOUND_SLACK = 1e-10

# where declared slope bounds are checked
_GRID = np.linspace(-8.0, 8.0, 1601)


# ---------------------------------------------------------------------------
# built-in potential catalog
# ---------------------------------------------------------------------------

def _zero_potential() -> Potential:
    return Potential(
        "zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)) + 0.0,
        convex=True)


def _linear_potential(c: float) -> Potential:
    return Potential(f"linear({c:g})", lambda x: c * np.asarray(x, float),
                     convex=True)


def _quadratic_potential(c: float) -> Potential:
    if c <= 0:
        raise ValueError("quadratic potential needs a positive scale")
    return Potential(f"quadratic({c:g})",
                     lambda x: 0.5 * c * np.asarray(x, float) ** 2,
                     convex=True)


def _abs_potential(c: float) -> Potential:
    if c <= 0:
        raise ValueError("abs potential needs a positive scale")
    return Potential(f"abs({c:g})", lambda x: c * np.abs(np.asarray(x, float)),
                     convex=True, kinks=(0.0,))


# each factory's keyword arguments are the family's parameters
_POTENTIAL_FAMILIES = {
    "zero": _zero_potential,
    "linear": lambda c=1.0: _linear_potential(float(c)),
    "quadratic": lambda c=1.0: _quadratic_potential(float(c)),
    "abs": lambda c=1.0: _abs_potential(float(c)),
}


def _real_number(value, what: str) -> float:
    """``value`` as a float; ValueError for a bool, a string or any other
    non-number, which float() would take (True as 1, "32" as 32) or reject
    with a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _from_catalog(catalog: dict, what: str, name: str, params: dict | None):
    """The entry ``name`` of ``catalog``, its factory called with the keyword
    arguments ``params``, each a number; ValueError for an unknown name or a
    bad parameter."""
    params = params or {}
    try:
        factory = catalog[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; "
                         f"choose from {sorted(catalog)}") from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters of {what} {name!r}: {exc}") from None
    return factory(**{key: _real_number(value, f"parameter {key!r} of {what} "
                                               f"{name!r}")
                      for key, value in params.items()})


def builtin_potential(name: str, params: dict | None = None) -> Potential:
    """Construct a catalog potential by family name.

    Families, all convex: ``zero``, ``linear(c)``, ``quadratic(c)``
    (= c x^2 / 2) and ``abs(c)``; any other name or parameter raises
    ValueError.
    """
    return _from_catalog(_POTENTIAL_FAMILIES, "potential family", name, params)


# ---------------------------------------------------------------------------
# slope maps
# ---------------------------------------------------------------------------

def _identity_slope_map(scale: float = 1.0) -> SlopeMap:
    # k = s x: U = s^2 x^2 / 2 - log s, the N(0, 1/s^2) potential; the
    # constant keeps exp(-U) normalized to sqrt(2 pi)
    if scale <= 0:
        raise ValueError("slope scale must be positive")
    label = f"linear_k({scale:g})"
    s2, log_s = scale * scale, math.log(scale)
    return SlopeMap(
        label=label,
        k=lambda x: scale * np.asarray(x, float),
        k_prime=lambda x: np.full_like(np.asarray(x, float), scale) + 0.0,
        potential=Potential(
            f"slope[{label}]",
            lambda x: 0.5 * s2 * np.asarray(x, float) ** 2 - log_s,
            convex=True),
        alpha=s2,
        beta=s2,
    )


def _cubic_slope_map() -> SlopeMap:
    # k = x + x^3, k' = 1 + 3x^2 >= 1: U = x^2/2 + x^4 + x^6/2
    # - log(1 + 3 x^2), a double well, non-convex near the origin
    def u(x):
        x = np.asarray(x, float)
        x2 = x * x
        return 0.5 * x2 + x2 * x2 + 0.5 * x2 * x2 * x2 - np.log1p(3.0 * x2)

    return SlopeMap(
        label="cubic_k",
        k=lambda x: np.asarray(x, float) + np.asarray(x, float) ** 3,
        k_prime=lambda x: 1.0 + 3.0 * np.asarray(x, float) ** 2,
        potential=Potential("slope[cubic_k]", u, convex=False),
        alpha=1.0,
    )


def _gaussian_mixture_potential(atoms, label: str) -> Potential:
    """U = -log sum_i w_i exp(-kappa_i x^2 / 2) for (w_i, kappa_i) pairs
    sorted by increasing kappa; non-convex in general."""
    (w0, kappa0), *others = atoms
    rest = [(w, kp - kappa0) for w, kp in others]

    def tails(x2):
        # w_i exp(-(kappa_i - kappa_0) x^2 / 2): the smallest kappa is
        # factored out for stability at large |x|
        return [w * np.exp(-0.5 * d * x2) for w, d in rest]

    def val(x):
        x = np.asarray(x, float)
        x2 = x * x
        return 0.5 * kappa0 * x2 - np.log(w0 + sum(tails(x2)))

    return Potential(label, val, convex=False)


def gaussian_mixture_slope_map(atoms, label: str | None = None) -> SlopeMap:
    """Slope map whose potential is -log sum_i w_i exp(-kappa_i x^2 / 2).

    ``atoms`` is a list of (weight, kappa) pairs with all entries positive
    and sum_i w_i / sqrt(kappa_i) = 1; the map is

        k(x) = Phi^{-1}( sum_i w_i / sqrt(kappa_i) Phi(sqrt(kappa_i) x) ),

    odd in x, with w_min <= k' <= sqrt(max kappa) where w_min is the weight
    attached to the smallest kappa.  The declared slope bounds are
    alpha = w_min^2 and beta = max kappa.  Evaluation routes positive
    arguments through the complementary CDF so both tails keep full relative
    accuracy.
    """
    atoms = sorted(((float(w), float(kp)) for w, kp in atoms), key=lambda t: t[1])
    if len(atoms) < 2:
        raise ValueError("a mixture slope map needs at least two atoms")
    if any(w <= 0.0 or kp <= 0.0 for w, kp in atoms):
        raise ValueError("mixture weights and variances must be positive")
    kappas = [kp for _, kp in atoms]
    if len(set(kappas)) != len(kappas):
        raise ValueError("mixture atoms must have distinct variances")
    resid = sum(w / math.sqrt(kp) for w, kp in atoms) - 1.0
    if abs(resid) > 1e-12:
        raise ValueError("mixture weights must satisfy "
                         f"sum w/sqrt(kappa) = 1 (residual {resid:.3e})")
    roots = [math.sqrt(kp) for kp in kappas]
    cdf_w = [w / r for (w, _), r in zip(atoms, roots)]
    weights = [w for w, _ in atoms]

    neg_roots = np.array([-r for r in roots])

    def _mix_tail(x):
        # small and fully accurate for x >= 0; one CDF call serves every atom,
        # since a call costs about as much as a few thousand points
        cdf = std_normal_cdf(np.multiply.outer(neg_roots, x))
        return sum(cw * c for cw, c in zip(cdf_w, cdf))

    def k(x):
        arr = np.atleast_1d(np.asarray(x, float))
        pos = arr > 0.0
        out = np.empty_like(arr)
        if np.any(~pos):
            out[~pos] = std_normal_quantile(
                np.clip(_mix_tail(-arr[~pos]), 1e-300, 0.5))
        if np.any(pos):
            out[pos] = -std_normal_quantile(
                np.clip(_mix_tail(arr[pos]), 1e-300, 0.5))
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def k_prime(x):
        x = np.asarray(x, float)
        num = sum(w * std_normal_pdf(r * x) for w, r in zip(weights, roots))
        return num / std_normal_pdf(k(x))

    label = label or ("mixture_k(" + ",".join(
        f"{w:g}@{kp:g}" for w, kp in atoms) + ")")
    return SlopeMap(
        label=label, k=k, k_prime=k_prime,
        potential=_gaussian_mixture_potential(atoms, f"slope[{label}]"),
        alpha=atoms[0][0] ** 2, beta=kappas[-1],
    )


def log_mixture_slope_map(p: float, q: float, a: float, b: float) -> SlopeMap:
    """Two-atom mixture map: potential -log(p e^{-a x^2/2} + q e^{-b x^2/2}).

    Requires 0 < a < b and p/sqrt(a) + q/sqrt(b) = 1; then p <= k' <= sqrt(b)
    everywhere, so the declared bounds are alpha = p^2 and beta = b.
    """
    if min(p, q, a, b) <= 0.0:
        raise ValueError("log mixture parameters must be positive")
    if not (a < b):
        raise ValueError(f"log mixture requires a < b, got a={a}, b={b}")
    resid = p / math.sqrt(a) + q / math.sqrt(b) - 1.0
    if abs(resid) > 1e-12:
        raise ValueError(
            "log mixture weights must satisfy p/sqrt(a) + q/sqrt(b) = 1 "
            f"(residual {resid:.3e})")
    return gaussian_mixture_slope_map(
        [(p, a), (q, b)],
        label=f"log_mixture_k(p={p:g},q={q:g},a={a:g},b={b:g})")


_SLOPE_FAMILIES = {
    "linear": lambda scale=1.0: _identity_slope_map(float(scale)),
    "cubic": _cubic_slope_map,
    "log_mixture": lambda p, q, a, b: log_mixture_slope_map(
        float(p), float(q), float(a), float(b)),
}


def builtin_slope_map(name: str, params: dict | None = None) -> SlopeMap:
    """Catalog slope maps: ``linear(scale)``, ``cubic`` (x + x^3),
    ``log_mixture(p, q, a, b)``; any other name or parameter raises
    ValueError."""
    return _from_catalog(_SLOPE_FAMILIES, "slope map", name, params)


def check_slope_bounds(k: SlopeMap, grid) -> SlopeBoundReport:
    """Evaluate k' on a grid and report violations of the declared bounds.

    A grid point violates the lower bound when k' < sqrt(alpha) - 1e-10,
    and the upper bound (when beta is declared) when k' > sqrt(beta) + 1e-10.
    Violations are reported, not raised.
    """
    grid = np.asarray(grid, float)
    if grid.size == 0:
        raise ValueError("check_slope_bounds needs a nonempty grid")
    kp = np.asarray(k.k_prime(grid), float)
    lo = math.sqrt(k.alpha)
    lower_bad = grid[kp < lo - _BOUND_SLACK]
    if k.beta is not None:
        hi = math.sqrt(k.beta)
        upper_bad = grid[kp > hi + _BOUND_SLACK]
    else:
        upper_bad = np.empty(0)
    return SlopeBoundReport(
        alpha=k.alpha,
        beta=k.beta,
        min_kprime=float(np.min(kp)),
        max_kprime=float(np.max(kp)),
        lower_violations=tuple(float(v) for v in lower_bad),
        upper_violations=tuple(float(v) for v in upper_bad),
        passed=(lower_bad.size == 0 and np.size(upper_bad) == 0),
    )
