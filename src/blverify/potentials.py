"""One-dimensional potentials and slope maps.

A :class:`Potential` tilts a Gaussian reference measure into
mu(dx) = (1/Z) exp(-V(x)) nu(dx); the built-in catalog carries exact
one-sided derivatives so that downstream checks can evaluate supporting-line
inequalities at kinks without finite differencing.

A :class:`SlopeMap` is a C^1 increasing function k with k'(x) >= sqrt(alpha);
it generates the (generally non-convex) potential

    U(x) = k(x)^2 / 2 - log k'(x),

whose normalized density exp(-U)/sqrt(2 pi) is pushed to the standard normal
by k itself.  Two families matter in practice: the cubic map k = x + x^3
(a double-well U) and the two-atom Gaussian log-mixture map.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
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
    "potential_from_slope_map",
    "rescale_potential",
    "check_slope_bounds",
]


@dataclass(frozen=True)
class Potential:
    """A potential V with exact one-sided derivatives.

    ``kinks`` lists the points where V' jumps; quadrature grids are seeded
    with them so no integration panel straddles a kink.
    """

    label: str
    value: Callable
    left_derivative: Callable
    right_derivative: Callable
    convex: bool
    kinks: tuple[float, ...] = ()


@dataclass(frozen=True)
class SlopeMap:
    """An increasing C^1 map k with declared slope bounds.

    ``alpha`` is the declared lower bound in the sense k' >= sqrt(alpha);
    ``beta``, when set, declares k' <= sqrt(beta).  ``k_second`` gives the
    generated potential its analytic derivative U' = k k' - k''/k'.

    The derivatives are called as ``k_prime(x, kx=None)`` and
    ``k_second(x, kx, kpx)``, with the arrays kx = k(x) and kpx = k'(x):
    a caller that already holds k(x) passes it, so that a map whose
    derivatives are expressed through k does not evaluate it again.
    """

    label: str
    k: Callable
    k_prime: Callable
    k_second: Callable
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
    arg_min: float
    arg_max: float
    lower_violations: tuple[float, ...]
    upper_violations: tuple[float, ...]
    passed: bool


_BOUND_SLACK = 1e-10

# where slope bounds and the convexity of a generated or rewritten
# potential are checked
_GRID = np.linspace(-8.0, 8.0, 1601)


# ---------------------------------------------------------------------------
# built-in potential catalog
# ---------------------------------------------------------------------------

def _zero_potential() -> Potential:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float)) + 0.0
    return Potential("zero", z, z, z, convex=True)


def _linear_potential(c: float) -> Potential:
    d = lambda x: np.full_like(np.asarray(x, dtype=float), c) + 0.0
    return Potential(f"linear({c:g})", lambda x: c * np.asarray(x, float),
                     d, d, convex=True)


def _quadratic_potential(c: float) -> Potential:
    if c <= 0:
        raise ValueError("quadratic potential needs a positive scale")
    d = lambda x: c * np.asarray(x, float)
    return Potential(f"quadratic({c:g})",
                     lambda x: 0.5 * c * np.asarray(x, float) ** 2,
                     d, d, convex=True)


def _abs_potential(c: float) -> Potential:
    if c <= 0:
        raise ValueError("abs potential needs a positive scale")

    def left(x):
        x = np.asarray(x, float)
        return c * np.where(x <= 0.0, -1.0, 1.0)

    def right(x):
        x = np.asarray(x, float)
        return c * np.where(x < 0.0, -1.0, 1.0)

    return Potential(f"abs({c:g})", lambda x: c * np.abs(np.asarray(x, float)),
                     left, right, convex=True, kinks=(0.0,))


def _double_well_potential() -> Potential:
    # U = x^2/2 + x^4 + x^6/2 - log(1 + 3 x^2); non-convex near the origin.
    def val(x):
        x = np.asarray(x, float)
        x2 = x * x
        return 0.5 * x2 + x2 * x2 + 0.5 * x2 * x2 * x2 - np.log1p(3.0 * x2)

    def der(x):
        x = np.asarray(x, float)
        x2 = x * x
        return x + 4.0 * x * x2 + 3.0 * x * x2 * x2 - 6.0 * x / (1.0 + 3.0 * x2)

    return Potential("double_well", val, der, der, convex=False)


def _log_mixture_potential(p: float, q: float, a: float, b: float) -> Potential:
    _check_mixture_params(p, q, a, b)

    def val(x):
        x = np.asarray(x, float)
        x2 = x * x
        # a < b: factor out the slower decay for stability at large |x|
        return 0.5 * a * x2 - np.log(p + q * np.exp(-0.5 * (b - a) * x2))

    def der(x):
        x = np.asarray(x, float)
        x2 = x * x
        w = q * np.exp(-0.5 * (b - a) * x2)
        return a * x + (b - a) * x * w / (p + w)

    return Potential(f"log_mixture(p={p:g},q={q:g},a={a:g},b={b:g})",
                     val, der, der, convex=False)


def _check_mixture_params(p: float, q: float, a: float, b: float) -> None:
    if min(p, q, a, b) <= 0.0:
        raise ValueError("log mixture parameters must be positive")
    if not (a < b):
        raise ValueError(f"log mixture requires a < b, got a={a}, b={b}")
    resid = p / math.sqrt(a) + q / math.sqrt(b) - 1.0
    if abs(resid) > 1e-12:
        raise ValueError(
            "log mixture weights must satisfy p/sqrt(a) + q/sqrt(b) = 1 "
            f"(residual {resid:.3e})")


# each factory's keyword arguments are the family's parameters
_POTENTIAL_FAMILIES = {
    "zero": _zero_potential,
    "linear": lambda c=1.0: _linear_potential(float(c)),
    "quadratic": lambda c=1.0: _quadratic_potential(float(c)),
    "abs": lambda c=1.0: _abs_potential(float(c)),
    "double_well": _double_well_potential,
    "log_mixture": lambda p, q, a, b: _log_mixture_potential(
        float(p), float(q), float(a), float(b)),
}


def _from_catalog(catalog: dict, what: str, name: str, params: dict | None):
    """The entry ``name`` of ``catalog``, its factory called with the keyword
    arguments ``params``; ValueError for an unknown name or a bad parameter."""
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
    return factory(**params)


def builtin_potential(name: str, params: dict | None = None) -> Potential:
    """Construct a catalog potential by family name.

    Families: ``zero``, ``linear(c)``, ``quadratic(c)`` (= c x^2 / 2),
    ``abs(c)``, ``double_well``, ``log_mixture(p, q, a, b)``; any other
    name or parameter raises ValueError.
    """
    return _from_catalog(_POTENTIAL_FAMILIES, "potential family", name, params)


def rescale_potential(pot: Potential, scale: float) -> Potential:
    """The potential x -> V(scale * x), with derivatives scaled accordingly.

    Used to reduce a build with Gaussian variance A to the normalized A = 1
    coordinates (scale = sqrt(A)); convexity is preserved for scale > 0.
    """
    if not (scale > 0.0):
        raise ValueError("rescale_potential requires a positive scale")
    return Potential(
        label=f"{pot.label}~scaled({scale:g})",
        value=lambda x: pot.value(scale * np.asarray(x, float)),
        left_derivative=lambda x: scale * pot.left_derivative(scale * np.asarray(x, float)),
        right_derivative=lambda x: scale * pot.right_derivative(scale * np.asarray(x, float)),
        convex=pot.convex,
        kinks=tuple(k / scale for k in pot.kinks),
    )


# ---------------------------------------------------------------------------
# slope maps
# ---------------------------------------------------------------------------

def _identity_slope_map(scale: float = 1.0) -> SlopeMap:
    if scale <= 0:
        raise ValueError("slope scale must be positive")
    return SlopeMap(
        label=f"linear_k({scale:g})",
        k=lambda x: scale * np.asarray(x, float),
        k_prime=lambda x, kx=None: np.full_like(np.asarray(x, float), scale) + 0.0,
        alpha=scale * scale,
        beta=scale * scale,
        k_second=lambda x, kx, kpx: np.zeros_like(np.asarray(x, float)) + 0.0,
    )


def _cubic_slope_map() -> SlopeMap:
    # k = x + x^3, k' = 1 + 3x^2 >= 1: generates the double-well potential.
    return SlopeMap(
        label="cubic_k",
        k=lambda x: np.asarray(x, float) + np.asarray(x, float) ** 3,
        k_prime=lambda x, kx=None: 1.0 + 3.0 * np.asarray(x, float) ** 2,
        alpha=1.0,
        k_second=lambda x, kx, kpx: 6.0 * np.asarray(x, float),
    )


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

    def k_prime(x, kx=None):
        x = np.asarray(x, float)
        kx = k(x) if kx is None else kx
        num = sum(w * std_normal_pdf(r * x) for w, r in zip(weights, roots))
        return num / std_normal_pdf(kx)

    def k_second(x, kx, kpx):
        x = np.asarray(x, float)
        num_prime = -x * sum(w * kv * std_normal_pdf(r * x)
                             for (w, kv), r in zip(atoms, roots))
        return num_prime / std_normal_pdf(kx) + kx * kpx * kpx

    return SlopeMap(
        label=label or ("mixture_k(" + ",".join(
            f"{w:g}@{kp:g}" for w, kp in atoms) + ")"),
        k=k, k_prime=k_prime, alpha=atoms[0][0] ** 2, beta=kappas[-1],
        k_second=k_second,
    )


def log_mixture_slope_map(p: float, q: float, a: float, b: float) -> SlopeMap:
    """Two-atom mixture map: potential -log(p e^{-a x^2/2} + q e^{-b x^2/2}).

    Requires 0 < a < b and p/sqrt(a) + q/sqrt(b) = 1; then p <= k' <= sqrt(b)
    everywhere, so the declared bounds are alpha = p^2 and beta = b.
    """
    _check_mixture_params(p, q, a, b)
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


def potential_from_slope_map(k: SlopeMap) -> Potential:
    """The potential U = k^2/2 - log k' generated by a slope map, with the
    exact derivative U' = k k' - k''/k'.

    The convexity flag is decided by a monotonicity test of U' on a grid
    of |x| <= 8 (slope-map potentials are generally non-convex; that is
    their point).

    Raises
    ------
    ValueError
        If k' is nonpositive anywhere on the validation grid.
    """
    kp = np.asarray(k.k_prime(_GRID), float)
    if not np.all(kp > 0.0):
        bad = _GRID[kp <= 0.0]
        raise ValueError(f"slope map {k.label!r} has nonpositive derivative "
                         f"at x={bad[:3]}")

    def val(x):
        x = np.asarray(x, float)
        kx = np.asarray(k.k(x), float)
        return 0.5 * kx ** 2 - np.log(k.k_prime(x, kx))

    def der(x):
        x = np.asarray(x, float)
        kx = np.asarray(k.k(x), float)
        kp = np.asarray(k.k_prime(x, kx), float)
        return kx * kp - np.asarray(k.k_second(x, kx, kp), float) / kp

    dvals = np.asarray(der(_GRID), float)
    convex = bool(np.all(np.diff(dvals) >= -1e-10))
    return Potential(label=f"slope[{k.label}]", value=val,
                     left_derivative=der, right_derivative=der, convex=convex)


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
    imin, imax = int(np.argmin(kp)), int(np.argmax(kp))
    return SlopeBoundReport(
        alpha=k.alpha,
        beta=k.beta,
        min_kprime=float(kp[imin]),
        max_kprime=float(kp[imax]),
        arg_min=float(grid[imin]),
        arg_max=float(grid[imax]),
        lower_violations=tuple(float(v) for v in lower_bad),
        upper_violations=tuple(float(v) for v in upper_bad),
        passed=(lower_bad.size == 0 and np.size(upper_bad) == 0),
    )
