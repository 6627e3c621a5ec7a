"""Standard-normal primitives.

Everything downstream (transport maps, local-time formulas, the embedding
simulator) reduces to three functions: the standard normal CDF, density
and quantile.  The Gaussian heat kernel p(t; x) of the local-time bounds is
std_normal_pdf(x / sqrt t) / sqrt t, and the package evaluates it only at
t = 1.  The functions accept scalars or numpy arrays and are stateless, so
they are safe to call from any number of threads.  They need numpy and the
standard library only.

Algorithms and accuracy
-----------------------
Errors below are in units of the unit roundoff u = 2^-53 ~ 1.1e-16.  Each
is the bound that ``tests/test_gaussian_core.py`` enforces on its grid,
against 40-digit mpmath except for the CDF-quantile round trip, followed by
the largest error measured there: measured bounds, not proven ones.

* ``std_normal_cdf`` is 0.5 erfc(-x / sqrt 2), with ``math.erfc`` from the
  C library applied point by point (glibc's is Sun's fdlibm code: rational
  approximations on four ranges of |x| below 28, and 0 or 2 beyond, with
  exp(-x^2) formed from a split of x so that the rounding of x*x never
  reaches the result).  ``math.erfc`` is within
  3.5 u relative wherever its result is a normal double (measured: 2.9 u on
  the test grid, 3.3 u on 40000 random points) and within one subnormal
  spacing below.  The CDF keeps full *relative* accuracy in the lower tail
  (down to ~1e-308): the rounding of x / sqrt 2 moves the result by about
  x^2 u, and the error stays within 2.5 (1 + x^2) u relative (measured:
  1.8 (1 + x^2) u).  In the upper tail the returned double saturates at
  the representation limit near 1; callers that need relative tail
  accuracy should evaluate ``std_normal_cdf(-x)`` instead (the transport
  tables do exactly that).
* ``std_normal_quantile`` starts from ``statistics.NormalDist.inv_cdf``,
  M. J. Wichura's PPND16 in C (Algorithm AS241, "The percentage points of
  the normal distribution", Appl. Statist. 37, 1988), and applies two
  Newton corrections against ``std_normal_cdf``, so the pair is
  self-consistent to the last few ulps: std_normal_cdf(std_normal_quantile(u))
  returns u within 3 (1 + z^2) u relative (measured: 2.4), z being the
  quantile, whose own rounding accounts for the z^2.  Error: within 5 u
  relative (measured: 4.7 u, near u = 1/2, where z is small).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Smallest/largest doubles we ever return as probabilities; keeps results
# inside the open interval (0, 1).
_P_MIN = 5e-324
_P_MAX = np.nextafter(1.0, 0.0)
# Quantile domain: inputs closer to {0, 1} than this are rejected.
_Q_EDGE = 1e-300
_INV_CDF = NormalDist().inv_cdf


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _map(f, a: np.ndarray) -> np.ndarray:
    """The scalar function f applied to every point of the flat array a;
    for math.erfc 1.3-1.4 times as fast as np.frompyfunc from 100 to 1e5
    points (2-vCPU Xeon)."""
    return np.fromiter(map(f, a.tolist()), float, count=a.size)


def _lower_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 erfc(-x / sqrt 2) of a flat array, unclamped."""
    out = _map(math.erfc, x / -_SQRT2)
    out *= 0.5
    return out


def std_normal_cdf(x):
    """CDF of the standard normal law, Phi(x) = P(Z <= x).

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s); must be finite.

    Returns
    -------
    float or ndarray
        Probabilities in the open interval (0, 1).  For |x| beyond the
        resolution of float64 the value saturates at the nearest
        representable probability.
    """
    arr, scalar = _as_array(x)
    if not np.isfinite(arr).all():
        raise ValueError("std_normal_cdf requires finite arguments")
    out = _lower_cdf(arr.ravel())
    np.maximum(out, _P_MIN, out=out)
    np.minimum(out, _P_MAX, out=out)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def std_normal_pdf(x):
    """Density of the standard normal law."""
    arr, scalar = _as_array(x)
    out = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    return float(out) if scalar else out


def std_normal_quantile(u):
    """Inverse of ``std_normal_cdf`` on (0, 1).

    Inputs closer to 0 or 1 than 1e-300 are rejected rather than mapped to
    huge abscissas.  For u > 1/2 the computation runs through the exact
    complement 1 - u (exact in IEEE arithmetic for u >= 1/2), so both tails
    retain full relative accuracy.

    Raises
    ------
    ValueError
        If u is outside (0, 1) or within 1e-300 of an endpoint.
    """
    arr, scalar = _as_array(u)
    # note: (1 - u) >= 1e-300 holds for every double u < 1, so the upper
    # rejection reduces to u < 1
    if not np.all((arr >= _Q_EDGE) & (arr < 1.0)):
        raise ValueError("std_normal_quantile requires u in (0, 1), "
                         "at least 1e-300 away from the endpoints")
    upper = arr > 0.5
    v = np.where(upper, 1.0 - arr, arr).ravel()  # exact for arr >= 1/2
    z = _map(_INV_CDF, v)
    # Two Newton corrections against our own CDF; the lower-tail erfc
    # evaluation keeps the residual Phi(z) - v fully significant.
    for _ in range(2):
        z = z - (_lower_cdf(z) - v) / (np.exp(-0.5 * z * z) / _SQRT_2PI)
    z = z.reshape(arr.shape)
    out = np.where(upper, -z, z)
    return float(out) if scalar else out
