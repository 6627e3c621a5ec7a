"""Standard-normal primitives.

Everything downstream (transport maps, local-time formulas, the embedding
simulator) reduces to three functions: the standard normal CDF, density
and quantile.  The Gaussian heat kernel p(t; x) of the local-time bounds is
std_normal_pdf(x / sqrt t) / sqrt t, and the package evaluates it only at
t = 1.  The functions accept scalars or numpy arrays and are stateless, so
they are safe to call from any number of threads.  They need numpy only.

Algorithms and accuracy
-----------------------
Errors below are in units of the unit roundoff u = 2^-53 ~ 1.1e-16.  Each
is the bound that ``tests/test_gaussian_core.py`` enforces on its grid,
against 40-digit mpmath except for the CDF-quantile round trip, followed by
the largest error measured there: measured bounds, not proven ones.

* ``erfc`` uses the rational Chebyshev approximations of the Cephes library
  (after W. J. Cody, "Rational Chebyshev approximations for the error
  function", Math. Comp. 23, 1969): 1 - a T(a^2)/U(a^2) for |a| < 1, and
  exp(-a^2) P(|a|)/Q(|a|) beyond, with P/Q of degree 8/8 below |a| = 8 and
  5/6 above.  As in Cody's code, exp(-a^2) is formed as exp(-t^2)
  exp(-(a - t)(a + t)) with t = floor(16 |a|)/16, so t^2 is exact and the
  rounding of a*a never reaches the result.  Error: within 14 u relative
  wherever the result is a normal double (measured: 12.8 u on the test
  grid, 13.1 u on 40000 random points, at 1 - erf just inside |a| = 1), and
  within two subnormal spacings in the subnormal range.
* ``std_normal_cdf`` is 0.5 erfc(-x / sqrt 2), which keeps full *relative*
  accuracy in the lower tail (down to ~1e-308): the rounding of x / sqrt 2
  moves the result by about x^2 u, and the error stays within
  5 (1 + x^2) u relative (measured: 4.7 (1 + x^2) u, 1.9e-13 at x = -37).
  In the upper tail the returned double saturates at the representation
  limit near 1; callers that need relative tail accuracy should evaluate
  ``std_normal_cdf(-x)`` instead (the transport tables do exactly that).
* ``std_normal_quantile`` starts from M. J. Wichura's PPND16 (Algorithm
  AS241, "The percentage points of the normal distribution", Appl.
  Statist. 37, 1988) and applies two Newton corrections against
  ``std_normal_cdf``, so the pair is self-consistent to the last few ulps:
  std_normal_cdf(std_normal_quantile(u)) returns u within 4.5 (1 + z^2) u
  relative (measured: 4.0), z being the quantile, whose own rounding
  accounts for the z^2.  Error: within 5 u relative (measured: 4.7 u, the
  same as with scipy's ``ndtri`` as the start).

Each range of an approximation is evaluated on its own subset of the
points, by Horner's rule in place, in slices of at most 8192 points.
"""

from __future__ import annotations

import numpy as np

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
# Smallest/largest doubles we ever return as probabilities; keeps results
# inside the open interval (0, 1).
_P_MIN = 5e-324
_P_MAX = np.nextafter(1.0, 0.0)
# Quantile domain: inputs closer to {0, 1} than this are rejected.
_Q_EDGE = 1e-300
# Points per pass of erfc and of the quantile, so that the dozens of
# temporaries of a pass stay small.  On a 2-vCPU Xeon: 65536 points take
# erfc from 30 to 22 ns per point and the quantile from 159 to 107, and the
# benchmark's peak RSS falls 3.3 MB on matrix-run and 0.6 MB on verify-sweep.
_CHUNK = 8192

# Coefficients, highest degree first.  erfc: Cephes ndtr.c.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# erfc(a) is below half the smallest subnormal for a >= 27.3; clipping the
# far band here also maps +-inf to 0 and 2
_ERFC_ZERO = 28.0

# Quantile start: AS241 PPND16, central range and the two tail ranges.
_PPND_A = (2.5090809287301226727E3, 3.3430575583588128105E4,
           6.7265770927008700853E4, 4.5921953931549871457E4,
           1.3731693765509461125E4, 1.9715909503065514427E3,
           1.3314166789178437745E2, 3.3871328727963666080E0)
_PPND_B = (5.2264952788528545610E3, 2.8729085735721942674E4,
           3.9307895800092710610E4, 2.1213794301586595867E4,
           5.3941960214247511077E3, 6.8718700749205790830E2,
           4.2313330701600911252E1, 1.0)
_PPND_C = (7.74545014278341407640E-4, 2.27238449892691845833E-2,
           2.41780725177450611770E-1, 1.27045825245236838258E0,
           3.64784832476320460504E0, 5.76949722146069140550E0,
           4.63033784615654529590E0, 1.42343711074968357734E0)
_PPND_D = (1.05075007164441684324E-9, 5.47593808499534494600E-4,
           1.51986665636164571966E-2, 1.48103976427480074590E-1,
           6.89767334985100004550E-1, 1.67638483018380384940E0,
           2.05319162663775882187E0, 1.0)
_PPND_E = (2.01033439929228813265E-7, 2.71155556874348757815E-5,
           1.24266094738807843860E-3, 2.65321895265761230930E-2,
           2.96560571828504891230E-1, 1.78482653991729133580E0,
           5.46378491116411436990E0, 6.65790464350110377720E0)
_PPND_F = (2.04426310338993978564E-15, 1.42151175831644588870E-7,
           1.84631831751005468180E-5, 7.86869131145613259100E-4,
           1.48753612908506148525E-2, 1.36929880922735805310E-1,
           5.99832206555887937690E-1, 1.0)


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _ratio(x: np.ndarray, num, den, scale=None) -> np.ndarray:
    """num(x) [* scale] / den(x), each polynomial by Horner's rule in place;
    coefficients highest degree first."""
    p = x * num[0]
    p += num[1]
    for c in num[2:]:
        p *= x
        p += c
    if scale is not None:
        p *= scale
    q = x + den[1] if den[0] == 1.0 else x * den[0] + den[1]
    for c in den[2:]:
        q *= x
        q += c
    p /= q
    return p


def _in_chunks(f, x: np.ndarray) -> np.ndarray:
    """f applied to a flat array in slices of at most _CHUNK points; f is
    elementwise, so this changes no bits."""
    if x.size <= _CHUNK:
        return f(x)
    out = np.empty_like(x)
    for start in range(0, x.size, _CHUNK):
        out[start:start + _CHUNK] = f(x[start:start + _CHUNK])
    return out


def _piecewise(x: np.ndarray, masks, pieces) -> np.ndarray:
    """pieces[k] applied to the points of x where masks[k] holds (the masks
    partition x), each band on its own subset, so that no point pays for
    another band's approximation."""
    out = None
    for mask, piece in zip(masks, pieces):
        k = np.count_nonzero(mask)
        if k == x.size:
            return piece(x)
        if k:
            if out is None:
                out = np.empty_like(x)
            idx = mask.nonzero()[0]
            out[idx] = piece(x[idx])
    return out


def _erf_complement(a: np.ndarray) -> np.ndarray:
    """1 - erf(a) for |a| < 1."""
    out = _ratio(a * a, _ERF_T, _ERF_U, a)
    return np.subtract(1.0, out, out=out)


def _erfc_tail(a: np.ndarray, x: np.ndarray, num, den) -> np.ndarray:
    """erfc(a) = exp(-x^2) num(x) / den(x) with x = |a| >= 1, and 2 minus
    that for a < 0; x^2 enters as t^2 + (x - t)(x + t), t = floor(16 x)/16."""
    out = _ratio(x, num, den)
    t = x * 16.0
    np.floor(t, out=t)
    t *= 0.0625
    e = t - x
    e *= x + t
    np.exp(e, out=e)
    out *= e
    # exp(-t^2) last, so that only one rounding happens in the subnormal range
    t *= t
    np.negative(t, out=t)
    np.exp(t, out=t)
    out *= t
    neg = (a < 0.0).nonzero()[0]
    if neg.size:
        out[neg] = 2.0 - out[neg]
    return out


_ERFC_PIECES = (_erf_complement,
                lambda a: _erfc_tail(a, np.abs(a), _ERFC_P, _ERFC_Q),
                lambda a: _erfc_tail(a, np.minimum(np.abs(a), _ERFC_ZERO),
                                     _ERFC_R, _ERFC_S))


def erfc(a):
    """Complementary error function, 1 - erf(a), for float arrays or scalars.

    NaN gives NaN, +inf gives 0 and -inf gives 2.
    """
    arr, scalar = _as_array(a)
    out = _in_chunks(_erfc_flat, arr.ravel())
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _erfc_flat(a: np.ndarray) -> np.ndarray:
    x = np.abs(a)
    small = x < 1.0
    big = x >= 8.0          # NaN lands in the middle band and stays NaN
    return _piecewise(a, (small, ~(small | big), big), _ERFC_PIECES)


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
    out = _in_chunks(_erfc_flat, (arr / -_SQRT2).ravel())
    out *= 0.5
    np.maximum(out, _P_MIN, out=out)
    np.minimum(out, _P_MAX, out=out)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def std_normal_pdf(x):
    """Density of the standard normal law."""
    arr, scalar = _as_array(x)
    out = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    return float(out) if scalar else out


def _ppnd_central(v: np.ndarray) -> np.ndarray:
    q = v - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    return _ratio(r, _PPND_A, _PPND_B, q)


def _ppnd_tail(v: np.ndarray, shift: float, num, den) -> np.ndarray:
    r = np.log(v)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    r -= shift
    out = _ratio(r, num, den)
    return np.negative(out, out=out)


# AS241's ranges for v <= 1/2: central for v >= 0.075 (|v - 1/2| <= 0.425),
# then the tail with r = sqrt(-log v) <= 5, i.e. v >= exp(-25), and beyond
_PPND_NEAR_TAIL = np.exp(-25.0)
_PPND_PIECES = (_ppnd_central,
                lambda v: _ppnd_tail(v, 1.6, _PPND_C, _PPND_D),
                lambda v: _ppnd_tail(v, 5.0, _PPND_E, _PPND_F))


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
    v = np.where(upper, 1.0 - arr, arr)  # exact for arr >= 1/2
    z = _in_chunks(_lower_quantile, v.ravel()).reshape(v.shape)
    out = np.where(upper, -z, z)
    return float(out) if scalar else out


def _lower_quantile(v: np.ndarray) -> np.ndarray:
    """The quantile of v in [1e-300, 1/2], flat."""
    central = v >= 0.075
    far = v < _PPND_NEAR_TAIL
    z = _piecewise(v, (central, ~(central | far), far), _PPND_PIECES)
    # Two Newton corrections against our own CDF; the lower-tail erfc
    # evaluation keeps the residual Phi(z) - v fully significant.
    for _ in range(2):
        z = z - ((0.5 * _erfc_flat(z / -_SQRT2) - v)
                 / (np.exp(-0.5 * z * z) / _SQRT_2PI))
    return z

