"""Expected Brownian local time and the variance-gap estimates built on it.

E[L^x_t], the expected local time of standard Brownian motion at level x up
to time t, is the occupation integral int_0^t p(s; x) ds.  Its
antiderivative gives the one production formula,

    E[L^x_t] = sqrt(2 t / pi) exp(-x^2 / 2t) - 2 |x| Phi(-|x| / sqrt(t)),

evaluated elementwise on arrays by ``expected_local_time_array``.  The
occupation integral and the two equivalent reflection forms
2 int_0^inf (y - |x|)^+ p(t; y) dy and 2 int_0^inf (sqrt(t) y - |x|)^+
p(1; y) dy are kept in the tests as quadrature oracles.

The same formula gives the atoms' part of every verdict's Gaussian side:
for Y ~ N(0, A) the call value E(Y - |y|)^+ is (1/2) E[L^y_A], so by
Tanaka's formula an atom (y, m) of psi'' adds m E[L^y_A] / 2 to E psi(Y)
(``verifier.moment_lhs``).

On top of it sit the two closed-form bounds for the residual local time
E[L^x_A - L^x_T] accumulated between a stopping time T <= A with centered
embedded law of variance var_x and the horizon A:

    lower:  int_0^{(A - var_x)^2 / A} p(s; sqrt(x^2 + A)) ds
    upper:  2 (A(1+q))^{1/(2q)} p(1; x / sqrt(A(1+q))) (A - var_x)^{1/(2p)}

with q the conjugate exponent of p.  By Tanaka's formula the bl2 correction
is (1/2) int psi''(dx) of the lower bound: ``convex_tests`` evaluates
``est1_lower`` at the atoms of psi'' and integrates its occupation form
against the density in closed form.  ``local_time_gap_mc`` estimates the residual from
an embedding ensemble through the strong Markov representation
E[ E[L^{x-z}_{A-t}] at (t, z) = (T, B(T)) ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_core import std_normal_cdf, std_normal_pdf

__all__ = [
    "expected_local_time_array",
    "GapEstimate",
    "local_time_gap_mc",
    "check_variance_pair",
    "est1_lower",
    "est2_upper",
]


def expected_local_time_array(x, t):
    """Vectorized E[L^x_t] via the antiderivative of the occupation integral:

        sqrt(2 t / pi) exp(-x^2 / 2t) - 2 |x| Phi(-|x| / sqrt(t)).

    Exactly the occupation formula in closed form; entries with t <= 0, and
    those that Phi's floor 5e-324 leaves below 0 (|x| / sqrt(t) beyond 38.3),
    evaluate to 0.  Used per path by the gap estimator, and per atom by the
    Gaussian moment side and the bl2 correction.
    """
    x = np.asarray(x, float)
    t = np.asarray(t, float)
    x, t = np.broadcast_arrays(x, t)
    out = np.zeros_like(x)
    pos = t > 0.0
    if np.any(pos):
        a = np.abs(x[pos])
        tp = t[pos]
        out[pos] = np.maximum(
            np.sqrt(2.0 * tp / np.pi) * np.exp(-a * a / (2.0 * tp))
            - 2.0 * a * std_normal_cdf(-a / np.sqrt(tp)), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GapEstimate:
    """Monte Carlo estimate of E[L^x_A - L^x_T] with its standard error."""

    estimate: float
    std_error: float


def local_time_gap_mc(ensemble, x: float) -> GapEstimate:
    """Estimate the residual expected local time from an embedding ensemble.

    By the strong Markov property the residual equals the ensemble average
    of E[L^{x - B(T)}_{A - T}], with A the Gaussian variance of the
    ensemble's transport; the inner expectation is the occupation formula.
    T exceeds A by round-off at most (``bass_embedding.t_bound_check``
    bounds it), so clamping the residual horizon A - T at 0 only absorbs
    that rounding; the ensemble's ``clamp_count`` counts the clamped paths.
    """
    t_rem = float(ensemble.clark.transport.A) - ensemble.T
    vals = expected_local_time_array(float(x) - ensemble.bt,
                                     np.maximum(t_rem, 0.0))
    se = float(np.std(vals, ddof=1) / math.sqrt(ensemble.n_paths))
    return GapEstimate(estimate=float(np.mean(vals)), std_error=se)


def check_variance_pair(variance: float, var_x: float) -> float:
    """var_x clamped into [0, variance]; ValueError when variance <= 0 or
    var_x lies outside by more than rounding (relative 1e-9 plus 1e-12)."""
    if not (variance > 0.0):
        raise ValueError("variance must be positive")
    if var_x < -1e-12 or var_x > variance * (1.0 + 1e-9) + 1e-12:
        raise ValueError(f"var_x={var_x} is negative or exceeds the Gaussian "
                         f"variance {variance}; upstream moments disagree")
    return min(max(var_x, 0.0), variance)


def est1_lower(x, variance: float, var_x: float):
    """Closed-form lower bound for E[L^x_A - L^x_T]:

        int_0^{(A - var_x)^2 / A} p(s; sqrt(x^2 + A)) ds,

    i.e. the expected local time at level sqrt(x^2 + A) over the shrunken
    horizon (A - var_x)^2 / A.  Elementwise on an array ``x``, a float for
    a scalar one; zero when var_x = A.
    """
    var_x = check_variance_pair(variance, var_x)
    horizon = (variance - var_x) ** 2 / variance
    return expected_local_time_array(np.sqrt(np.square(x) + variance),
                                     horizon)


def est2_upper(x: float, variance: float, var_x: float, p: float) -> float:
    """Closed-form upper bound for E[L^x_A - L^x_T] at Hoelder exponent p > 1:

        2 (A(1+q))^{1/(2q)} p(1; x / sqrt(A(1+q))) (A - var_x)^{1/(2p)},

    with q = p / (p - 1).  Finite for all x; zero when var_x = A.
    """
    if not (p > 1.0):
        raise ValueError(f"est2_upper requires p > 1, got {p}")
    var_x = check_variance_pair(variance, var_x)
    q = p / (p - 1.0)
    aq = variance * (1.0 + q)
    return (2.0 * aq ** (1.0 / (2.0 * q))
            * std_normal_pdf(x / math.sqrt(aq))
            * (variance - var_x) ** (1.0 / (2.0 * p)))
