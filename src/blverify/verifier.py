"""Moment-inequality verdicts for Gaussian-dominated measures.

For a centered Gaussian Y of variance A and X distributed as the tilted
measure of a transport build, three inequalities are checked for each convex
test function psi (all moments centered):

    lower (bl1):   E psi(Y) >= E psi(X)
    sharpened (bl2): E psi(Y) >= E psi(X) + correction(psi, A, var X)
    upper (bl3):   E psi(Y) <= E psi(X) + C(A, psi, q) (A - var X)^{1/(2p)}

together with the p -> 1 finite-mass gap bound and the mean-absolute-
deviation ratio bound E|X - EX| / var(X) >= 1 / sqrt(2 pi A).

Both sides reduce, through the second-derivative measure of psi, to
call/put values at the psi'' atoms plus one moment per density term.  The
Gaussian side, like each bl3 constant and the bl2 correction, is a
closed-form sum (half the expected local time of ``local_time`` per atom, a
Gaussian absolute moment per density term).  The tilted side reads the
transport build's tables: ``moment_rhs`` takes their call values at the
atoms y >= 0, their put values at the atoms y < 0, and their moments
E|X - EX|^(e+2) for the density terms.  ``moment_check`` rules on the
moments of a simulating run's embedded values; the variance entering the
corrections is always the tables' value, and the MAD ratio is one table
call value.

The appendix route covers non-convex potentials generated by a slope map k
with k' >= sqrt(alpha): the same machinery applies verbatim with effective
Gaussian variance 1/alpha, because the transport derivative is bounded by
1/sqrt(alpha) and the stopping time by 1/alpha.  The declared bounds are
checked on a grid once per map (``check_declared_slope_bounds``); every
verdict of the map reads that report.

Every side and constant is finite (OverflowError beyond the float range):
psi'' is atoms plus a capped polynomial density, and mu has Gaussian tails.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bass_embedding import EmbeddingEnsemble
from .convex_tests import (ConvexTest, _atom_sum, _gaussian_abs_moment,
                           _gaussian_sum, bl2_correction, bl3_constant,
                           p1_limit_bounds)
from .gaussian_core import std_normal_pdf, std_normal_quantile
from .local_time import expected_local_time_array
from .potentials import (_GRID, Potential, SlopeBoundReport, SlopeMap,
                         check_slope_bounds)
from .transport import (_G_XMAX, _GL_W, _GRADES, NonConvexPotentialError,
                        TransportMap, _panel_nodes, build_transport)

__all__ = [
    "Bl3Entry",
    "VerificationReport",
    "SlopeBoundError",
    "BL1_TOL",
    "BL2_TOL",
    "BL3_TOL",
    "SIDE_REL_TOL",
    "MAD_TOL",
    "moment_lhs",
    "moment_rhs",
    "verify_theorem",
    "verify_appendix",
    "check_declared_slope_bounds",
    "gaussianized_potential",
    "appendix_transport",
    "moment_check",
    "format_float",
    "format_floats",
]

# A margin's slack is the floor BLn_TOL plus SIDE_REL_TOL times the largest
# side it subtracts, so that equalities of sides near 1e13 pass.  That is 4
# times the measured side errors, 30 u for moment_lhs and bl3_constant
# (test_convex_tests.py::test_lhs_and_bl3_against_closed_forms) plus 214 u
# for moment_rhs's table moments (test_transport.py::
# test_central_abs_moments_of_gaussians), rounded up to 1000 u.  Whether
# the 1e-8 floor is earned is ROADMAP item 6.
BL1_TOL = 1e-8
BL2_TOL = BL1_TOL
BL3_TOL = 1e-8
SIDE_REL_TOL = 1000 * 2.0 ** -53
MAD_TOL = 1e-9
GAP_P1_TOL = 1e-8
# 9x and 19x the largest relative and absolute errors of
# test_verifier.py::TestMomentCheck::test_moment_tolerances_cover_measured_round_off:
# 2.2e-14 (call(5) on zero at A = 1; fractional powers up to 1.3e-14,
# power(2.5) on the cubic map at A = 1) and 3.2e-30 (corridor(4) on
# linear(1) at A = 1/4)
MOMENT_REL_TOL = 2e-13
MOMENT_ABS_TOL = 6e-29


class SlopeBoundError(ValueError):
    """Declared slope bound fails on the verification grid."""


def format_float(x) -> str | None:
    """Decimal string with 17 significant digits ("inf", "-inf" and "nan"
    for the non-finite; None passes through)."""
    return None if x is None else f"{float(x):.17g}"


def format_floats(obj):
    """``obj`` with every float, also inside dicts, lists and tuples, as its
    :func:`format_float` string; tuples become lists, other values pass
    through.  Applied to ``dataclasses.asdict`` it gives a report's JSON
    form."""
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        return {k: format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [format_floats(v) for v in obj]
    return obj


@dataclass(frozen=True)
class Bl3Entry:
    p: float
    q: float
    constant: float
    upper_correction: float
    margin: float
    passed: bool


@dataclass
class VerificationReport:
    """All numbers behind one (potential, psi) verdict.

    ``passes`` holds one boolean per inequality actually evaluated; margins
    are stored so every flag can be recomputed from the report alone.
    """

    kind: str                   # "theorem" or "appendix"
    potential_label: str
    psi_label: str
    gaussian_variance: float
    lhs: float
    rhs: float
    mean_x: float
    var_x: float
    bl1_margin: float
    bl2_correction: float
    bl2_margin: float
    bl3: tuple[Bl3Entry, ...]
    mad_ratio: float | None = None
    mad_lower_bound: float | None = None
    gap_p1_bound: float | None = None
    gap_p1_margin: float | None = None
    lower_variance: float | None = None
    lower_lhs: float | None = None
    lower_margin: float | None = None
    normalizer_residual: float | None = None
    slope_min: float | None = None
    slope_max: float | None = None
    embedded_moment: float | None = None
    passes: dict = dataclasses.field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.passes.values())

    def to_json_dict(self) -> dict:
        """The report's fields with floats as 17-digit strings; the labels
        are keyed ``potential`` and ``psi``."""
        out = format_floats(dataclasses.asdict(self))
        out["potential"] = out.pop("potential_label")
        out["psi"] = out.pop("psi_label")
        return out


# ---------------------------------------------------------------------------
# moment sides
# ---------------------------------------------------------------------------

def moment_lhs(psi: ConvexTest, variance: float) -> float:
    """E[psi(Y - EY)] for Gaussian Y of the given variance, by Tanaka's
    formula: psi(0) plus, in closed form, m E[L^y_A] / 2 per atom (y, m) of
    psi'' and c E|Y|^(e+2) / ((e+1)(e+2)) per density term c |y|^e;
    OverflowError beyond the float range."""
    if not (variance > 0.0):
        raise ValueError("variance must be positive")
    return psi.value_at_zero + _gaussian_sum(
        psi, variance, lambda y: 0.5 * expected_local_time_array(y, variance),
        lambda e: _gaussian_abs_moment(e + 2.0, variance)
        / ((e + 1.0) * (e + 2.0)))


def moment_rhs(psi: ConvexTest, tmap: TransportMap) -> float:
    """E[psi(X - EX)] against the transport build of mu: psi(0), the table
    call/put values at the psi'' atoms (one vectorized lookup per sign) and
    c E|X - EX|^(e+2) / ((e+1)(e+2)) per density term c |y|^e, the moment
    from the tables (``TransportMap.central_abs_moments``)."""
    m = tmap.mean_mu

    def centered_option(y):
        # calls on y >= 0, puts on y < 0; each branch only on its own atoms
        out = np.empty_like(y)
        up = y >= 0.0
        if np.any(up):
            out[up] = tmap.upper_call_value(m + y[up])
        if not np.all(up):
            out[~up] = tmap.lower_put_value(m + y[~up])
        return out

    moments = (tmap.central_abs_moments([e + 2.0 for _, e in psi.density])
               if psi.density else ())
    return psi.value_at_zero + (
        _atom_sum(psi, centered_option)
        + sum(c * float(mk) / ((e + 1.0) * (e + 2.0))
              for (c, e), mk in zip(psi.density, moments)))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _slack(floor: float, *sides: float) -> float:
    """floor plus SIDE_REL_TOL times the largest of the sides a margin
    subtracts."""
    return floor + SIDE_REL_TOL * max(abs(side) for side in sides)


def _bl3_entries(psi, variance, rhs, lhs, delta, p_list):
    entries = []
    for p in p_list:
        if not (p > 1.0):
            raise ValueError(f"upper-bound exponents must exceed 1, got {p}")
        q = p / (p - 1.0)
        c = bl3_constant(psi, variance, q)
        corr = c * delta ** (1.0 / (2.0 * p))
        margin = rhs + corr - lhs
        entries.append(Bl3Entry(
            p=p, q=q, constant=c, upper_correction=corr, margin=margin,
            passed=bool(margin >= -_slack(BL3_TOL, rhs, corr, lhs))))
    return tuple(entries)


def _verdict(kind: str, psi: ConvexTest, tmap: TransportMap,
             p_list) -> VerificationReport:
    """The bl1/bl2/bl3 verdict of psi for the build ``tmap`` against
    N(0, tmap.A), shared by the theorem and appendix routes."""
    variance = tmap.A
    lhs = moment_lhs(psi, variance)
    rhs = moment_rhs(psi, tmap)
    var_x = tmap.var_mu
    corr = bl2_correction(psi, variance, var_x)
    bl1_margin, bl2_margin = lhs - rhs, lhs - rhs - corr
    bl3 = _bl3_entries(psi, variance, rhs, lhs,
                       max(variance - var_x, 0.0), p_list)
    return VerificationReport(
        kind=kind, potential_label=tmap.potential.label,
        psi_label=psi.label, gaussian_variance=variance,
        lhs=lhs, rhs=rhs, mean_x=tmap.mean_mu, var_x=var_x,
        bl1_margin=bl1_margin, bl2_correction=corr, bl2_margin=bl2_margin,
        bl3=bl3,
        passes={"bl1": bool(bl1_margin >= -_slack(BL1_TOL, lhs, rhs)),
                "bl2": bool(bl2_margin >= -_slack(BL2_TOL, lhs, rhs, corr)),
                "bl3": all(e.passed for e in bl3)})


def verify_theorem(psi: ConvexTest, tmap: TransportMap,
                   p_list=(1.5, 2.0, 4.0)) -> VerificationReport:
    """Full verdict for a convex potential: bl1/bl2/bl3 margins, the p -> 1
    gap bound when psi'' has finite mass, and the MAD ratio bound.

    Raises
    ------
    NonConvexPotentialError
        For non-convex potentials; those go through :func:`verify_appendix`.
    """
    if not tmap.potential.convex:
        raise NonConvexPotentialError(
            f"potential {tmap.potential.label!r} is not convex; "
            "use verify_appendix with its slope map")
    rep = _verdict("theorem", psi, tmap, p_list)
    rb = p1_limit_bounds(psi, rep.gaussian_variance, rep.var_x)
    # E|X - EX| = 2 E[(X - EX)^+], one table call value: moment_rhs of abs,
    # whose psi'' is the atom (0, 2), bit for bit without its set-up
    rep.mad_ratio = 2.0 * tmap.upper_call_value(tmap.mean_mu) / rep.var_x
    rep.mad_lower_bound = rb.mad_lower
    rep.passes["mad"] = bool(rep.mad_ratio >= rb.mad_lower - MAD_TOL)
    rep.gap_p1_bound = rb.finite_mass_bound
    if rb.finite_mass_bound is not None:
        rep.gap_p1_margin = rb.finite_mass_bound - (rep.lhs - rep.rhs)
        rep.passes["gap_p1"] = bool(rep.gap_p1_margin >= -GAP_P1_TOL)
    return rep


def gaussianized_potential(lebesgue_potential: Potential,
                           variance: float) -> Potential:
    """Rewrite a Lebesgue-reference potential U as a tilt of N(0, variance):

        exp(-U(x)) dx  =  const * exp(-V(x)) N(0, variance)(dx),
        V(x) = U(x) - x^2 / (2 variance).

    V keeps U's kinks and is flagged non-convex: the appendix route, which
    builds these measures, never needs convexity, and :func:`verify_theorem`
    refuses them.
    """
    inv2a = 0.5 / variance

    def val(x):
        x = np.asarray(x, float)
        return np.asarray(lebesgue_potential.value(x), float) - inv2a * x * x

    return Potential(label=f"{lebesgue_potential.label}~gauss", value=val,
                     convex=False, kinks=lebesgue_potential.kinks)


def appendix_transport(slope_map: SlopeMap, alpha: float) -> TransportMap:
    """Transport build for mu = exp(-U) dx / Z' with U = k^2/2 - log k',
    expressed against the effective Gaussian N(0, 1/alpha).

    U is the map's closed-form ``potential``; the build never evaluates k or
    k', so the declared slope bounds are checked separately, by
    :func:`check_declared_slope_bounds`."""
    a = float(alpha)
    if not (a > 0.0):
        raise ValueError("alpha must be positive")
    return build_transport(gaussianized_potential(slope_map.potential, 1.0 / a),
                           1.0 / a)


def check_declared_slope_bounds(slope_map: SlopeMap, alpha: float,
                                beta: float | None = None) -> SlopeBoundReport:
    """Grid report of k' against the declared bounds sqrt(alpha) and, when
    ``beta`` is set, sqrt(beta) on |x| <= 8; the report carries the alpha
    and beta it was checked against.

    Raises
    ------
    SlopeBoundError
        When a declared bound fails on the grid.
    """
    a = float(alpha)
    declared = dataclasses.replace(slope_map, alpha=a, beta=beta)
    report = check_slope_bounds(declared, _GRID)
    if report.lower_violations:
        raise SlopeBoundError(
            f"slope map {slope_map.label!r} violates k' >= sqrt({a:g}) on "
            f"the grid (min k' = {report.min_kprime:.12g})")
    if report.upper_violations:
        raise SlopeBoundError(
            f"slope map {slope_map.label!r} violates k' <= sqrt({beta:g}) on "
            f"the grid (max k' = {report.max_kprime:.12g})")
    return report


def verify_appendix(psi: ConvexTest, tmap: TransportMap,
                    slope: SlopeBoundReport,
                    p_list=(1.5, 2.0, 4.0)) -> VerificationReport:
    """Verdict for a slope-map measure against N(0, tmap.A).

    ``tmap`` is an ``appendix_transport`` build of the slope map and
    ``slope`` the map's :func:`check_declared_slope_bounds` report; the
    verdict copies its k' extremes.  When ``tmap`` is the build at the
    declared alpha (A = 1/alpha), the verdict records the slope check's
    pass flag and, with beta declared, checks the reverse inequality
    against N(0, 1/beta) as well; a build at another alpha (a sharper
    comparison variance that holds without a pointwise slope bound) gets
    the bl1/bl2/bl3 verdict only.
    """
    rep = _verdict("appendix", psi, tmap, p_list)
    # Lebesgue normalizer of exp(-U) is sqrt(2 pi), i.e. Z = 1/sqrt(A)
    rep.normalizer_residual = tmap.Z * math.sqrt(tmap.A) - 1.0
    rep.slope_min = slope.min_kprime
    rep.slope_max = slope.max_kprime
    if tmap.A == 1.0 / slope.alpha:
        rep.passes["slope_bounds"] = slope.passed
        if slope.beta is not None:
            rep.lower_variance = 1.0 / slope.beta
            rep.lower_lhs = moment_lhs(psi, rep.lower_variance)
            rep.lower_margin = rep.rhs - rep.lower_lhs
            rep.passes["lower"] = bool(rep.lower_margin >= -_slack(
                BL1_TOL, rep.rhs, rep.lower_lhs))
    return rep


# ---------------------------------------------------------------------------
# the moments of the embedded values
# ---------------------------------------------------------------------------

def moment_check(ensemble: EmbeddingEnsemble, psis,
                 references) -> list[tuple[float, bool]]:
    """E psi(g(W) - E g) = E psi(B(T)) for each psi, by one Gauss-Legendre
    rule in w with panel edges at the w-images of 0 (graded toward it) and
    of the psi'' atoms, and whether it is within MOMENT_REL_TOL (1 + |E X| / sd(X)) E|psi| +
    MOMENT_ABS_TOL of that psi's rhs in ``references``."""
    if any(psi.closed_form is None for psi in psis):
        raise ValueError("moment_check needs every psi's closed form")
    clark, tmap = ensemble.clark, ensemble.clark.transport
    x = clark.mean_g + np.array([0.0, *(k for p in psis for k, _ in p.atoms)])
    cdf, sf = tmap.cdf(x), tmap.survival(x)     # w-images, upper tail by sf
    w = (np.where(cdf <= sf, 1.0, -1.0)
         * std_normal_quantile(np.maximum(np.minimum(cdf, sf), 1e-300)))
    # the 0.2-wide panels graded toward the w-image of E g, where |y|^p is
    # not smooth
    w = np.concatenate([w, w[0] - 0.2 * _GRADES, w[0] + 0.2 * _GRADES])
    edges = np.union1d(np.linspace(-_G_XMAX, _G_XMAX, 116),
                       w[np.abs(w) < _G_XMAX])
    nodes, half = _panel_nodes(edges[:-1], edges[1:])
    weights = (half[:, None] * _GL_W * std_normal_pdf(nodes)).ravel()
    y = np.asarray(tmap.g(nodes.ravel()), float) - clark.mean_g
    rel_tol = MOMENT_REL_TOL * (1.0 + abs(tmap.mean_mu) / np.sqrt(tmap.var_mu))
    vals = [np.asarray(psi.closed_form(y), float) for psi in psis]
    moments = [float(v @ weights) for v in vals]
    bounds = [rel_tol * (np.abs(v) @ weights) + MOMENT_ABS_TOL for v in vals]
    return [(m, bool(abs(m - ref) <= bound))
            for m, bound, ref in zip(moments, bounds, references)]
