"""Numerical verification of Gaussian moment-domination inequalities.

The package builds the increasing transport map from a Gaussian to a
log-concave (or slope-map generated) tilt of it, simulates the associated
bounded Skorokhod embedding, and verifies the lower/sharpened/upper moment
inequalities together with their variance-based error bounds, emitting
machine-readable reports.
"""

from .bass_embedding import (ClarkIntegrand, EmbeddingEnsemble,
                             clark_integrands, embedded_law_check,
                             simulate_embedding, simulate_embeddings,
                             t_bound_check, wald_check)
from .convex_tests import (ConvexTest, bl2_correction, bl3_constant,
                           builtin_convex_test, convex_test_from_spec,
                           p1_limit_bounds, second_derivative_mass)
from .gaussian_core import std_normal_cdf, std_normal_pdf, std_normal_quantile
from .local_time import (est1_lower, est2_upper, expected_local_time_array,
                         local_time_gap_mc)
from .potentials import (Potential, SlopeMap, builtin_potential,
                         builtin_slope_map, check_slope_bounds,
                         gaussian_mixture_slope_map, log_mixture_slope_map)
from .transport import (DivergentNormalizerError, NonConvexPotentialError,
                        NonFinitePotentialError, TransportMap,
                        build_transport)
from .verifier import (SlopeBoundError, VerificationReport,
                       appendix_transport, gaussianized_potential, moment_lhs,
                       moment_rhs, verify_appendix, verify_theorem)

__version__ = "0.1.0"
