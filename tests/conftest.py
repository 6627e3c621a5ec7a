import math

import pytest

from blverify import (appendix_transport, build_transport, builtin_potential,
                      builtin_slope_map)

# The standard verification matrix: four convex tilts of N(0, 1) and the two
# slope-map measures (double-well via k = x + x^3, two-atom log-mixture).
LOG_MIXTURE_PARAMS = {"p": 0.5, "q": 0.5 * math.sqrt(2.0), "a": 1.0, "b": 2.0}

MATRIX_KEYS = ("zero", "linear", "quadratic", "abs",
               "double_well_k", "log_mixture_k")

# the largest excesses of g' over sqrt(A), per unit of the tolerance, found
# in sweeps of linear(c) over c in [-7, 20] and A in [0.01, 50]: before the
# transport window could reach a far mode (1366 u at A = 1.44, shift -288:
# 0.100 of the tolerance; the T bound's worst case at A = 7.4989), and over
# the 28 c by the 24 A of np.logspace(-2, log10(50), 24) since (34540 u at
# the last A, one ulp below 50, shift -10000: 0.204 of the tolerance)
WORST_LINEAR = (("linear", 20.0, 1.4399033208816328),
                ("linear", 5.0, 7.4989),
                ("linear", 20.0, 49.99999999999999))


def make_matrix_transport(key):
    if key in ("double_well_k", "log_mixture_k"):
        sm = (builtin_slope_map("cubic") if key == "double_well_k" else
              builtin_slope_map("log_mixture", LOG_MIXTURE_PARAMS))
        return appendix_transport(sm, sm.alpha)
    params = {"c": 1.0} if key in ("linear", "quadratic", "abs") else None
    return build_transport(builtin_potential(key, params), 1.0)


@pytest.fixture(scope="session")
def matrix_transports():
    return {key: make_matrix_transport(key) for key in MATRIX_KEYS}
