import math

import pytest

from blverify import (appendix_transport, build_transport, builtin_potential,
                      builtin_slope_map)

# The standard verification matrix: four convex tilts of N(0, 1) and the two
# slope-map measures (double-well via k = x + x^3, two-atom log-mixture).
LOG_MIXTURE_PARAMS = {"p": 0.5, "q": 0.5 * math.sqrt(2.0), "a": 1.0, "b": 2.0}

MATRIX_KEYS = ("zero", "linear", "quadratic", "abs",
               "double_well_k", "log_mixture_k")


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
