"""Spans around blverify's public functions, recorded from outside the package.

The traced run replaces selected module attributes (the public names that
``blverify.cli`` and ``blverify.verifier`` look up at call time, plus
``EmbeddingEnsemble.to_csv``) with wrappers that open a span named after the
layer.  A layer's self time is the summed duration of its spans minus the
time covered by their child spans; ``calls`` counts the spans of a layer
that are not nested inside another span of the same layer.  Counters that
the wrappers read off arguments and results (path-steps, samples, edges,
clamps, bytes) are exact and must repeat from run to run.

Spans are kept on one stack, so wrapped functions must be called from a
single thread.  blverify calls all of them from the main thread: its worker
threads run only the inner step loop of ``simulate_embedding``.

This module imports nothing from blverify, so :func:`self_test` runs in a
checkout without the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import types
from collections import Counter, defaultdict

__all__ = ["EXACT_COUNTS", "LAYERS", "Tracer", "blverify_targets",
           "self_test"]

# Reporting order of the layers; every wrapped target maps to one of them.
LAYERS = (
    "bass_embedding.simulate",
    "bass_embedding.clark_grid",
    "bass_embedding.checks",
    "transport.build",
    "verifier.verdict",
    "verifier.moment_rhs",
    "verifier.moment_lhs",
    "verifier.mc_crosscheck",
    "convex_tests.bl2_correction",
    "convex_tests.bl3_constant",
    "convex_tests.p1_limit_bounds",
    "local_time.gap_mc",
    "local_time.bounds",
    "potentials.check_slope_bounds",
    "cli.ensemble_csv",
)

# Counters that must repeat exactly between runs of one workload and seed.
EXACT_COUNTS = (
    "bass_embedding.simulate.path_steps",
    "bass_embedding.simulate.clamp_count",
    "transport.edges",
    "verifier.mc_crosscheck.samples",
    "cli.ensemble_csv.bytes",
)


class Tracer:
    """Span stack, per-layer self times, call counts and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.transports: list = []
        self._stack: list[list] = []      # [layer, start, child time]
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if all(frame[0] != layer for frame in self._stack):
            self.calls[layer] += 1
        return duration

    def wrap(self, fn, layer: str, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, targets) -> None:
        """Replace each ``(owner, attribute, layer, hook)`` with a wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for owner, attr, layer, hook in targets:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, hook))

    def uninstall(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patched)
        self._patched = []
        return restored


# ---------------------------------------------------------------------------
# blverify targets and their counters
# ---------------------------------------------------------------------------

def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_simulate(tracer, fn, args, kwargs, ensemble):
    tracer.counts["bass_embedding.simulate.path_steps"] += (
        ensemble.n_paths * ensemble.n_steps)
    tracer.counts["bass_embedding.simulate.clamp_count"] += ensemble.clamp_count


def _count_transport(tracer, fn, args, kwargs, tmap):
    tracer.counts["transport.edges"] += len(tmap.edges)
    tracer.transports.append(tmap)


def _count_samples(tracer, fn, args, kwargs, result):
    ensemble = _argument(fn, args, kwargs, "ensemble")
    tracer.counts["verifier.mc_crosscheck.samples"] += ensemble.n_paths


def _count_bytes(tracer, fn, args, kwargs, result):
    path = _argument(fn, args, kwargs, "path")
    tracer.counts["cli.ensemble_csv.bytes"] += os.path.getsize(path)


def blverify_targets() -> list[tuple]:
    """Wrapped names, as ``(owner, attribute, layer, hook)``.

    Left unwrapped on purpose: names called per sample or per quadrature
    node (``eval_psi``, ``std_normal_cdf``/``pdf``, ``format_float``,
    ``integrate_against_second_derivative``), where a span would cost more
    than the call, and cheap config parsers (``convex_test_from_spec``,
    ``builtin_potential``, ``builtin_slope_map``, ``builtin_convex_test``,
    ``potential_from_slope_map``).  Their time is their caller's self time.
    """
    cli = importlib.import_module("blverify.cli")
    verifier = importlib.import_module("blverify.verifier")
    embedding = importlib.import_module("blverify.bass_embedding")
    return [
        (cli, "simulate_embedding", "bass_embedding.simulate", _count_simulate),
        (cli, "ClarkIntegrand", "bass_embedding.clark_grid", None),
        (cli, "wald_check", "bass_embedding.checks", None),
        (cli, "t_bound_check", "bass_embedding.checks", None),
        (cli, "embedded_law_check", "bass_embedding.checks", None),
        (cli, "build_transport", "transport.build", _count_transport),
        (cli, "appendix_transport", "transport.build", None),
        (verifier, "build_transport", "transport.build", _count_transport),
        (verifier, "appendix_transport", "transport.build", None),
        (cli, "verify_theorem", "verifier.verdict", None),
        (cli, "verify_appendix", "verifier.verdict", None),
        (verifier, "moment_rhs", "verifier.moment_rhs", None),
        (verifier, "moment_lhs", "verifier.moment_lhs", None),
        (cli, "mc_crosscheck", "verifier.mc_crosscheck", _count_samples),
        (verifier, "bl2_correction", "convex_tests.bl2_correction", None),
        (verifier, "bl3_constant", "convex_tests.bl3_constant", None),
        (verifier, "p1_limit_bounds", "convex_tests.p1_limit_bounds", None),
        (cli, "local_time_gap_mc", "local_time.gap_mc", None),
        (cli, "est1_lower", "local_time.bounds", None),
        (cli, "est2_upper", "local_time.bounds", None),
        (verifier, "check_slope_bounds", "potentials.check_slope_bounds", None),
        (embedding.EmbeddingEnsemble, "to_csv", "cli.ensemble_csv", _count_bytes),
    ]


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test() -> None:
    """Check self-time arithmetic and restoration on a synthetic call tree.

    Under a scripted clock, ``outer`` spends 1 s itself, calls ``inner``
    (layer B) which recurses once, and spends 2 s more; the nested B span
    must count once, and every attribute must be the original afterwards.
    Raises RuntimeError on any mismatch.
    """
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    ns = types.ModuleType("synthetic")

    def outer():
        tick(1.0)
        ns.inner(1)
        tick(2.0)

    def inner(depth):
        tick(4.0)
        if depth:
            ns.inner(depth - 1)
        tick(8.0)
        return depth

    class Writer:
        def write(self, n):
            tick(16.0)
            return n

    ns.outer, ns.inner, ns.Writer = outer, inner, Writer
    originals = (outer, inner, vars(Writer)["write"])

    tracer = Tracer(clock=lambda: now[0])
    seen = []
    tracer.install([
        (ns, "outer", "A", None),
        (ns, "inner", "B", lambda t, fn, a, k, r: seen.append(
            _argument(fn, a, k, "depth"))),
        (Writer, "write", "C", None),
    ])
    tracer.enter("root")
    ns.outer()
    ns.Writer().write(3)
    root = tracer.exit()
    restored = tracer.uninstall()

    checks = {
        "self time A": (tracer.self_s["A"], 3.0),
        "self time B": (tracer.self_s["B"], 24.0),
        "self time C": (tracer.self_s["C"], 16.0),
        "self time root": (tracer.self_s["root"], 0.0),
        "root duration": (root, 43.0),
        "sum of self times": (sum(tracer.self_s.values()), 43.0),
        "calls A": (tracer.calls["A"], 1),
        "calls B (nested counted once)": (tracer.calls["B"], 1),
        "calls C": (tracer.calls["C"], 1),
        "hook arguments": (seen, [0, 1]),
        "originals restored": (restored, True),
        "identity": ((ns.outer, ns.inner, vars(Writer)["write"]) == originals,
                     True),
    }
    bad = {name: got for name, (got, want) in checks.items() if got != want}
    if bad:
        raise RuntimeError(f"tracer self-test failed: {bad}")
