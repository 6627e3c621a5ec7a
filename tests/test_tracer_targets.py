"""The names the benchmark's tracer wraps, checked against the package.

A traced benchmark run (``blbench/tracer.py``) replaces each target
attribute with a wrapper; two of its hooks bind arguments by parameter
name, and its hooks and ``blbench/child.py`` read counters off results.  A
rename in blverify would only show as a KeyError or an AttributeError in a
traced run, so these tests fail on it first.  They read ``blbench/`` and
change nothing there.
"""

import importlib.util
import inspect
from pathlib import Path

from blverify import cli
from blverify.bass_embedding import (ClarkIntegrand, EmbeddingEnsemble,
                                     simulate_embeddings)
from blverify.potentials import builtin_potential
from blverify.transport import build_transport

TRACER = Path(__file__).resolve().parents[1] / "blbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("blbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    targets = tracer.blverify_targets()
    assert targets
    for owner, attr, layer, _ in targets:
        assert attr in vars(owner), (owner, attr)
        assert layer in tracer.LAYERS, layer


def test_hooks_bind_parameters_that_exist():
    assert "ensemble" in inspect.signature(cli.mc_crosscheck).parameters
    assert "path" in inspect.signature(EmbeddingEnsemble.to_csv).parameters
    # the counters the hooks and child.py read off results
    tmap = build_transport(builtin_potential("zero"), 1.0)
    assert len(tmap.edges) > 0 and tmap.extrapolation_count >= 0
    ensemble, = simulate_embeddings([ClarkIntegrand(tmap)], 2, 16, seed=1)
    assert (ensemble.n_paths, ensemble.n_steps) == (2, 16)
    assert ensemble.clamp_count >= 0
