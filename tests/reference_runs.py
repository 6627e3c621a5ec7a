"""Reference outputs of three small CLI runs, and the list of what moved.

``tests/reference/`` holds, for each run of ``RUNS``, the outputs that a
change must either keep byte for byte or explain: ``report.json`` without
its ``output_dir`` echo, ``summary.csv`` and the sha256 of each ensemble
CSV and of its ``T``, ``bt`` and ``w1`` columns.
``test_reference_outputs.py`` reruns the three and lists every moved field
with its old value, its new value and the relative change.  The bytes depend on the numpy version, which ``versions.json``
records.

Regenerate the references with

    PYTHONPATH=src python tests/reference_runs.py

only for a change that moves outputs on purpose, and paste the test's list
of moved fields, run just before, into CHANGES.md with the reason for each.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from blverify.cli import main

REFERENCE = Path(__file__).resolve().parent / "reference"

# ``run``: two convex potentials and a slope map whose beta and improved
# alpha add the reverse and the improved verdicts; ``verify``: the default
# matrix; ``embed``: the exact Gaussian case and the double-well map
RUNS = {
    "run": (["run"], {
        "potentials": [
            {"family": "abs", "params": {"c": 1.0}},
            {"family": "quadratic", "params": {"c": 1.0}},
            {"slope_map": {"name": "log_mixture",
                           "params": {"p": 0.5, "q": 0.5 * math.sqrt(2.0),
                                      "a": 1.0, "b": 2.0}},
             "beta": 2.0, "improved_alpha": 1.0},
        ],
        "n_paths": 3000, "n_steps": 64, "seed": 11}),
    "verify": (["verify", "--matrix", "default"], None),
    "embed": (["embed"], {
        "potentials": [{"family": "zero"}, {"slope_map": {"name": "cubic"}}],
        "psis": ["abs"], "n_paths": 2500, "n_steps": 64, "seed": 5}),
}
TABLES = ("summary.csv",)


def produce(name: str, workdir: Path) -> dict:
    """Run ``name`` in ``workdir``; its reference files as {name: text}."""
    argv, config = RUNS[name]
    out = workdir / name
    if config is not None:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    status = main([*argv, "--out", str(out)])
    if status != 0:
        raise RuntimeError(f"reference run {name!r} exited {status}")
    files = {}
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        del report["config"]["output_dir"]
        files["report.json"] = json.dumps(report, indent=2,
                                          sort_keys=True) + "\n"
    for table in TABLES:
        if (out / table).exists():
            files[Path(table).name] = (out / table).read_text(encoding="utf-8")
    ensembles = sorted(out.glob("ensemble*.csv"))
    if ensembles:
        files["ensembles.sha256"] = "".join(map(ensemble_digests, ensembles))
    return files


def ensemble_digests(path: Path) -> str:
    """``digest  name`` of the whole ensemble CSV, then ``digest  name:col``
    of each value column's cells, one per line, so that a moved column is
    named."""
    data = path.read_bytes()
    header, *rows = data.decode("utf-8").splitlines()
    lines = [f"{hashlib.sha256(data).hexdigest()}  {path.name}\n"]
    for column, cells in zip(header.split(","),
                             zip(*(row.split(",") for row in rows))):
        if column != "path":
            digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()
            lines.append(f"{digest}  {path.name}:{column}\n")
    return "".join(lines)


def versions() -> dict:
    return {"numpy": np.__version__}


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _leaves(obj, prefix=""):
    """{path: value} of every leaf of a JSON value."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v)
                 for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for path, value in items:
        out.update(_leaves(value, path))
    return out


def _cells(text: str) -> dict:
    """{row:column: cell} of a CSV, rows numbered from 1 after the header."""
    rows = list(csv.reader(text.splitlines()))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return {f"row {i}:{col}": cell for i, row in enumerate(body, 1)
            for col, cell in zip(header, row)}


def _hashes(text: str) -> dict:
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in text.splitlines())}


def _relative(old, new) -> str:
    if isinstance(old, bool) or isinstance(new, bool):
        return ""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return ""
    return (f" (rel {abs(b - a) / abs(a):.2g})" if a and math.isfinite(a)
            and math.isfinite(b) else f" (abs {abs(b - a):.2g})")


def moved_fields(name: str, filename: str, old: str, new: str) -> list[str]:
    """One line per field of ``filename`` that differs between the texts:
    path, old value, new value and the relative change of numbers."""
    if filename.endswith(".json"):
        old_f, new_f = _leaves(json.loads(old)), _leaves(json.loads(new))
    elif filename.endswith(".csv"):
        old_f, new_f = _cells(old), _cells(new)
    else:
        old_f, new_f = _hashes(old), _hashes(new)
    absent = "(absent)"
    return [f"{name}/{filename} {key}: {old_f.get(key, absent)} -> "
            f"{new_f.get(key, absent)}"
            f"{_relative(old_f.get(key), new_f.get(key))}"
            for key in sorted(old_f.keys() | new_f.keys(),
                              key=lambda k: (k not in old_f, k))
            if old_f.get(key, absent) != new_f.get(key, absent)]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        produced = {name: produce(name, Path(tmp)) for name in RUNS}
    shutil.rmtree(REFERENCE, ignore_errors=True)
    for name, files in produced.items():
        (REFERENCE / name).mkdir(parents=True)
        for filename, text in files.items():
            (REFERENCE / name / filename).write_text(text, encoding="utf-8")
    (REFERENCE / "versions.json").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    regenerate()
