"""Every output byte of three small runs against its committed reference.

A failure lists each moved field with its old value, its new value and the
relative change (see ``reference_runs.py``, which also regenerates the
references).  The three runs take about 2 s.
"""

import json

import pytest

from reference_runs import (REFERENCE, RUNS, ensemble_digests, moved_fields,
                            produce, versions)


@pytest.fixture(scope="module")
def recorded_versions():
    recorded = json.loads((REFERENCE / "versions.json").read_text())
    if recorded != versions():
        pytest.fail(f"the references were written with numpy "
                    f"{recorded['numpy']}, this is numpy "
                    f"{versions()['numpy']}: rerun under numpy "
                    f"{recorded['numpy']}, or regenerate with "
                    "tests/reference_runs.py and compare by hand")
    return recorded


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_reference(name, recorded_versions, tmp_path):
    produced = produce(name, tmp_path)
    stored = {path.name: path.read_text(encoding="utf-8")
              for path in sorted((REFERENCE / name).iterdir())}
    assert sorted(produced) == sorted(stored)
    moved = [line for filename in sorted(stored)
             for line in moved_fields(name, filename, stored[filename],
                                      produced[filename])]
    assert not moved, f"{len(moved)} fields moved:\n" + "\n".join(moved)


def test_moved_fields_lists_old_new_and_relative_change():
    old = json.dumps({"a": {"x": "1.5", "keep": "2"}, "b": [True]})
    new = json.dumps({"a": {"x": "1.5000000000000002", "keep": "2"},
                      "b": [False], "c": None})
    assert moved_fields("run", "report.json", old, new) == [
        "run/report.json a.x: 1.5 -> 1.5000000000000002 (rel 1.5e-16)",
        "run/report.json b[0]: True -> False",
        "run/report.json c: (absent) -> None"]
    assert moved_fields("run", "summary.csv", "p,q\n1,0\n",
                        "p,q\n1,1e-300\n2,3\n") == [
        "run/summary.csv row 1:q: 0 -> 1e-300 (abs 1e-300)",
        "run/summary.csv row 2:p: (absent) -> 2",
        "run/summary.csv row 2:q: (absent) -> 3"]
    assert moved_fields("embed", "ensembles.sha256", "ab  e.csv\n",
                        "cd  e.csv\n") == ["embed/ensembles.sha256 e.csv: "
                                           "ab -> cd"]


def testensemble_digests_name_the_moved_column(tmp_path):
    path = tmp_path / "ensemble_00_x.csv"
    path.write_text("path,T,bt,w1\n0,0.5,1,2\n1,0.25,3,4\n")
    old = ensemble_digests(path)
    path.write_text("path,T,bt,w1\n0,0.5,1,2\n1,0.26,3,4\n")
    moved = moved_fields("run", "ensembles.sha256", old,
                         ensemble_digests(path))
    assert [line.split(": ")[0].rsplit(" ", 1)[1] for line in moved] == [
        "ensemble_00_x.csv", "ensemble_00_x.csv:T"]
