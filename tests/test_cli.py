import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blverify
from blverify.cli import (ConfigError, ExperimentConfig,
                          _parse_potential_entry, default_matrix_config, main)

SMALL = {
    "potentials": [{"family": "quadratic", "params": {"c": 1.0}}],
    "A": 1.0,
    "psis": ["abs", "square"],
    "p_list": [2.0],
    "n_paths": 1500,
    "n_steps": 128,
    "seed": 7,
}


def write_config(tmp_path, overrides=None, **extra):
    cfg = dict(SMALL, **(overrides or {}), **extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(dict(SMALL, output_dir="x"))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_defaults(self):
        cfg = default_matrix_config()
        assert cfg.n_paths == 100_000 and cfg.n_steps == 2048
        assert cfg.seed == 42 and cfg.p_list == [1.5, 2.0, 4.0]
        assert cfg.quadrature_tol == 1e-10
        assert len(cfg.potentials) == 6 and len(cfg.psis) == 5

    @pytest.mark.parametrize("bad", [
        {"potentials": []},
        {"A": -1.0},
        {"p_list": [0.5]},
        {"n_steps": 4},
        {"psis": ["abs", "nope"]},
        {"potentials": [{"family": "unknown"}]},
        {"potentials": [{"oops": 1}]},
        {"unknown_key": 3},
        {"potentials": [{"slope_map": {"name": "cubic"}, "alpha": -1.0}]},
        {"potentials": [{"slope_map": {"name": "cubic"}, "beta": 0.5}]},
        {"potentials": [{"slope_map": {"name": "cubic"},
                         "improved_alpha": 0.0}]},
        {"potentials": [{"family": "double_well"}]},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(SMALL, **bad))


class TestRunCommand:
    def test_exit_zero_and_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "ensemble.csv").exists()
        assert (out / "plotdata" / "margins.csv").exists()
        assert (out / "plotdata" / "transport_quadratic_1.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["potentials"][0]["wald"]["passed"] is True

    def test_summary_row_count_matches_matrix(self, tmp_path):
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "zero"}, {"family": "linear"}],
            "psis": ["abs", "square", {"call": 1.0}],
            "p_list": [1.5, 2.0],
            "n_paths": 0,
        })
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) - 1 == 2 * 3 * 2   # potentials x psis x p_list

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        first_ens = (out / "ensemble.csv").read_bytes()
        first_rep = (out / "report.json").read_bytes()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "ensemble.csv").read_bytes() == first_ens
        assert (out / "report.json").read_bytes() == first_rep

    def test_malformed_json_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_usage_error_without_command(self):
        assert main([]) == 2

    def test_config_and_matrix_conflict(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--matrix", "default"]) == 2

    def test_misdeclared_slope_bound_exits_2(self, tmp_path):
        # cubic map has k' >= 1 only; declaring alpha = 4 must be rejected
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"slope_map": {"name": "cubic"}, "alpha": 4.0}],
            "n_paths": 0,
        })
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("bad_entry", [
        {"slope_map": {"name": "cubic"}, "alpha": 4.0},
        {"family": "double_well"},
    ])
    @pytest.mark.parametrize("command", ["run", "embed"])
    def test_bad_entry_exits_2_writing_nothing(self, command, bad_entry,
                                               tmp_path):
        # the bad entry comes second, after one that would already have
        # produced an ensemble and plot data
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "abs", "params": {"c": 1.0}},
                           bad_entry],
            "n_paths": 300,
        })
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_failed_inequality_exits_1(self, tmp_path, monkeypatch):
        # exit-code contract: any false pass flag turns the run into status 1
        import blverify.cli as cli_mod
        real = cli_mod.verify_theorem

        def sabotaged(psi, tmap, p_list=(1.5, 2.0, 4.0)):
            rep = real(psi, tmap, p_list)
            rep.passes["bl1"] = False
            return rep

        monkeypatch.setattr(cli_mod, "verify_theorem", sabotaged)
        cfg = write_config(tmp_path, overrides={"n_paths": 0})
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


class TestSubcommands:
    def test_verify_has_no_monte_carlo(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["potentials"][0]
        assert "wald" not in entry
        assert all(rep["mc"] is None for rep in entry["reports"])
        assert not (out / "ensemble.csv").exists()

    def test_embed_writes_ensemble_only(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["embed", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "ensemble.csv").exists()
        assert not (out / "report.json").exists()
        assert not (out / "plotdata").exists()

    def test_embed_makes_no_verdicts_and_keeps_run_ensembles(self, tmp_path,
                                                             monkeypatch):
        import blverify.cli as cli_mod
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "abs", "params": {"c": 1.0}},
                           {"slope_map": {"name": "cubic"}}],
            "n_paths": 300,
            "n_steps": 64,
        })
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0

        def no_verdict(*args, **kwargs):
            raise AssertionError("embed computed a verdict")

        for name in ("verify_theorem", "verify_appendix", "mc_crosscheck"):
            monkeypatch.setattr(cli_mod, name, no_verdict)
        assert main(["embed", "--config", str(cfg),
                     "--out", str(tmp_path / "embed")]) == 0
        for name in ("ensemble_00_abs_1.csv",
                     "ensemble_01_slope_cubic_k_gauss.csv"):
            assert (tmp_path / "embed" / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes()

    def test_embed_seed_override_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["embed", "--config", str(cfg), "--seed", "9",
                     "--out", str(out1)]) == 0
        assert main(["embed", "--config", str(cfg), "--seed", "9",
                     "--out", str(out2)]) == 0
        assert (out1 / "ensemble.csv").read_bytes() == \
            (out2 / "ensemble.csv").read_bytes()

    def test_sandwich_curves(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"potentials": [{"family": "abs"}]})
        out = tmp_path / "out"
        assert main(["sandwich", "--config", str(cfg), "--out", str(out),
                     "--x-grid", "0", "0.5", "1", "2"]) == 0
        data = (out / "plotdata" / "sandwich_abs_1.csv").read_text().splitlines()
        assert data[0] == "x,est1_lower,gap_mc,gap_se,est2_p2"
        assert len(data) == 5
        report = json.loads((out / "report.json").read_text())
        assert report["potentials"][0]["sandwich_passed"] is True

    @pytest.mark.parametrize("level", ["nan", "inf", "1e200"])
    def test_sandwich_level_without_finite_square_exits_2(self, level,
                                                          tmp_path):
        cfg = write_config(tmp_path, overrides={"potentials": [{"family": "abs"}]})
        out = tmp_path / "out"
        assert main(["sandwich", "--config", str(cfg), "--out", str(out),
                     "--x-grid", "0", level]) == 2
        assert not out.exists()

    def test_appendix_filters_slope_entries(self, tmp_path):
        cfg = write_config(tmp_path, overrides={
            "potentials": [
                {"family": "zero"},
                {"slope_map": {"name": "cubic"}},
                {"slope_map": {"name": "log_mixture",
                               "params": {"p": 0.5, "q": 0.5 * math.sqrt(2),
                                          "a": 1.0, "b": 2.0}},
                 "beta": 2.0, "improved_alpha": 1.0},
            ],
            "n_paths": 0,
        })
        out = tmp_path / "out"
        assert main(["appendix", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["potentials"]) == 2   # zero entry filtered out
        labels = [r["psi"] for r in report["potentials"][1]["reports"]]
        assert any(l.endswith("~improved_alpha") for l in labels)

    def test_improved_alpha_transport_built_once_per_entry(self, tmp_path,
                                                           monkeypatch):
        import blverify.cli as cli_mod
        import blverify.verifier as verifier_mod
        alphas = []
        real = verifier_mod.appendix_transport

        def counting(slope_map, alpha=None, *args, **kwargs):
            alphas.append(alpha)
            return real(slope_map, alpha, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "appendix_transport", counting)
        monkeypatch.setattr(verifier_mod, "appendix_transport", counting)
        cfg = write_config(tmp_path, overrides={
            "potentials": [
                {"slope_map": {"name": "log_mixture",
                               "params": {"p": 0.5, "q": 0.5 * math.sqrt(2),
                                          "a": 1.0, "b": 2.0}},
                 "beta": 2.0, "improved_alpha": 1.0},
            ],
            "psis": ["abs", "square", {"call": 1.0}],
            "n_paths": 0,
        })
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        # declared alpha is 0.25; one more build at the improved alpha
        assert sorted(alphas) == [0.25, 1.0]

    def test_improved_alpha_transport_uses_the_config_tolerance(self):
        spec = {"slope_map": {"name": "log_mixture",
                              "params": {"p": 0.5, "q": 0.5 * math.sqrt(2),
                                         "a": 1.0, "b": 2.0}},
                "improved_alpha": 1.0}
        entry = _parse_potential_entry(spec, 1.0, 1e-6)
        assert entry.tmap.quadrature_tol == 1e-6
        assert entry.improved_tmap.quadrature_tol == 1e-6

    def test_appendix_requires_slope_entry(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["appendix", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_multi_potential_ensembles_get_labeled_files(self, tmp_path):
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "zero"}, {"family": "quadratic"}],
            "psis": ["abs"],
            "n_paths": 300,
            "n_steps": 64,
        })
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "ensemble_00_zero.csv").exists()
        assert (out / "ensemble_01_quadratic_1.csv").exists()


def test_cli_import_leaves_heavy_scipy_subpackages_out():
    """Importing the CLI must not pull in scipy.integrate or scipy.optimize,
    which cost about a third of the import time of every invocation."""
    code = ("import blverify.cli, sys; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(blverify.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split() == []
