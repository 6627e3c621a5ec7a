import csv
import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blverify
import blverify.potentials as potentials_mod
from blverify.bass_embedding import ClarkIntegrand, simulate_embedding
from blverify.convex_tests import convex_test_from_spec
from blverify.cli import (_SUMMARY_COLUMNS, ConfigError,
                          ExperimentConfig, _parse_potential_entry,
                          _process_entry, _summary_rows,
                          default_matrix_config, main, run)
import blverify.verifier as verifier_mod
from blverify.verifier import format_float, verify_appendix, verify_theorem

from test_convex_tests import SWEEP_SPECS
from test_verifier import nonincreasing_slope_map

# a key mapped to MISSING is left out of the config
MISSING = object()

LOG_MIXTURE_ENTRY = {
    "slope_map": {"name": "log_mixture",
                  "params": {"p": 0.5, "q": 0.5 * math.sqrt(2), "a": 1.0,
                             "b": 2.0}},
    "beta": 2.0, "improved_alpha": 1.0}

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
        assert "quadrature_tol" not in cfg.to_dict()
        assert len(cfg.potentials) == 6 and len(cfg.psis) == 5

    def test_integral_and_int_numbers_are_accepted(self):
        cfg = ExperimentConfig.from_dict(dict(
            SMALL, A=4, p_list=[2], n_steps=128.0, seed=7.0,
            potentials=[{"family": "abs", "params": {"c": 1}}]))
        assert (cfg.A, cfg.p_list) == (4.0, [2.0])
        assert type(cfg.n_steps) is int and cfg.n_steps == 128
        assert type(cfg.seed) is int and cfg.seed == 7

    def test_seed_takes_every_64_bit_word(self):
        for seed in (0, 2**64 - 1):
            cfg = ExperimentConfig.from_dict(dict(SMALL, seed=seed))
            assert cfg.seed == seed

    @pytest.mark.parametrize("bad", [
        {"potentials": []},
        {"A": -1.0},
        {"p_list": [0.5]},
        {"n_steps": 4},
        {"psis": ["abs", "nope"]},
        {"potentials": [{"family": "unknown"}]},
        {"potentials": [{"oops": 1}]},
        {"unknown_key": 3},
        # the quadrature tolerance is a constant of the transport build now
        {"quadrature_tol": 1e-10},
        {"potentials": [{"slope_map": {"name": "cubic"}, "alpha": -1.0}]},
        {"potentials": [{"slope_map": {"name": "cubic"}, "beta": 0.5}]},
        {"potentials": [{"slope_map": {"name": "cubic"},
                         "improved_alpha": 0.0}]},
        {"potentials": [{"family": "double_well"}]},
        # malformed values: each used to end in a traceback with status 1
        {"A": "x"},
        {"p_list": ["abc"]},
        {"seed": "abc"},
        {"potentials": [{"family": "abs", "params": [1]}]},
        {"potentials": [{"slope_map": "cubic"}]},
        {"psis": [{"power": [3]}]},
        {"psis": [{"power": math.inf}]},
        {"potentials": [{"slope_map": {"name": "cubic"}, "alpha": "x"}]},
        # accepted once, then crashed after the output directory existed
        {"p_list": [1e16]},
        {"p_list": [math.inf]},
        {"psis": [{"call": math.nan}]},
        {"psis": [{"corridor": math.inf}]},
        {"psis": [{"power": 1e300}]},
        # psi'' exponents above 20
        {"psis": [{"power": 22.5}]},
        {"psis": [{"density_poly_coeffs": [1.0] * 22}]},
        {"psis": [{"atoms": [[math.inf, 1.0]]}]},
        {"psis": [{"atoms": [[0.0, math.nan]]}]},
        {"psis": [{"density_poly_coeffs": [math.inf]}]},
        {"psis": [{"atoms": [[0.0, 1.0]], "value_at_zero": math.nan}]},
        {"potentials": [{"slope_map": {"name": "cubic"}, "beta": math.inf}]},
        {"potentials": [{"slope_map": {"name": "cubic"},
                         "improved_alpha": math.inf}]},
        {"psis": [{"label": 5, "atoms": [[0.0, 1.0]]}],
         "potentials": [{"slope_map": {"name": "cubic"},
                         "improved_alpha": 1.0}]},
        {"psis": [{"label": ["x"], "atoms": [[0.0, 1.0]]}]},
        # outside [0, 2^64): -1 keyed the same streams as 2^64 - 1
        {"seed": -1},
        {"seed": 2**64},
        # unknown keys inside entries were dropped, and the run went on
        {"potentials": [{"family": "linear", "params": {"C": 30}}]},
        {"potentials": [{"slope_map": {"name": "cubic",
                                       "params": {"scale": 3}}}]},
        {"potentials": [{"slope_map": {"name": "linear",
                                       "params": {"scael": 2.0}}}]},
        {"potentials": [{"slope_map": {"name": "cubic", "scale": 3}}]},
        {"potentials": [{"slope_map": {"name": "cubic"},
                         "improved_alhpa": 1.0}]},
        {"potentials": [{"family": "abs", "beta": 2.0}]},
        {"psis": [{"power": 3, "call": 1.0}]},
        {"psis": [{"lable": "x", "atoms": [[0.0, 1.0]]}]},
        # JSON's 1e400 parses to inf
        {"A": json.loads("1e400")},
        # numbers of the wrong type were coerced: seed 3.7 ran as 3, "32"
        # steps as 32, A = true as 1, and c = true built abs(1)
        {"seed": 3.7},
        {"n_paths": 1500.5},
        {"n_steps": "32"},
        {"A": True},
        {"p_list": "23"},
        {"p_list": [True]},
        {"potentials": [{"family": "abs", "params": {"c": True}}]},
        {"potentials": [{"slope_map": {"name": "linear",
                                       "params": {"scale": "2"}}}]},
        {"potentials": [{"slope_map": {"name": "cubic"}, "alpha": True}]},
        {"psis": [{"call": True}]},
        {"psis": [{"atoms": [[0.0, "1"]]}]},
        # no potentials: a TypeError from the constructor, status 1
        {key: MISSING for key in SMALL},
        dict({key: MISSING for key in SMALL}, psis=["abs"]),
        # str() made these directories None/, 5/ and ['a']/
        {"output_dir": None},
        {"output_dir": 5},
        {"output_dir": ["a"]},
        # Path("") is the current directory, which got every output
        {"output_dir": ""},
        # one path: a standard error of 0 or inf, so checks that cannot fail
        {"n_paths": 1},
        {"n_paths": -1},
        # p values whose sandwich columns share the name est2_p1.5
        {"p_list": [1.5, 1.5000001]},
        {"p_list": [2.0, 2.0]},
    ])
    def test_validation_rejects(self, bad):
        raw = {k: v for k, v in dict(SMALL, **bad).items() if v is not MISSING}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


class TestRunCommand:
    def test_exit_zero_and_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "ensemble.csv").exists()
        assert (out / "plotdata" / "transport_quadratic_1.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["potentials"][0]["wald"]["passed"] is True

    @pytest.mark.parametrize("potential, variance", [
        ({"family": "zero"}, 1e-6), ({"family": "quadratic",
                                     "params": {"c": 100.0}}, 1e4)])
    def test_kernel_far_narrower_than_the_window(self, potential, variance,
                                                 tmp_path):
        # sd 1e-3 and 0.1 on windows of 10 and 1143: a start from sixteen
        # equal panels alone put no node in the bulk and read lhs(square) at
        # A = 1e-6 as 8.4e-21 (a bl1 failure, exit 1) and rhs(square) on
        # quadratic(100) as 4.6e-21
        cfg = write_config(tmp_path, overrides={
            "potentials": [potential], "A": variance, "psis": ["square"]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rep, = json.loads((out / "report.json").read_text())[
            "potentials"][0]["reports"]
        assert abs(float(rep["lhs"]) / variance - 1.0) <= 1e-12
        if "params" in potential:
            # within the tables' own error (ROADMAP item 15): 1.3e-9
            var_x = 1.0 / (100.0 + 1.0 / variance)
            assert abs(float(rep["rhs"]) / var_x - 1.0) <= 1e-8

    @pytest.mark.parametrize("variance, p_list", [
        # E|Y|^22 is about 1.4e318
        (1e28, [1.5, 2.0, 4.0]),
        # q = 4.5e15 puts S^21 of the bl3 constant near 1e322, while E psi(Y)
        # is about 1e172
        (1e15, [1.0 + 2.0 ** -52])])
    def test_gaussian_side_beyond_the_float_range_exits_2(
            self, variance, p_list, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "zero"}], "A": variance,
            "psis": [{"power": 22}], "p_list": p_list, "n_paths": 0})
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        before = _tree(tmp_path)
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert _tree(tmp_path) == before
        err = capsys.readouterr().err
        assert "'power(22)'" in err and f"A = {variance:g}" in err

    def test_call_value_far_out_of_the_money_is_zero(self, tmp_path):
        # strike 1 is 1000 sd out, where Phi's floor 5e-324 would leave the
        # local-time formula, and so E psi(Y), at -4.9e-324
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "zero"}], "A": 1e-6,
            "psis": [{"call": 1.0}], "n_paths": 0})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rep, = json.loads((out / "report.json").read_text())[
            "potentials"][0]["reports"]
        assert rep["lhs"] == "0"

    def test_far_shifted_gaussian_passes(self, tmp_path):
        # linear(20) at A = 50 is N(-1000, 50): its g' round-off, 3.8e-12
        # relative, used to fail T <= A with every other check passed
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "linear", "params": {"c": 20}}],
            "A": 50, "n_paths": 4096, "n_steps": 64})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["potentials"][0]["t_bound"]["passed"] is True

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

    @pytest.mark.parametrize("command", ["run", "verify", "embed"])
    def test_byte_identical_reruns(self, command, tmp_path):
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "quadratic", "params": {"c": 1.0}},
                           {"slope_map": {"name": "cubic"}}],
            "n_paths": 600,
            "n_steps": 64,
        })
        out = tmp_path / "out"

        def digests():
            # the same output directory both times: report.json echoes it
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            found = {str(f.relative_to(out)):
                     hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(out.rglob("*")) if f.is_file()}
            shutil.rmtree(out)
            return found

        first = digests()
        assert len(first) >= 2
        assert digests() == first

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

    def test_help_lists_the_three_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "{run,embed,verify}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sandwich", "appendix"])
    def test_removed_commands_exit_2_writing_nothing(self, command, tmp_path):
        # 'run --x-grid' and 'verify' took over their outputs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(write_config(tmp_path)),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["sandwich", "appendix"])
    def test_library_run_rejects_unknown_modes(self, mode, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(SMALL,
                                              output_dir=str(tmp_path / "o")))
        with pytest.raises(ConfigError, match="unknown mode"):
            run(cfg, mode=mode)
        assert not (tmp_path / "o").exists()

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

    def test_nonincreasing_slope_map_exits_2_writing_nothing(
            self, tmp_path, monkeypatch, capsys):
        # k = x^3 declares alpha = 1e-6, but k'(0) = 0; the bound check runs
        # before the map's transport is built
        monkeypatch.setitem(potentials_mod._SLOPE_FAMILIES, "cube",
                            nonincreasing_slope_map)
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "abs", "params": {"c": 1.0}},
                           {"slope_map": {"name": "cube"}}],
            "n_paths": 300})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "violates k' >= sqrt(1e-06)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_entry", [
        ("potentials", {"slope_map": {"name": "cubic"}, "alpha": 4.0}),
        ("potentials", {"family": "double_well"}),
        # no finite conjugate: p / (p - 1) rounds to 1
        ("p_list", 1e16),
        ("psis", {"call": math.nan}),
        # finite atoms whose level sqrt(x^2 + A) overflows
        ("psis", {"call": 1e300}),
        ("psis", {"corridor": 1e300}),
        ("psis", {"atoms": [[1e300, 1.0]]}),
        # a label that slugs like the first potential's: its plot data
        # would overwrite the first one's
        ("potentials", {"family": "abs", "params": {"c": 1.0000001}}),
        # an improved_alpha above 1 / var X = 4/3 compares X with a
        # narrower Gaussian; the bl2 correction used to crash on it
        ("potentials", dict(LOG_MIXTURE_ENTRY, improved_alpha=1.5)),
        ("potentials", dict(LOG_MIXTURE_ENTRY, improved_alpha=10.0)),
        # a bool where a number belongs
        ("potentials", {"family": "abs", "params": {"c": True}}),
        ("psis", {"call": True}),
        ("p_list", True),
        # a slope map's potential named as a family
        ("potentials", {"family": "log_mixture",
                        "params": LOG_MIXTURE_ENTRY["slope_map"]["params"]}),
        # a p whose sandwich column est2_p2 is the first p's: the run wrote
        # two est2_p2 columns, both holding this p's bound
        ("p_list", 2.0000001),
    ])
    @pytest.mark.parametrize("command", ["run", "embed"])
    def test_bad_entry_exits_2_writing_nothing(self, command, bad_entry,
                                               tmp_path):
        # the bad entry of a list comes last, after a potential that would
        # already have produced an ensemble and plot data
        key, value = bad_entry
        lists = {"potentials": [{"family": "abs", "params": {"c": 1.0}}],
                 "psis": list(SMALL["psis"]), "p_list": list(SMALL["p_list"])}
        lists[key].append(value)
        cfg = write_config(tmp_path, overrides=dict(lists, n_paths=300))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {}, {"psis": ["abs"]}, dict(SMALL, output_dir=None),
        dict(SMALL, output_dir=5), dict(SMALL, output_dir=["a", "b"]),
        dict(SMALL, output_dir=""), dict(SMALL, n_paths=1),
        dict(SMALL, quadrature_tol=1e-10),
        dict(SMALL, psis=[{"power": 22.5}]),
        dict(SMALL, psis=[{"density_poly_coeffs": [1.0] * 22}])])
    @pytest.mark.parametrize("command", ["run", "embed"])
    def test_bad_config_exits_2_writing_nothing(self, command, config,
                                                tmp_path, monkeypatch):
        # no --out: the config's own output_dir is the one used
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(config))
        assert main([command, "--config", "config.json"]) == 2
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("argv", [
        ["run", "--out", ""], ["verify", "--out", ""], ["embed", "--out", ""],
        ["run", "--paths", "1"], ["embed", "--paths", "1"],
        # no simulation, so no curve at the levels asked for
        ["run", "--x-grid", "1", "--paths", "0"]])
    def test_bad_flag_exits_2_writing_nothing(self, argv, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(SMALL))
        assert main([*argv, "--config", "config.json"]) == 2
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("bad", [{"seed": 3.7}, {"n_steps": "32"},
                                     {"A": True}])
    def test_wrongly_typed_number_exits_2_writing_nothing(self, bad,
                                                          tmp_path):
        cfg = write_config(tmp_path, overrides=bad)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
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

    def test_hermite_start_alone_fails_a_two_path_run(self, tmp_path,
                                                       monkeypatch):
        # g at its cubic Hermite start, with no Newton step, is off by
        # 5.1e-13 in F_mu at these two paths, measured: 102 times the law
        # tolerance; the KS gate that the law check replaced,
        # 1.63 / sqrt(2) = 1.15, passed any two paths
        import blverify.transport as transport_mod
        monkeypatch.setattr(transport_mod, "_NEWTON_STEPS", 0)
        cfg = write_config(tmp_path, overrides={
            "potentials": [{"family": "abs"}], "psis": ["abs"],
            "n_paths": 2, "n_steps": 64})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        law = report["potentials"][0]["embedded_law"]
        assert not law["passed"]
        assert float(law["pushforward_error"]) > 50 * float(law["tolerance"])


def _tree(root: Path) -> dict:
    """{relative path: file bytes, or None for a directory} under root."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


class TestAtomicOutput:
    """A run that fails while writing leaves its output directory as it was
    and leaves no staging directory behind."""

    CONFIG = {"potentials": [{"family": "abs"}], "psis": ["abs"],
              "n_paths": 0, "output_dir": "out"}

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(self.CONFIG))
        return tmp_path

    def test_report_path_taken_by_a_directory(self, workdir):
        # a run that writes as it goes leaves summary.csv and the
        # transport table behind before it fails on report.json
        (workdir / "out" / "report.json").mkdir(parents=True)
        (workdir / "out" / "report.json" / "x").write_text("kept")
        before = _tree(workdir)
        assert main(["verify", "--config", "config.json"]) == 2
        assert _tree(workdir) == before

    def test_plotdata_taken_by_a_file(self, workdir):
        (workdir / "out").mkdir()
        (workdir / "out" / "plotdata").write_text("kept")
        before = _tree(workdir)
        assert main(["verify", "--config", "config.json"]) == 2
        assert _tree(workdir) == before

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_last_write(self, existing, workdir, monkeypatch):
        import blverify.cli as cli_mod
        if existing:
            assert main(["run", "--config", "config.json",
                         "--paths", "300", "--steps", "16"]) == 0
            (workdir / "out" / "other.txt").write_text("kept")
        before = _tree(workdir)

        def failing_dump(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_mod.json, "dump", failing_dump)
        assert main(["verify", "--config", "config.json", "--out",
                     "out" if existing else "out/deeper/still"]) == 2
        assert _tree(workdir) == before

    def test_output_dir_on_its_own_file_system(self, workdir, monkeypatch):
        # as for a mount point or a symlink to another file system: a
        # rename into out from anywhere outside it fails with EXDEV
        (workdir / "out").mkdir()
        real = os.replace

        def replace(src, dst):
            if (workdir / "out").resolve() not in Path(src).resolve().parents:
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert main(["verify", "--config", "config.json"]) == 0
        assert sorted(_tree(workdir / "out")) == [
            "plotdata", "plotdata/transport_abs_1.csv", "report.json",
            "summary.csv"]

    @pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                        reason="root may write into a read-only directory")
    def test_output_dir_under_a_read_only_parent(self, workdir):
        (workdir / "ro" / "out").mkdir(parents=True)
        (workdir / "ro").chmod(0o555)
        try:
            assert main(["verify", "--config", "config.json",
                         "--out", "ro/out"]) == 0
        finally:
            (workdir / "ro").chmod(0o755)
        assert (workdir / "ro" / "out" / "report.json").is_file()

    def test_stage_search_stops_at_the_top(self, workdir, monkeypatch):
        # Path(".").parent is "."; when no ancestor exists (a deleted
        # working directory), the search for one still has to end
        import blverify.cli as cli_mod
        looked, real = [], Path.exists

        def exists(path):
            looked.append(str(path))
            assert len(looked) < 10, looked
            return False

        monkeypatch.setattr(Path, "exists", exists)
        stage = cli_mod._new_stage(Path("a/b"))
        monkeypatch.setattr(Path, "exists", real)
        assert looked == ["a/b", "a", "."]
        assert stage.parent == Path(".") and stage.is_dir()
        stage.rmdir()

    def test_success_replaces_files_and_keeps_others(self, workdir):
        (workdir / "out" / "plotdata").mkdir(parents=True)
        (workdir / "out" / "report.json").write_text("old")
        (workdir / "out" / "other.txt").write_text("kept")
        assert main(["verify", "--config", "config.json"]) == 0
        tree = _tree(workdir)
        assert json.loads(tree["out/report.json"])["all_passed"]
        assert tree["out/other.txt"] == b"kept"
        assert sorted(tree) == ["config.json", "out", "out/other.txt",
                                "out/plotdata",
                                "out/plotdata/transport_abs_1.csv",
                                "out/report.json", "out/summary.csv"]


class TestSubcommands:
    def test_verify_has_no_monte_carlo(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["n_paths"] == 0
        entry = report["potentials"][0]
        assert "wald" not in entry
        assert all(rep["embedded_moment"] is None
                   for rep in entry["reports"])
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

    @pytest.mark.parametrize("source", ["config", "matrix"])
    def test_flags_merged_before_one_validation(self, source, tmp_path,
                                                monkeypatch):
        calls = []
        real = ExperimentConfig.validate

        def counted(cfg):
            calls.append((cfg.seed, cfg.n_paths, cfg.n_steps, cfg.output_dir))
            return real(cfg)

        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        monkeypatch.setattr("blverify.cli.run", lambda cfg, **kw: 0)
        given = (["--config", str(write_config(tmp_path))] if source == "config"
                 else ["--matrix", "default"])
        assert main(["verify", *given, "--seed", "9", "--paths", "50",
                     "--steps", "64", "--out", "o"]) == 0
        assert calls == [(9, 0, 64, "o")]

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
        assert main(["run", "--config", str(cfg), "--out", str(out),
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
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--x-grid", "0", level]) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("n_psis", [1, len(SWEEP_SPECS)])
    def test_slope_bounds_checked_once_per_slope_map_entry(self, tmp_path,
                                                           monkeypatch,
                                                           n_psis):
        # the benchmark's verify sweep: the default matrix with an improved
        # alpha on the log-mixture, at A = 4, against its psis
        import blverify.verifier as verifier_mod
        calls = []
        real = verifier_mod.check_slope_bounds

        def counting(k, grid):
            calls.append(k.label)
            return real(k, grid)

        monkeypatch.setattr(verifier_mod, "check_slope_bounds", counting)
        potentials = default_matrix_config().potentials
        potentials[-1] = LOG_MIXTURE_ENTRY
        cfg = write_config(tmp_path, overrides={
            "potentials": potentials, "A": 4.0, "psis": SWEEP_SPECS[:n_psis],
            "p_list": [1.3, 2.0, 2.6, 3.5, 4.8], "n_paths": 0})
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert sum(len(p["reports"]) for p in report["potentials"]) == \
            7 * n_psis
        assert len(calls) == 2 and len(set(calls)) == 2

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


class TestSharedGaussianSide:
    """A verdict's measure side is computed once per verdict, and each
    report of a run equals its verdict computed alone."""

    # two convex potentials at one A; a convex one beside the log-mixture,
    # whose declared alpha 0.25 gives the same A = 4 and whose beta 2 and
    # improved alpha 1 add the variances 1/2 and 1
    POTENTIALS = {
        "convex": [{"family": "zero"},
                   {"family": "abs", "params": {"c": 1.0}}],
        "appendix": [{"family": "zero"}, LOG_MIXTURE_ENTRY],
    }

    @staticmethod
    def _record(monkeypatch, name, key):
        """Calls of ``verifier.<name>``, each as ``key(*args)``."""
        calls = []
        real = getattr(verifier_mod, name)

        def counting(*args):
            calls.append(key(*args))
            return real(*args)

        monkeypatch.setattr(verifier_mod, name, counting)
        return calls

    def _verify(self, tmp_path, potentials):
        cfg = ExperimentConfig.from_dict({
            "potentials": potentials, "A": 4.0,
            "psis": ["square", {"power": 3}], "p_list": [1.5, 3.0],
            "n_paths": 0, "output_dir": str(tmp_path / "out")})
        assert run(cfg, mode="verify") == 0

    @pytest.mark.parametrize("case", ["convex", "appendix"])
    def test_measure_side_once_per_verdict(self, tmp_path, monkeypatch,
                                           case):
        # the MAD ratio is a table call value, not one more moment_rhs
        rhs = self._record(monkeypatch, "moment_rhs",
                           lambda psi, tmap: (psi.label,
                                              tmap.potential.label, tmap.A))
        self._verify(tmp_path, self.POTENTIALS[case])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        verdicts = [(rep["psi"].removesuffix("~improved_alpha"),
                     rep["potential"], float(rep["gaussian_variance"]))
                    for entry in report["potentials"]
                    for rep in entry["reports"]]
        assert len(verdicts) == (4 if case == "convex" else 6)
        assert sorted(rhs) == sorted(verdicts)

    def test_reports_equal_verdicts_computed_alone(self, tmp_path):
        # the default matrix, the log-mixture with its improved alpha; each
        # verdict alone gets its own freshly parsed psi
        potentials = default_matrix_config().potentials
        potentials[-1] = LOG_MIXTURE_ENTRY
        cfg = default_matrix_config(potentials=potentials, n_paths=0,
                                    output_dir=str(tmp_path / "out"))
        assert run(cfg, mode="verify") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        p_list = tuple(cfg.p_list)
        for spec, record in zip(cfg.potentials, report["potentials"],
                                strict=True):
            entry = _parse_potential_entry(spec, cfg.A)
            alone = []
            for psi_spec in cfg.psis:
                psi = convex_test_from_spec(psi_spec)
                if entry.kind == "theorem":
                    rep = verify_theorem(psi, entry.tmap, p_list=p_list)
                else:
                    rep = verify_appendix(psi, entry.tmap, entry.slope,
                                          p_list=p_list)
                alone.append(rep.to_json_dict())
                if entry.improved_tmap is not None:
                    imp = verify_appendix(convex_test_from_spec(psi_spec),
                                          entry.improved_tmap, entry.slope,
                                          p_list=())
                    imp.psi_label += "~improved_alpha"
                    alone.append(imp.to_json_dict())
            assert record["reports"] == alone


def test_csv_outputs_read_back_with_dictreader(tmp_path):
    # the log-mixture label holds commas; each row must still parse into the
    # header's columns, with the label of its report
    out = tmp_path / "out"
    assert main(["verify", "--matrix", "default", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    expected = [(rep["potential"], rep["psi"])
                for entry in report["potentials"] for rep in entry["reports"]
                for _ in rep["bl3"] or [None]]
    assert any("," in label for label, _ in expected)
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert tuple(reader.fieldnames) == _SUMMARY_COLUMNS
    assert all(None not in row and None not in row.values() for row in rows)
    assert [(row["potential"], row["psi"]) for row in rows] == expected


# ---------------------------------------------------------------------------
# byte-identity oracles: the hand-written serializers that the asdict
# formatter and the one CSV writer replaced
# ---------------------------------------------------------------------------

def _oracle_to_json_dict(rep) -> dict:
    return {
        "kind": rep.kind,
        "potential": rep.potential_label,
        "psi": rep.psi_label,
        "gaussian_variance": format_float(rep.gaussian_variance),
        "lhs": format_float(rep.lhs),
        "rhs": format_float(rep.rhs),
        "mean_x": format_float(rep.mean_x),
        "var_x": format_float(rep.var_x),
        "bl1_margin": format_float(rep.bl1_margin),
        "bl2_correction": format_float(rep.bl2_correction),
        "bl2_margin": format_float(rep.bl2_margin),
        "bl3": [
            {"p": format_float(e.p), "q": format_float(e.q),
             "constant": format_float(e.constant),
             "upper_correction": format_float(e.upper_correction),
             "margin": format_float(e.margin), "passed": e.passed}
            for e in rep.bl3
        ],
        "mad_ratio": format_float(rep.mad_ratio),
        "mad_lower_bound": format_float(rep.mad_lower_bound),
        "gap_p1_bound": format_float(rep.gap_p1_bound),
        "gap_p1_margin": format_float(rep.gap_p1_margin),
        "lower_variance": format_float(rep.lower_variance),
        "lower_lhs": format_float(rep.lower_lhs),
        "lower_margin": format_float(rep.lower_margin),
        "normalizer_residual": format_float(rep.normalizer_residual),
        "slope_min": format_float(rep.slope_min),
        "slope_max": format_float(rep.slope_max),
        "embedded_moment": format_float(rep.embedded_moment),
        "passes": dict(sorted(rep.passes.items())),
    }


def _oracle_summary_rows(reports) -> list:
    rows = []
    for rep in reports:
        base = {
            "potential": rep.potential_label,
            "A": format_float(rep.gaussian_variance),
            "psi": rep.psi_label, "lhs": format_float(rep.lhs),
            "rhs": format_float(rep.rhs), "var_x": format_float(rep.var_x),
            "bl1_margin": format_float(rep.bl1_margin),
            "bl2_correction": format_float(rep.bl2_correction),
            "bl2_margin": format_float(rep.bl2_margin),
            "passed": rep.all_passed,
        }
        if rep.bl3:
            for e in rep.bl3:
                rows.append({**base, "p": format_float(e.p),
                             "q": format_float(e.q),
                             "bl3_constant": format_float(e.constant),
                             "bl3_margin": format_float(e.margin)})
        else:
            rows.append({**base, "p": "", "q": "", "bl3_constant": "",
                         "bl3_margin": ""})
    return rows


@pytest.fixture(scope="module")
def oracle_reports():
    """Reports with and without Monte Carlo, with None fields and with
    ``~improved_alpha`` (no bl3 entries)."""
    cfg = ExperimentConfig.from_dict(dict(
        SMALL, psis=["abs", "square", {"call": 1.0}], p_list=[1.5, 4.0]))
    theorem = _parse_potential_entry(
        {"family": "quadratic", "params": {"c": 1.0}}, cfg.A)
    mixture = _parse_potential_entry(LOG_MIXTURE_ENTRY, cfg.A)
    ensemble = simulate_embedding(ClarkIntegrand(theorem.tmap), 400, 32,
                                  seed=3)
    psis = [convex_test_from_spec(s) for s in cfg.psis]
    p_list = tuple(cfg.p_list)
    return (_process_entry(theorem, ensemble, psis, p_list)[1]
            + _process_entry(mixture, None, psis, p_list)[1])


class TestSerializerOracles:
    def test_reports_cover_the_cases(self, oracle_reports):
        assert any(rep.embedded_moment is not None for rep in oracle_reports)
        assert any(rep.embedded_moment is None for rep in oracle_reports)
        assert any(rep.psi_label.endswith("~improved_alpha") and not rep.bl3
                   for rep in oracle_reports)
        assert any(rep.gap_p1_bound is None for rep in oracle_reports)

    def test_to_json_dict_matches_oracle(self, oracle_reports):
        for rep in oracle_reports:
            assert rep.to_json_dict() == _oracle_to_json_dict(rep)

    def test_summary_rows_match_oracle(self, oracle_reports):
        rows = [row for rep in oracle_reports
                for row in _summary_rows(rep.to_json_dict())]
        assert ([{c: row[c] for c in _SUMMARY_COLUMNS} for row in rows]
                == _oracle_summary_rows(oracle_reports))


def test_cli_import_leaves_heavy_scipy_subpackages_out():
    """Importing the CLI must import no scipy module at all, and no module
    outside the standard library, numpy and blverify itself, which keeps
    the numpy-only dependency list of pyproject.toml true.  scipy.integrate
    and scipy.optimize once cost about a third of the import time of every
    invocation, and scipy.special alone about two thirds of what was left;
    scipy and mpmath are test-only dependencies."""
    # the top-level names of the modules the import adds to those that
    # the interpreter's start-up (site hooks included) loaded
    code = ("import sys; before = set(sys.modules); import blverify.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules "
            "if m not in before})))")
    src = str(Path(blverify.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    loaded = proc.stdout.split()
    assert "blverify" in loaded and "scipy" not in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "blverify"}
    assert [name for name in loaded if name not in allowed] == []
