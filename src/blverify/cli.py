"""Command-line driver: build transports, simulate embeddings, verify.

Subcommands
-----------
run     full pipeline: report.json, summary.csv, ensemble CSVs, plotdata/
        (with the residual local-time curves at the levels of --x-grid)
embed   ensembles only
verify  quadrature-only verdicts (no Monte Carlo; n_paths forced to 0)

Exit status: 0 when every pass flag is true, 1 when an inequality or check
fails, 2 on configuration, usage or output errors (in which case nothing is
written: a run writes into a temporary directory inside the output
directory, or inside its nearest existing ancestor, and moves its files
into place only once all of them are written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# neither simulate_embedding nor ClarkIntegrand is used here, but both stay
# importable from this module: blbench's tracer wraps them under these names
from .bass_embedding import (ClarkIntegrand, EmbeddingEnsemble,  # noqa: F401
                             clark_integrands, embedded_law_check,
                             simulate_embedding, simulate_embeddings,
                             t_bound_check, wald_check)
from .convex_tests import convex_test_from_spec
from .local_time import (check_variance_pair, est1_lower, est2_upper,
                         local_time_gap_mc)
from .potentials import (SlopeBoundReport, _real_number, builtin_potential,
                         builtin_slope_map)
from .transport import (DivergentNormalizerError, NonFinitePotentialError,
                        TransportMap, build_transport)
# the moment check keeps the name that blbench's tracer wraps
from .verifier import (SlopeBoundError, appendix_transport,
                       check_declared_slope_bounds, format_float,
                       format_floats, moment_check as mc_crosscheck,
                       verify_appendix, verify_theorem)

__all__ = ["ExperimentConfig", "default_matrix_config", "main", "run"]


class ConfigError(ValueError):
    """Configuration file or flag usage is invalid."""


# what parsing a config value of the wrong type or range raises
_MALFORMED = (ValueError, TypeError, KeyError, OverflowError)


@dataclass
class ExperimentConfig:
    """Validated experiment settings (see README for the JSON schema)."""

    potentials: list = dataclasses.field(default_factory=list)
    A: float = 1.0
    psis: list = dataclasses.field(
        default_factory=lambda: ["abs", "square", {"power": 3},
                                 {"call": 1.0}, {"corridor": 1.0}])
    p_list: list = dataclasses.field(default_factory=lambda: [1.5, 2.0, 4.0])
    n_paths: int = 100_000
    n_steps: int = 2048
    seed: int = 42
    output_dir: str = "out"

    def validate(self) -> "ExperimentConfig":
        if not isinstance(self.potentials, list) or not self.potentials:
            raise ConfigError("config requires a nonempty 'potentials' list")
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise ConfigError(f"'A' must be a positive variance, got {self.A}")
        if not isinstance(self.psis, list) or not self.psis:
            raise ConfigError("config requires a nonempty 'psis' list")
        # bl3 needs the conjugate q = p / (p - 1) finite and above 1
        if not all(p > 1.0 and 1.0 < p / (p - 1.0) < math.inf
                   for p in self.p_list):
            raise ConfigError("'p_list' entries must exceed 1 and have a "
                              f"finite conjugate above 1, got {self.p_list}")
        # each p names a sandwich column est2_p{p:g}
        if len({f"{p:g}" for p in self.p_list}) < len(self.p_list):
            raise ConfigError("'p_list' entries must differ in their first "
                              f"6 significant digits, got {self.p_list}")
        # one path has no standard error for the Monte Carlo checks
        if self.n_paths < 0 or self.n_paths == 1:
            raise ConfigError("'n_paths' must be 0 or at least 2, got "
                              f"{self.n_paths}")
        if self.n_steps < 16:
            raise ConfigError("'n_steps' must be >= 16")
        # the random streams are keyed by the seed as a 64-bit word
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"'seed' must lie in [0, 2^64), got {self.seed}")
        # Path("") is the current directory
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("'output_dir' must be a nonempty string, got "
                              f"{self.output_dir!r}")
        for spec in self.potentials:
            _parse_potential_entry(spec, self.A, build=False)
        for spec in self.psis:
            try:
                convex_test_from_spec(spec)
            except _MALFORMED as exc:
                raise ConfigError(f"bad psi entry {spec!r}: {exc}") from exc
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(raw, {f.name for f in dataclasses.fields(cls)}, "config")
        cfg = cls(**{k: raw[k] for k in raw})
        if not isinstance(cfg.p_list, list):
            raise ConfigError(f"'p_list' must be a list, got {cfg.p_list!r}")
        try:
            cfg.A = _real_number(cfg.A, "'A'")
            cfg.p_list = [_real_number(p, "'p_list' entry") for p in cfg.p_list]
            cfg.n_paths = _integer(cfg.n_paths, "'n_paths'")
            cfg.n_steps = _integer(cfg.n_steps, "'n_steps'")
            cfg.seed = _integer(cfg.seed, "'seed'")
        except _MALFORMED as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        return cfg.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def default_matrix_config(**overrides) -> ExperimentConfig:
    """The standard verification matrix: four convex tilts of N(0, 1) plus
    the two slope-map measures, against the five catalog test functions."""
    base = {
        "potentials": [
            {"family": "zero"},
            {"family": "linear", "params": {"c": 1.0}},
            {"family": "quadratic", "params": {"c": 1.0}},
            {"family": "abs", "params": {"c": 1.0}},
            {"slope_map": {"name": "cubic"}},
            {"slope_map": {"name": "log_mixture",
                           "params": {"p": 0.5, "q": 0.5 * math.sqrt(2.0),
                                      "a": 1.0, "b": 2.0}},
             "beta": 2.0},
        ],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# config parsing helpers
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    """One potential of a run, built before anything is simulated or written.

    A slope-map entry carries the grid report of its declared bounds, checked
    once for all psis, and ``improved_tmap``, its transport at
    ``improved_alpha``, built once for all psis.
    """

    kind: str                           # "theorem" or "appendix"
    tmap: TransportMap
    slope: SlopeBoundReport | None = None
    improved_tmap: TransportMap | None = None


def _integer(value, what: str) -> int:
    """An integral config number as an int (32.0 reads as 32); ValueError
    for a fraction, a bool, a string or any other non-number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_keys(obj: dict, allowed, what: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")


def _params(obj: dict) -> dict | None:
    params = obj.get("params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"'params' must be an object, got {params!r}")
    return params


def _parse_potential_entry(spec, variance: float,
                           build: bool = True) -> _Entry | None:
    """Check one potential entry; with ``build``, check its declared slope
    bounds and build its transports.

    Raises
    ------
    SlopeBoundError
        When ``build`` and a declared slope bound fails on the grid.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"potential entry must be an object, got {spec!r}")
    if "family" in spec:
        _check_keys(spec, ("family", "params"), "potential entry")
        try:
            pot = builtin_potential(spec["family"], _params(spec))
        except _MALFORMED as exc:
            raise ConfigError(f"bad potential entry {spec!r}: {exc}") from exc
        if not build:
            return None
        return _Entry("theorem", build_transport(pot, variance))
    if "slope_map" in spec:
        _check_keys(spec, ("slope_map", "alpha", "beta", "improved_alpha"),
                    "slope map entry")
        sm_spec = spec["slope_map"]
        if not isinstance(sm_spec, dict):
            raise ConfigError(f"'slope_map' must be an object in {spec!r}")
        _check_keys(sm_spec, ("name", "params"), "'slope_map'")
        try:
            sm = builtin_slope_map(sm_spec["name"], _params(sm_spec))
            alpha = _real_number(spec.get("alpha", sm.alpha), "'alpha'")
            beta = spec.get("beta", sm.beta)
            beta = None if beta is None else _real_number(beta, "'beta'")
            improved = spec.get("improved_alpha")
            improved = (None if improved is None
                        else _real_number(improved, "'improved_alpha'"))
            if not all(math.isfinite(b) for b in (alpha, beta, improved)
                       if b is not None):
                raise ValueError("slope bounds must be finite")
            # SlopeMap rejects alpha <= 0 and beta < alpha
            dataclasses.replace(sm, alpha=alpha, beta=beta)
            if improved is not None:
                dataclasses.replace(sm, alpha=improved, beta=None)
        except _MALFORMED as exc:
            raise ConfigError(f"bad slope map entry {spec!r}: {exc}") from exc
        if not build:
            return None
        # the bounds first: the transport build never looks at k'
        slope = check_declared_slope_bounds(sm, alpha, beta)
        return _Entry("appendix", appendix_transport(sm, alpha),
                      slope=slope,
                      improved_tmap=None if improved is None
                      else appendix_transport(sm, improved))
    raise ConfigError(f"potential entry needs 'family' or 'slope_map': {spec!r}")


def _check_transports(entries, levels) -> None:
    """Reject a transport of a run that the local-time bounds cannot take:
    var X above its Gaussian variance A (an ``improved_alpha`` above
    1 / var X), or a level x (a psi'' atom or an x-grid level) with a
    non-finite x^2 + A, since they evaluate the local time at sqrt(x^2 + A)."""
    for entry in entries:
        for tmap in (entry.tmap, entry.improved_tmap):
            if tmap is None:
                continue
            try:
                check_variance_pair(tmap.A, tmap.var_mu)
            except ValueError as exc:
                raise ConfigError(f"potential {tmap.potential.label!r} at "
                                  f"A = {tmap.A:g}: {exc}") from exc
            bad = [x for x in levels if not math.isfinite(x * x + tmap.A)]
            if bad:
                raise ConfigError(f"psi atoms and x-grid levels need a finite "
                                  f"x^2 + A at A = {tmap.A:g}: {bad}")


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label).strip("_")


def _check_slugs(entries) -> None:
    """Reject potentials whose labels give one slug: they would write the
    same plot-data files."""
    seen = {}
    for idx, entry in enumerate(entries):
        label = entry.tmap.potential.label
        slug = _slug(label)
        if slug in seen:
            first, first_label = seen[slug]
            raise ConfigError(f"potentials {first} ({first_label!r}) and "
                              f"{idx} ({label!r}) would both write the plot "
                              f"data of {slug!r}")
        seen[slug] = idx, label


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _process_entry(entry: _Entry, ensemble: EmbeddingEnsemble | None, psis,
                   p_list: tuple):
    """Ensemble checks of ``ensemble``, simulated on the entry's transport,
    plus one verification report per parsed psi of ``psis`` (and per psi at
    ``improved_alpha``); embed passes none."""
    tmap = entry.tmap
    record = {
        "kind": entry.kind,
        "label": tmap.potential.label,
        "gaussian_variance": format_float(tmap.A),
        "mean_x": format_float(tmap.mean_mu),
        "var_x": format_float(tmap.var_mu),
    }
    if ensemble is not None:
        checks = {"wald": wald_check(ensemble),
                  "t_bound": t_bound_check(ensemble),
                  "embedded_law": embedded_law_check(ensemble)}
        for key, check in checks.items():
            record[key] = format_floats(dataclasses.asdict(check))

    reports = []
    for psi in psis:
        if entry.kind == "theorem":
            rep = verify_theorem(psi, tmap, p_list=p_list)
        else:
            rep = verify_appendix(psi, tmap, entry.slope, p_list=p_list)
        reports.append(rep)
        if entry.improved_tmap is not None:
            imp = verify_appendix(psi, entry.improved_tmap, entry.slope,
                                  p_list=())
            imp.psi_label += "~improved_alpha"
            reports.append(imp)
    if ensemble is not None and psis:
        own = reports[::2] if entry.improved_tmap is not None else reports
        checks = mc_crosscheck(ensemble, psis, [rep.rhs for rep in own])
        for rep, (moment, agrees) in zip(own, checks):
            rep.embedded_moment, rep.passes["moment"] = moment, agrees
    return record, reports


_SUMMARY_COLUMNS = ("potential", "A", "psi", "p", "q", "lhs", "rhs", "var_x",
                    "bl1_margin", "bl2_correction", "bl2_margin",
                    "bl3_constant", "bl3_margin", "passed")
_MARGIN_COLUMNS = ("potential", "psi", "p", "bl1_margin", "bl2_margin",
                   "bl3_margin")


def _summary_rows(report: dict) -> list:
    """Rows of summary.csv (and, projected, of margins.csv) for one report in
    its ``to_json_dict`` form: one per bl3 entry, or one with blank bl3 cells
    when there is none."""
    base = {**report, "A": report["gaussian_variance"],
            "passed": all(report["passes"].values())}
    blank = dict.fromkeys(("p", "q", "constant", "margin"), "")
    return [{**base, "p": e["p"], "q": e["q"], "bl3_constant": e["constant"],
             "bl3_margin": e["margin"]}
            for e in report["bl3"] or [blank]]


def _write_csv(path: Path, columns, rows) -> None:
    """Standard CSV of ``rows`` (dicts) under a header of ``columns``: floats
    as 17-digit strings, a cell that holds a comma quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_floats(row[c]) for c in columns]
                         for row in rows)


def _transport_rows(tmap: TransportMap) -> list:
    xs = np.linspace(-8.0, 8.0, 321)
    g = np.asarray(tmap.g(xs), float)
    gp = np.asarray(tmap.g_prime(xs), float)
    sa = math.sqrt(tmap.A)
    return [{"x": xs[i], "g": g[i], "g_prime": gp[i], "sqrt_A": sa}
            for i in range(xs.size)]


def _sandwich_rows(ensemble: EmbeddingEnsemble, x_grid, p_list):
    tmap = ensemble.clark.transport
    rows = []
    ok = True
    for x in x_grid:
        gap = local_time_gap_mc(ensemble, x)
        lo = est1_lower(x, tmap.A, tmap.var_mu)
        row = {"x": x, "est1_lower": lo, "gap_mc": gap.estimate,
               "gap_se": gap.std_error}
        if lo > gap.estimate + 3.0 * gap.std_error + 1e-12:
            ok = False
        for p in p_list:
            hi = est2_upper(x, tmap.A, tmap.var_mu, p)
            row[f"est2_p{p:g}"] = hi
            if gap.estimate - 3.0 * gap.std_error > hi + 1e-12:
                ok = False
        rows.append(row)
    return rows, ok


def _load_config(args) -> ExperimentConfig:
    """The config of --config or --matrix with the flag overrides, and
    n_paths = 0 for 'verify', merged in before its one validation."""
    if args.config and args.matrix:
        raise ConfigError("--config and --matrix are mutually exclusive")
    overrides = {attr: getattr(args, name) for name, attr in (
        ("seed", "seed"), ("paths", "n_paths"), ("steps", "n_steps"),
        ("out", "output_dir")) if getattr(args, name) is not None}
    if args.command == "verify":
        overrides["n_paths"] = 0
    if args.matrix:
        if args.matrix != "default":
            raise ConfigError(f"unknown matrix {args.matrix!r}")
        return default_matrix_config(**overrides)
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {args.config}: {exc}") from exc
        if isinstance(raw, dict):
            raw.update(overrides)
        return ExperimentConfig.from_dict(raw)
    raise ConfigError("either --config PATH or --matrix default is required")


def run(cfg: ExperimentConfig, mode: str = "run", x_grid=None) -> int:
    """Execute one experiment in mode 'run', 'verify' or 'embed'; returns
    the process exit status.  ``x_grid`` holds the levels of the residual
    local-time curves that 'run' writes when it simulates (default 0, 0.5,
    1 and 2); an x-grid that would write no curve is a ConfigError."""
    if mode not in ("run", "verify", "embed"):
        raise ConfigError(f"unknown mode {mode!r}")
    with_mc = mode != "verify" and cfg.n_paths > 0
    if mode == "embed" and not with_mc:
        raise ConfigError("'embed' needs n_paths >= 2")
    if x_grid is None:
        x_grid = (0.0, 0.5, 1.0, 2.0)
    elif mode != "run" or not with_mc:
        raise ConfigError("an x-grid needs 'run' with n_paths >= 2")

    # phase 1: every transport, slope bound and integrand with its Clark
    # grid; a configuration error raised here leaves nothing written
    entries = [_parse_potential_entry(spec, cfg.A)
               for spec in cfg.potentials]
    psis = [convex_test_from_spec(s) for s in cfg.psis]
    _check_transports(entries, [*x_grid, *(loc for psi in psis
                                           for loc, _ in psi.atoms)])
    _check_slugs(entries)
    clarks = clark_integrands([e.tmap for e in entries]) if with_mc else []

    out = Path(cfg.output_dir)
    stage = _new_stage(out)
    try:
        all_ok = _write_outputs(stage, cfg, mode, entries, psis, clarks,
                                x_grid)
        _publish(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return 0 if all_ok else 1


def _write_outputs(out: Path, cfg: ExperimentConfig, mode: str, entries,
                   psis, clarks, x_grid) -> bool:
    """Phases 2 and 3 of `run`, writing into ``out``; whether every pass
    flag is true."""
    plotdir = out / "plotdata"
    if mode != "embed":
        plotdir.mkdir()

    # phase 2: one simulation for every potential, on shared Brownian paths
    ensembles = (simulate_embeddings(clarks, cfg.n_paths, cfg.n_steps, cfg.seed)
                 if clarks else [None] * len(entries))

    # phase 3: checks, verdicts and outputs, entry by entry
    records = []
    summary = []
    all_ok = True
    single = len(entries) == 1
    for idx, (entry, ensemble) in enumerate(zip(entries, ensembles)):
        record, reports = _process_entry(
            entry, ensemble, psis if mode != "embed" else (),
            tuple(cfg.p_list))
        slug = _slug(record["label"])
        if ensemble is not None:
            name = "ensemble.csv" if single else f"ensemble_{idx:02d}_{slug}.csv"
            ensemble.to_csv(out / name)
            record["ensemble_csv"] = name
            all_ok &= all(record[key]["passed"]
                          for key in ("wald", "t_bound", "embedded_law"))
        if mode != "embed":
            record["reports"] = [rep.to_json_dict() for rep in reports]
            for rep in record["reports"]:
                summary.extend(_summary_rows(rep))
            all_ok &= all(rep.all_passed for rep in reports)
            _write_csv(plotdir / f"transport_{slug}.csv",
                       ("x", "g", "g_prime", "sqrt_A"),
                       _transport_rows(entry.tmap))
        if mode == "run" and ensemble is not None:
            rows, ok = _sandwich_rows(ensemble, x_grid, cfg.p_list)
            _write_csv(plotdir / f"sandwich_{slug}.csv",
                       ["x", "est1_lower", "gap_mc", "gap_se"]
                       + [f"est2_p{p:g}" for p in cfg.p_list], rows)
            record["sandwich_passed"] = ok
            all_ok &= ok
        records.append(record)

    if mode != "embed":
        _write_csv(plotdir / "margins.csv", _MARGIN_COLUMNS, summary)
        _write_csv(out / "summary.csv", _SUMMARY_COLUMNS, summary)
        report = {
            "config": cfg.to_dict(),
            "mode": mode,
            "potentials": records,
            "all_passed": bool(all_ok),
        }
        with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return bool(all_ok)


def _new_stage(out: Path) -> Path:
    """A new empty directory for the outputs of a run into ``out``: inside
    ``out``, or inside its nearest existing ancestor when it is missing, so
    that moving the outputs into place renames within one file system and
    needs no other write permission, and a failed run creates no
    directory."""
    base = out
    while not base.exists() and base != base.parent:
        base = base.parent
    return Path(tempfile.mkdtemp(prefix=".blverify-", suffix=".partial",
                                 dir=base))


def _publish(stage: Path, out: Path) -> None:
    """Move every file under ``stage`` to the same place under ``out``.

    Every target is checked before the first move, so that a directory
    where a file goes, or a file where a directory goes, fails the run with
    nothing moved."""
    files = sorted(path.relative_to(stage) for path in stage.rglob("*")
                   if path.is_file())
    for rel in files:
        in_way = [out / d for d in rel.parents
                  if (out / d).exists() and not (out / d).is_dir()]
        if (out / rel).is_dir():
            in_way.append(out / rel)
        if in_way:
            raise FileExistsError(f"cannot write {out / rel}: {in_way[0]} "
                                  "is in the way")
    for rel in files:
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        os.replace(stage / rel, out / rel)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--matrix", help="named built-in matrix ('default')")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--paths", type=int, help="override n_paths")
    p.add_argument("--steps", type=int, help="override n_steps")
    p.add_argument("--out", help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blverify",
        description="Verify Gaussian moment-domination inequalities by "
                    "quadrature and Skorokhod-embedding Monte Carlo.")
    sub = parser.add_subparsers(dest="command")
    for name, help_txt in (
            ("run", "full pipeline: verify + simulate + write everything"),
            ("embed", "write embedding ensembles only"),
            ("verify", "quadrature-only verification (no Monte Carlo)")):
        sp = sub.add_parser(name, help=help_txt)
        _add_common(sp)
        if name == "run":
            sp.add_argument("--x-grid", type=float, nargs="+",
                            help="levels for the residual local-time curves")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = _load_config(args)
        return run(cfg, mode=args.command,
                   x_grid=getattr(args, "x_grid", None))
    except (ConfigError, SlopeBoundError, DivergentNormalizerError,
            NonFinitePotentialError, OSError) as exc:
        # a measure that cannot be built or a misdeclared bound is a
        # configuration problem, not an inequality failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
