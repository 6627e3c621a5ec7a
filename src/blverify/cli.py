"""Command-line driver: build transports, simulate embeddings, verify.

Subcommands
-----------
run       full pipeline: report.json, summary.csv, ensemble CSVs, plotdata/
embed     ensembles only
verify    quadrature-only verdicts (no Monte Carlo; n_paths forced to 0)
sandwich  residual local-time curves: lower bound / MC estimate / upper bounds
appendix  slope-map measures only

Exit status: 0 when every pass flag is true, 1 when an inequality or check
fails, 2 on configuration or usage errors (in which case nothing is written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# simulate_embedding is not called here, but it stays importable from this
# module: blbench's tracer wraps the simulator under this name
from .bass_embedding import (ClarkIntegrand, EmbeddingEnsemble,  # noqa: F401
                             embedded_law_check, simulate_embedding,
                             simulate_embeddings, t_bound_check, wald_check)
from .convex_tests import convex_test_from_spec
from .local_time import est1_lower, est2_upper, local_time_gap_mc
from .potentials import SlopeMap, builtin_potential, builtin_slope_map
from .transport import (DivergentNormalizerError, NonFinitePotentialError,
                        TransportMap, build_transport)
from .verifier import (SlopeBoundError, appendix_transport,
                       check_declared_slope_bounds, format_float,
                       format_floats, mc_crosscheck, verify_appendix,
                       verify_theorem)

__all__ = ["ExperimentConfig", "default_matrix_config", "main", "run"]


class ConfigError(ValueError):
    """Configuration file or flag usage is invalid."""


# what parsing a config value of the wrong type or range raises
_MALFORMED = (ValueError, TypeError, KeyError, OverflowError)


@dataclass
class ExperimentConfig:
    """Validated experiment settings (see README for the JSON schema)."""

    potentials: list
    A: float = 1.0
    psis: list = dataclasses.field(
        default_factory=lambda: ["abs", "square", {"power": 3},
                                 {"call": 1.0}, {"corridor": 1.0}])
    p_list: list = dataclasses.field(default_factory=lambda: [1.5, 2.0, 4.0])
    n_paths: int = 100_000
    n_steps: int = 2048
    seed: int = 42
    quadrature_tol: float = 1e-10
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
        if self.n_paths < 0:
            raise ConfigError("'n_paths' must be >= 0")
        if self.n_steps < 16:
            raise ConfigError("'n_steps' must be >= 16")
        if not (self.quadrature_tol > 0.0):
            raise ConfigError("'quadrature_tol' must be positive")
        for spec in self.potentials:
            _parse_potential_entry(spec, self.A, self.quadrature_tol,
                                   build=False)
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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{k: raw[k] for k in raw})
        try:
            cfg.A = float(cfg.A)
            cfg.p_list = [float(p) for p in cfg.p_list]
            cfg.n_paths = int(cfg.n_paths)
            cfg.n_steps = int(cfg.n_steps)
            cfg.seed = int(cfg.seed)
            cfg.quadrature_tol = float(cfg.quadrature_tol)
        except _MALFORMED as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        cfg.output_dir = str(cfg.output_dir)
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

    ``improved_tmap`` is the transport at ``improved_alpha``, built once for
    all psis.
    """

    kind: str                           # "theorem" or "appendix"
    tmap: TransportMap
    slope_map: SlopeMap | None = None
    alpha: float | None = None
    beta: float | None = None
    improved_alpha: float | None = None
    improved_tmap: TransportMap | None = None


def _params(obj: dict) -> dict | None:
    params = obj.get("params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"'params' must be an object, got {params!r}")
    return params


def _parse_potential_entry(spec, variance: float, tol: float,
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
        try:
            pot = builtin_potential(spec["family"], _params(spec))
        except _MALFORMED as exc:
            raise ConfigError(f"bad potential entry {spec!r}: {exc}") from exc
        if not pot.convex:
            # the theorem verdicts need convexity; non-convex measures go
            # through their slope map
            raise ConfigError(f"potential {pot.label!r} is not convex; give "
                              "it as a 'slope_map' entry")
        if not build:
            return None
        return _Entry("theorem", build_transport(pot, variance, tol))
    if "slope_map" in spec:
        sm_spec = spec["slope_map"]
        if not isinstance(sm_spec, dict):
            raise ConfigError(f"'slope_map' must be an object in {spec!r}")
        try:
            sm = builtin_slope_map(sm_spec["name"], _params(sm_spec))
            alpha = float(spec.get("alpha", sm.alpha))
            beta = spec.get("beta", sm.beta)
            beta = None if beta is None else float(beta)
            improved = spec.get("improved_alpha")
            improved = None if improved is None else float(improved)
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
        check_declared_slope_bounds(sm, alpha, beta)
        return _Entry("appendix", appendix_transport(sm, alpha, tol),
                      slope_map=sm, alpha=alpha, beta=beta,
                      improved_alpha=improved,
                      improved_tmap=None if improved is None
                      else appendix_transport(sm, improved, tol))
    raise ConfigError(f"potential entry needs 'family' or 'slope_map': {spec!r}")


def _check_atom_levels(entries, psis) -> None:
    """Reject psi'' atoms x with a non-finite x^2 + A at the Gaussian variance
    A of any transport of a run: the bl2 correction evaluates the local time
    at level sqrt(x^2 + A)."""
    for entry in entries:
        for tmap in (entry.tmap, entry.improved_tmap):
            if tmap is None:
                continue
            bad = [loc for psi in psis for loc, _ in psi.atoms
                   if not math.isfinite(loc * loc + tmap.A)]
            if bad:
                raise ConfigError(f"psi atoms need a finite x^2 + A at "
                                  f"A = {tmap.A:g}: {bad}")


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label).strip("_")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _process_entry(entry: _Entry, ensemble: EmbeddingEnsemble | None,
                   cfg: ExperimentConfig, with_verdicts: bool):
    """Ensemble checks plus, with ``with_verdicts``, one verification report
    per psi (and per psi at ``improved_alpha``)."""
    tmap = entry.tmap
    record = {
        "kind": entry.kind,
        "label": tmap.potential.label,
        "gaussian_variance": format_float(tmap.A),
        "mean_x": format_float(tmap.mean_mu),
        "var_x": format_float(tmap.var_mu),
    }
    if ensemble is not None:
        checks = {"wald": wald_check(ensemble, tmap.var_mu),
                  "t_bound": t_bound_check(ensemble),
                  "embedded_law": embedded_law_check(ensemble, tmap)}
        for key, check in checks.items():
            record[key] = format_floats(dataclasses.asdict(check))

    reports = []
    for psi_spec in cfg.psis if with_verdicts else ():
        psi = convex_test_from_spec(psi_spec)
        if entry.kind == "theorem":
            rep = verify_theorem(psi, tmap, p_list=tuple(cfg.p_list))
        else:
            rep = verify_appendix(psi, entry.slope_map, alpha=entry.alpha,
                                  beta=entry.beta, p_list=tuple(cfg.p_list),
                                  tmap=tmap)
        if ensemble is not None:
            rep.mc = mc_crosscheck(psi, ensemble, tmap, reference=rep.rhs)
            rep.passes["mc"] = rep.mc.within_3se
        reports.append(rep)
        if entry.improved_tmap is not None:
            imp = verify_appendix(psi, entry.slope_map,
                                  alpha=entry.improved_alpha, p_list=(),
                                  require_slope_bound=False,
                                  tmap=entry.improved_tmap)
            imp.psi_label += "~improved_alpha"
            reports.append(imp)
    return record, reports


def _ensemble_checks_pass(entry: dict) -> bool:
    for key in ("wald", "t_bound", "embedded_law"):
        if key in entry and not entry[key]["passed"]:
            return False
    return True


_SUMMARY_COLUMNS = ("potential", "A", "psi", "p", "q", "lhs", "rhs", "var_x",
                    "bl1_margin", "bl2_correction", "bl2_margin",
                    "bl3_constant", "bl3_margin", "bl3_skipped", "passed")
_MARGIN_COLUMNS = ("potential", "psi", "p", "bl1_margin", "bl2_margin",
                   "bl3_margin")


def _summary_rows(report: dict) -> list:
    """Rows of summary.csv (and, projected, of margins.csv) for one report in
    its ``to_json_dict`` form: one per bl3 entry, or one with blank bl3 cells
    when there is none."""
    base = {**report, "A": report["gaussian_variance"],
            "passed": all(report["passes"].values())}
    blank = dict.fromkeys(("p", "q", "constant", "margin", "skipped"), "")
    return [{**base, "p": e["p"], "q": e["q"], "bl3_constant": e["constant"],
             "bl3_margin": e["margin"], "bl3_skipped": e["skipped"]}
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


def _sandwich_rows(tmap: TransportMap, ensemble: EmbeddingEnsemble,
                   x_grid, p_list):
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
    if args.config and args.matrix:
        raise ConfigError("--config and --matrix are mutually exclusive")
    if args.matrix:
        if args.matrix != "default":
            raise ConfigError(f"unknown matrix {args.matrix!r}")
        cfg = default_matrix_config()
    elif args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {args.config}: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
    else:
        raise ConfigError("either --config PATH or --matrix default is required")
    for name, attr in (("seed", "seed"), ("paths", "n_paths"),
                       ("steps", "n_steps"), ("out", "output_dir")):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, attr, val)
    return cfg.validate()


def run(cfg: ExperimentConfig, mode: str = "run", x_grid=None) -> int:
    """Execute one experiment; returns the process exit status.

    ``x_grid`` holds the levels of the residual local-time curves that the
    'run' and 'sandwich' modes write (default 0, 0.5, 1 and 2).
    """
    if x_grid is None:
        x_grid = (0.0, 0.5, 1.0, 2.0)
    with_mc = mode in ("run", "embed", "sandwich") and cfg.n_paths > 0
    # est1_lower evaluates the local time at level sqrt(x^2 + A)
    bad = [x for x in x_grid if not math.isfinite(x * x + cfg.A)]
    if bad:
        raise ConfigError(f"x-grid levels need a finite x^2 + A: {bad}")
    if mode in ("embed", "sandwich") and cfg.n_paths < 1:
        raise ConfigError(f"'{mode}' needs n_paths >= 1")
    if mode == "appendix":
        specs = [s for s in cfg.potentials if "slope_map" in s]
        if not specs:
            raise ConfigError("'appendix' needs at least one slope_map entry")
    else:
        specs = cfg.potentials

    # phase 1: every transport, slope bound and integrand with its Clark
    # grid; a configuration error raised here leaves nothing written
    entries = [_parse_potential_entry(spec, cfg.A, cfg.quadrature_tol)
               for spec in specs]
    _check_atom_levels(entries, [convex_test_from_spec(s) for s in cfg.psis])
    clarks = [ClarkIntegrand(e.tmap) for e in entries] if with_mc else []

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    plotdir = out / "plotdata"
    if mode != "embed":
        plotdir.mkdir(exist_ok=True)

    # phase 2: one simulation for every potential, on shared Brownian paths
    ensembles = [None] * len(entries)
    if with_mc:
        ensembles = simulate_embeddings(clarks, cfg.n_paths, cfg.n_steps,
                                        cfg.seed)

    # phase 3: checks, verdicts and outputs, entry by entry
    records = []
    summary = []
    all_ok = True
    single = len(specs) == 1
    for idx, (entry, ensemble) in enumerate(zip(entries, ensembles)):
        record, reports = _process_entry(entry, ensemble, cfg,
                                         with_verdicts=mode != "embed")
        slug = _slug(record["label"])
        if ensemble is not None:
            name = "ensemble.csv" if single else f"ensemble_{idx:02d}_{slug}.csv"
            ensemble.to_csv(out / name)
            record["ensemble_csv"] = name
            all_ok &= _ensemble_checks_pass(record)
        if mode != "embed":
            record["reports"] = [rep.to_json_dict() for rep in reports]
            for rep in record["reports"]:
                summary.extend(_summary_rows(rep))
            all_ok &= all(rep.all_passed for rep in reports)
            _write_csv(plotdir / f"transport_{slug}.csv",
                       ("x", "g", "g_prime", "sqrt_A"),
                       _transport_rows(entry.tmap))
        if mode in ("run", "sandwich") and ensemble is not None:
            rows, ok = _sandwich_rows(entry.tmap, ensemble, x_grid, cfg.p_list)
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
    return 0 if all_ok else 1


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
            ("verify", "quadrature-only verification (no Monte Carlo)"),
            ("sandwich", "residual local-time bound curves"),
            ("appendix", "slope-map measures only")):
        sp = sub.add_parser(name, help=help_txt)
        _add_common(sp)
        if name == "sandwich":
            sp.add_argument("--x-grid", type=float, nargs="+",
                            help="levels for the residual curves")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = _load_config(args)
        if args.command == "verify":
            cfg.n_paths = 0
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
