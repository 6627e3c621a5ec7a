"""Benchmark of the blverify command line.

    python3 blbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; blverify is imported from ``src/`` there,
so nothing needs installing.  The load is a closed loop: one CLI process at
a time, each started after the previous one exited, with
``BL_EMBED_THREADS`` removed from its environment so that the default worker
count is what gets measured.  Runs repeat while the next one is expected to
end within S seconds, and at least twice, so that every output digest can be
compared with a repeat.  Inputs (config JSON and CLI flags) are generated
from N into a temporary working directory under the checkout, which is
removed at the end.

Workloads (each stresses a different layer, so a gain in one layer shows on
one workload and is predicted to leave another unchanged):

matrix-run    ``run --matrix default`` with three 4096-path blocks per
              potential: simulation (about half the time), Clark grid and
              ensemble-CSV writing dominate, quadrature does little.
verify-sweep  ``verify`` of the six matrix potentials at A = 4 against eight
              psis and five p values, with ``improved_alpha`` on the
              log-mixture: all quadrature, never enters the simulator.
embed-long    ``embed`` of one convex and one slope-map potential with one
              4096-path block and 8x the default steps: per-step overhead,
              no parallelism across blocks, the largest increment array.
              Its psis include two given by explicit psi'' data, whose Monte
              Carlo cross-check integrates psi sample by sample.

With ``--trace 0`` the result holds the end-to-end metrics: median wall time
of one CLI run, median set-up time (imports plus config validation, taken
from the runs and from extra set-up-only processes), median peak RSS, and
the share of runs that succeeded (1 - error rate).  The two times are scaled
by the machine's speed, gauged between runs with a fixed reference job (see
``reference.py``); the unscaled medians are printed as well.  With ``--trace 1``
untraced and traced runs (see ``tracer.py``) alternate, and the result holds
per-layer self times, call counts, exact counters and the tracing overhead.

A run fails when its exit status is not 0, when ``report.json`` says
``all_passed`` is false, or when the sha256 of ``report.json``,
``summary.csv`` or any ensemble CSV differs from the first run of the
invocation (traced runs included).  Exact counters that differ between
traced runs, or a wrapped name left patched, make the result incorrect.
The last line of standard output is the JSON result; the exit status is 0
only when it is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".blbench_work"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402

MIN_REPEATS = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0       # the whole invocation must end within 180 s
REF_SHARE = 0.3          # reference-job time per second of CLI time
REF_NOMINAL_S = 0.39     # about its median time on the baseline machine

# Program RNG seeds of the Monte Carlo workloads.  Their ensemble checks are
# statistical tests (Kolmogorov-Smirnov at the 1% level, 3-sigma bands), so
# a share of all seeds fails them by design.  Each seed below passed every
# check at the sizes below when the benchmark was introduced; the benchmark
# seed picks one of them.
PROGRAM_SEEDS = {
    "matrix-run": [*range(14), 15, 16],
    "embed-long": list(range(16)),
}

MATRIX_PATHS = 3 * 4096
EMBED_PATHS, EMBED_STEPS = 4096, 8 * 2048

MATRIX_POTENTIALS = [
    {"family": "zero"},
    {"family": "linear", "params": {"c": 1.0}},
    {"family": "quadratic", "params": {"c": 1.0}},
    {"family": "abs", "params": {"c": 1.0}},
    {"slope_map": {"name": "cubic"}},
    {"slope_map": {"name": "log_mixture",
                   "params": {"p": 0.5, "q": 0.7071067811865476,
                              "a": 1.0, "b": 2.0}},
     "beta": 2.0, "improved_alpha": 1.0},
]

# Explicit psi'' data: kinks plus a polynomial density, for which the
# Monte Carlo cross-check integrates psi by quadrature sample by sample.
DATA_PSIS = [
    {"label": "data_kinks_linear", "atoms": [[-0.75, 0.5], [1.25, 1.5]],
     "density_poly_coeffs": [0.5, 0.25]},
    {"label": "data_atom_quadratic", "atoms": [[0.0, 1.0]],
     "density_poly_coeffs": [1.0, 0.0, 0.3]},
]


def _program_seed(workload: str, seed: int) -> int:
    pool = PROGRAM_SEEDS[workload]
    return pool[seed % len(pool)]


def _random_psi(rng: random.Random, template: dict) -> dict:
    """``template`` with locations, masses and coefficients drawn within
    +-50% of its own, keeping its shape (and so its cost)."""
    def draw(x):
        return round(x * rng.uniform(0.5, 1.5), 4)
    return {"label": template["label"],
            "atoms": [[draw(loc), draw(mass)] for loc, mass in template["atoms"]],
            "density_poly_coeffs": [draw(c) for c in
                                    template["density_poly_coeffs"]]}


def matrix_run(seed: int):
    argv = ["run", "--matrix", "default",
            "--seed", str(_program_seed("matrix-run", seed)),
            "--paths", str(MATRIX_PATHS), "--out", "out"]
    return argv, None


def verify_sweep(seed: int):
    rng = random.Random(seed)
    p_list = [round(lo + rng.uniform(0.0, 0.5), 4)
              for lo in (1.1, 1.7, 2.4, 3.2, 4.5)]
    config = {
        "potentials": MATRIX_POTENTIALS,
        "A": 4.0,
        "psis": ["abs", "square", {"power": 3}, {"power": 5}, {"call": 1.0},
                 {"corridor": 1.0},
                 *(_random_psi(rng, psi) for psi in DATA_PSIS)],
        "p_list": p_list,
        "n_paths": 0,
    }
    return ["verify", "--config", "config.json", "--out", "out"], config


def embed_long(seed: int):
    rng = random.Random(seed)
    config = {
        "potentials": [{"family": "abs", "params": {"c": 1.0}},
                       {"slope_map": {"name": "cubic"}}],
        "psis": ["abs", *(_random_psi(rng, psi) for psi in DATA_PSIS)],
        "n_paths": EMBED_PATHS,
        "n_steps": EMBED_STEPS,
        "seed": _program_seed("embed-long", seed),
    }
    return ["embed", "--config", "config.json", "--out", "out"], config


WORKLOADS = {
    "matrix-run": matrix_run,
    "verify-sweep": verify_sweep,
    "embed-long": embed_long,
}


# ---------------------------------------------------------------------------
# one CLI process
# ---------------------------------------------------------------------------

class Invocation:
    """Working directory, child environment and deadline of one benchmark run."""

    def __init__(self, workdir: Path, argv: list[str]):
        self.workdir = workdir
        self.argv = argv
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("BL_EMBED_THREADS", None)
        self.digests = None       # output digests of the first CLI run
        self.ref_s: list[float] = []  # reference-job times
        self._ref_worker = None

    def close(self) -> None:
        """End the reference-job worker, if one was started."""
        if self._ref_worker is not None:
            self._ref_worker.stdin.close()
            try:
                self._ref_worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._ref_worker.kill()
                self._ref_worker.wait()

    def child(self, flags: list[str]) -> dict:
        """Run child.py once; wall time, peak RSS and CPU come from wait4."""
        result_file = self.workdir / "child.json"
        cmd = [sys.executable, str(CHILD), str(result_file), *flags, "--",
               *self.argv]
        with open(self.workdir / "child.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(
                max(self.deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = {"rc": proc.returncode, "wall_s": wall,
               "rss_mb": usage.ru_maxrss / 1024.0,
               "cpu_s": usage.ru_utime + usage.ru_stime}
        if result_file.exists():
            run.update(json.loads(result_file.read_text()))
            result_file.unlink()
        return run

    def cli_run(self, trace: bool) -> dict:
        """One CLI run with its correctness verdict and output digests."""
        run = self.child(["--trace"] if trace else [])
        out = self.workdir / "out"
        run["digests"] = _digests(out) if out.is_dir() else {}
        problems = []
        if run["rc"] != 0:
            problems.append(f"exit status {run['rc']}")
        if "setup_s" not in run:
            problems.append("no child result")
        if self.argv[0] != "embed":
            report = out / "report.json"
            if not report.is_file():
                problems.append("no report.json")
            elif json.loads(report.read_text()).get("all_passed") is not True:
                problems.append("all_passed is false")
        if not run["digests"]:
            problems.append("no outputs")
        if self.digests is None:
            self.digests = run["digests"]
        elif run["digests"] != self.digests:
            problems.append("output digests differ from the first run")
        if trace and not run.get("trace", {}).get("restored", False):
            problems.append("a wrapped name was not restored")
        if problems:
            log = (self.workdir / "child.log").read_text()[-2000:]
            print(f"run failed ({'; '.join(problems)}):\n{log}",
                  file=sys.stderr)
        run["failed"] = bool(problems)
        shutil.rmtree(out, ignore_errors=True)
        return run

    def reference_job(self) -> float:
        """Run the job of ``reference.py`` once in its worker; its time."""
        if self._ref_worker is None:
            self._ref_worker = subprocess.Popen(
                [sys.executable, str(HERE / "reference.py")],
                cwd=self.workdir, env=self.env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._ref_worker.stdin.write("\n")
        self._ref_worker.stdin.flush()
        answer = self._ref_worker.stdout.readline()
        if not answer:
            raise RuntimeError("the reference-job worker exited")
        return float(answer)

    def gauge(self, busy_s: float) -> None:
        """Time the reference job for about REF_SHARE of ``busy_s``."""
        for _ in range(math.ceil(REF_SHARE * busy_s / REF_NOMINAL_S)):
            self.ref_s.append(self.reference_job())

    def speed_factor(self) -> float:
        """Nominal over measured reference time: below 1 on a slow machine."""
        return REF_NOMINAL_S / median(self.ref_s)

    def repeat(self, kinds: tuple, seconds: float,
               gauge: bool = False) -> list[list]:
        """Closed loop of rounds, each one CLI run per entry of ``kinds``
        (True means traced), followed by the reference job when ``gauge``.
        Another round starts while it is expected to end within
        ``seconds``; at least MIN_REPEATS rounds."""
        start = time.perf_counter()
        rounds = []
        while len(rounds) < MIN_REPEATS or (
                time.perf_counter() - start
                + median(sum(r["wall_s"] for r in rnd) for rnd in rounds)
                <= seconds):
            if time.perf_counter() > self.deadline:
                break
            rounds.append([self.cli_run(trace) for trace in kinds])
            if gauge:
                self.gauge(sum(r["wall_s"] for r in rounds[-1]))
        return rounds


def _digests(out: Path) -> dict:
    names = sorted(p.name for p in out.iterdir()
                   if p.name in ("report.json", "summary.csv")
                   or (p.name.startswith("ensemble") and p.suffix == ".csv"))
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(inv: Invocation, runs: list) -> dict:
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < inv.deadline:
        sample = inv.child(["--setup-only"])
        setups.append(sample["setup_s"])
        inv.gauge(sample["wall_s"])
    wall, setup = median(r["wall_s"] for r in runs), median(setups)
    factor = inv.speed_factor()
    print(f"reference job: median {median(inv.ref_s):.4f} s of "
          f"{len(inv.ref_s)}, nominal {REF_NOMINAL_S} s, "
          f"speed factor {factor:.4f}")
    print(f"unscaled medians: wall_s {wall:.4f} s, setup_s {setup:.4f} s")
    failed = sum(r["failed"] for r in runs)
    return {
        "wall_s": (wall * factor, "s"),
        "setup_s": (setup * factor, "s"),
        "peak_rss_mb": (median(r["rss_mb"] for r in runs), "MB"),
        "success_rate": (1.0 - failed / len(runs), "ratio"),
    }


def _exact_count_mismatches(traced: list) -> list[str]:
    def exact(run):
        t = run["trace"]
        return {**{f"{k}.calls": v for k, v in t["calls"].items()},
                **{k: t["counts"].get(k, 0) for k in tracing.EXACT_COUNTS}}
    first = exact(traced[0])
    out = []
    for run in traced[1:]:
        other = exact(run)
        out += [f"{k}: {first.get(k)} != {other.get(k)}"
                for k in sorted(set(first) | set(other))
                if first.get(k) != other.get(k)]
    return out


def per_layer(untraced: list, traced: list) -> dict:
    spans = [r["trace"] for r in traced]
    calls = spans[0]["calls"]
    counts = spans[0]["counts"]
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (
            median(s["self_s"].get(layer, 0.0) for s in spans), "s")
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    path_steps = counts.get("bass_embedding.simulate.path_steps", 0)
    sim_s = m["bass_embedding.simulate.self_s"][0]
    m["bass_embedding.simulate.path_steps"] = (path_steps, "count")
    m["bass_embedding.simulate.ns_per_path_step"] = (
        sim_s * 1e9 / path_steps if path_steps else 0.0, "ns")
    m["bass_embedding.simulate.clamp_count"] = (
        counts.get("bass_embedding.simulate.clamp_count", 0), "count")
    m["transport.edges"] = (counts.get("transport.edges", 0), "count")
    m["transport.extrapolation_count"] = (spans[0]["extrapolation_count"],
                                          "count")
    m["verifier.mc_crosscheck.samples"] = (
        counts.get("verifier.mc_crosscheck.samples", 0), "count")
    m["cli.ensemble_csv.bytes"] = (
        counts.get("cli.ensemble_csv.bytes", 0), "bytes")
    m["cli.other_s"] = (median(s["self_s"]["cli.other"] for s in spans), "s")
    m["proc.wall_s"] = (median(r["wall_s"] for r in traced), "s")
    m["proc.cpu_s"] = (median(r["cpu_s"] for r in traced), "s")
    m["proc.cpu_util"] = (median(r["cpu_s"] / r["wall_s"] for r in traced),
                          "ratio")
    m["proc.import_s"] = (median(r["setup_s"] for r in traced), "s")
    m["proc.unattributed_s"] = (median(
        r["wall_s"] - r["setup_s"] - r["trace"]["root_s"] for r in traced),
        "s")
    m["trace.overhead_s"] = (median(t["wall_s"] - u["wall_s"]
                                    for u, t in zip(untraced, traced)), "s")
    return m


# ---------------------------------------------------------------------------
# one benchmark invocation
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def benchmark(args, workdir: Path) -> tuple[dict, list, bool]:
    argv, config = WORKLOADS[args.workload](args.seed)
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config, indent=1))
    inv = Invocation(workdir, argv)
    try:
        return _measure(args, inv, config)
    finally:
        inv.close()


def _measure(args, inv: Invocation, config) -> tuple[dict, list, bool]:
    workdir, argv = inv.workdir, inv.argv
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"blverify {' '.join(argv)}")
    if config is not None:
        print(f"config {json.dumps(config, sort_keys=True)}")

    # untimed: fills the page cache and writes byte-code for this checkout
    warm = inv.child(["--setup-only"])
    if warm["rc"] != 0 or "versions" not in warm:
        raise RuntimeError("blverify could not be imported: "
                           + (workdir / "child.log").read_text()[-2000:])
    env = {"python": platform.python_version(), **warm["versions"],
           "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "BL_EMBED_THREADS": "unset"}
    print(f"env {json.dumps(env, sort_keys=True)}")

    correct = True
    if args.trace:
        # untraced and traced runs alternate, so that their difference,
        # the tracing overhead, is taken under the same machine load
        rounds = inv.repeat((False, True), args.seconds)
        untraced = [rnd[0] for rnd in rounds]
        traced = [rnd[1] for rnd in rounds]
        runs = untraced + traced
        if any("trace" not in r for r in traced):
            raise RuntimeError("a traced run left no spans")
        mismatches = _exact_count_mismatches(traced)
        if mismatches:
            correct = False
            print("FAIL: exact counts differ between traced runs:\n  "
                  + "\n  ".join(mismatches), file=sys.stderr)
        metrics = per_layer(untraced, traced)
        layers_s = sum(metrics[f"{layer}.self_s"][0]
                       for layer in tracing.LAYERS)
        print("traced wall_s (medians): "
              f"{metrics['proc.wall_s'][0]:.3f} = import "
              f"{metrics['proc.import_s'][0]:.3f} + layer self times "
              f"{layers_s:.3f} + cli.other_s {metrics['cli.other_s'][0]:.3f}"
              f" + unattributed {metrics['proc.unattributed_s'][0]:.3f}")
    else:
        inv.reference_job()    # untimed: starts the worker, pays page faults
        runs = [rnd[0] for rnd in
                inv.repeat((False,), args.seconds, gauge=True)]
        metrics = end_to_end(inv, runs)

    for name, digest in sorted((inv.digests or {}).items()):
        print(f"digest {name} {digest}")
    print(f"runs {len(runs)}: wall_s "
          + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    failed = sum(r["failed"] for r in runs)
    print(f"error_rate {failed / len(runs):g} ratio "
          f"({failed} of {len(runs)} runs failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            runs, correct and failed == 0)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds, so the running child is killed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blverify" / "cli.py").is_file():
        print(f"error: no blverify sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracing.self_test()
    signal.signal(signal.SIGTERM, _terminate)

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        metrics, runs, correct = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
