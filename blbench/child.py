"""One blverify invocation, timed from inside the process.

    python3 blbench/child.py RESULT.json [--setup-only | --trace] -- CLI-ARGS...

Set-up time runs from this file's first statement until ``blverify.cli`` is
imported and the experiment config named in CLI-ARGS (``--config PATH`` or
``--matrix default``) is validated.  The rest calls ``blverify.cli.main``
with CLI-ARGS, exactly as the ``blverify`` console script does.  With
``--trace`` the call runs under :mod:`tracer`, inside a root span whose self
time is the CLI's own work outside every wrapped layer.  RESULT.json gets the
timings, the exit status and, when traced, the spans; the process exits with
the CLI's status.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

from blverify import cli  # noqa: E402


def _validated_config(argv):
    if "--matrix" in argv:
        return cli.default_matrix_config()
    path = Path(argv[argv.index("--config") + 1])
    return cli.ExperimentConfig.from_dict(json.loads(path.read_text()))


def main() -> int:
    result_path, *flags = sys.argv[1:sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1:]
    _validated_config(argv)
    result = {"setup_s": time.perf_counter() - _T0}

    if "--setup-only" in flags:
        import numpy
        import scipy
        result["versions"] = {"numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        rc = 0
    elif "--trace" in flags:
        sys.path.insert(0, str(_HERE))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.blverify_targets())
        tracer.enter("cli.other")
        try:
            rc = cli.main(argv)
        finally:
            root_s = tracer.exit()
            restored = tracer.uninstall()
        result["trace"] = {
            "root_s": root_s,
            "restored": restored,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "extrapolation_count": sum(
                t.extrapolation_count for t in tracer.transports),
        }
    else:
        rc = cli.main(argv)

    Path(result_path).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
