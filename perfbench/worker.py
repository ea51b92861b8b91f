"""One lipfree CLI call in a fresh process, timed; the runner starts it.

    python3 perfbench/worker.py REQUEST.json RESULT.json

A request of kind "pipeline" runs one pipeline call, optionally traced, and
returns report_s (from reading the config to writing the report, that is,
one ``lipfree.cli.main`` call), the report path and the process's peak
resident memory.  A request of kind "verify" runs ``lipfree verify`` on a
report once and returns its time, exit code and the lines it printed.  Each
call gets a fresh process, so no heap state of one call changes the time of
the next.
"""

import os

# Pinned before numpy is imported, so BLAS runs on one thread in every call.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _timed_cli(argv):
    """Run lipfree.cli.main(argv) with stdout captured; return (rc, seconds, lines)."""
    main = sys.modules["lipfree.cli"].main
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, time.perf_counter() - start, buf.getvalue().splitlines()


def run_pipeline(request: dict) -> dict:
    from tracer import Tracer, layer_metrics

    argv = ["--seed", str(request["seed"]), "--out-dir", request["out_dir"],
            request["pipeline"], request["config"]]
    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install()
    try:
        rc, report_s, _ = _timed_cli(argv)
    finally:
        if tracer:
            tracer.uninstall()
    reports = sorted(Path(request["out_dir"]).glob("*.json"))
    if len(reports) != 1:
        raise RuntimeError(f"expected one report, found {len(reports)}")
    result = {
        "rc": rc,
        "report": str(reports[0]),
        "report_s": report_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.summary())
    return result


def run_verify(request: dict) -> dict:
    rc, seconds, lines = _timed_cli(["verify", request["report"]])
    return {"verify_rc": rc, "verify_s": seconds,
            "verify_lines": [line for line in lines
                             if not line.endswith(" certificates pass")]}


def main(argv) -> int:
    request_path, result_path = argv
    request = json.loads(Path(request_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import lipfree.cli

    if Path(lipfree.cli.__file__).resolve().parent != ROOT / "src" / "lipfree":
        raise RuntimeError(f"imported lipfree from {lipfree.cli.__file__}, not this checkout")
    run = run_pipeline if request["kind"] == "pipeline" else run_verify
    Path(result_path).write_text(json.dumps(run(request)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
