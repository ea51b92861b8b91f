"""Benchmark of the lipfree pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/lipfree``.  The
workloads are CLI configs in ``perfbench/workloads.json``; the seed is passed
to the pipeline with ``lipfree --seed``.  Each pipeline call runs in a fresh
worker process, with BLAS pinned to one thread, writing its report to a
temporary directory under ``.perfbench_tmp/`` that is removed at the end.

With ``--trace 0`` the runner times the set-up (a fresh ``import lipfree``,
several times), then runs pipeline calls until ``--seconds`` have passed
(at least one) and prints the end-to-end metrics as medians.  With
``--trace 1`` it runs pairs of calls, one untraced and one traced with the
wrappers of ``tracer.py``, and prints the per-layer metrics.

Every report is checked: each certificate must pass, ``lipfree verify`` must
agree with it, its (kind, verdict) pairs and headline values must match
``perfbench/reference.json``, and all reports of one run (same seed) must be
byte-identical.  The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` certificates and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A shared machine's speed can drift by a third over spells of seconds, and
# one batch of short samples sees only one spell.  So set-up is timed
# SETUP_REPEATS times before the pipeline calls and as many times after them;
# setup_s is the median of both batches.
SETUP_REPEATS = 6
# Every run must end within 180 s; no call starts that would likely end later.
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from scoring import score_report  # noqa: E402


def load_json(name: str):
    return json.loads((HERE / name).read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    # one string-hash layout for every process, so set and dict orders are
    # the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict, repeats: int, warm_up: bool) -> list[float]:
    """Wall time of a fresh process that imports lipfree; the warm-up run
    fills the bytecode cache and is not timed."""
    cmd = [sys.executable, "-c", "import lipfree"]
    if warm_up:
        subprocess.run(cmd, env=env, check=True)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or wrote no result."""


def _worker(request: dict, call_dir: Path, env: dict, deadline: float) -> dict:
    """Run worker.py on one request in a fresh process and return its result."""
    fd, name = tempfile.mkstemp(suffix=".json", dir=call_dir)
    os.close(fd)
    request_path = Path(name)
    result_path = request_path.with_suffix(".result")
    request_path.write_text(json.dumps(request))
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(request_path), str(result_path)],
            env=env, timeout=timeout, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{request['kind']} worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"{request['kind']} worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def run_call(spec: dict, seed: int, trace: bool, workdir: Path, env: dict,
             deadline: float) -> dict:
    """One pipeline call and one verify of its report, each in a fresh worker.

    Returns the pipeline result with the verify result and the report's size,
    digest and parsed payload, or {"error": ...} when a worker crashed or
    timed out or the pipeline exited non-zero.
    """
    call_dir = Path(tempfile.mkdtemp(prefix="call-", dir=workdir))
    config = call_dir / "config.json"
    config.write_text(json.dumps(spec["config"]))
    try:
        result = _worker({"kind": "pipeline", "pipeline": spec["pipeline"],
                          "config": str(config), "seed": seed,
                          "out_dir": str(call_dir / "out"), "trace": trace},
                         call_dir, env, deadline)
        if result["rc"] != 0:
            return {"error": f"lipfree exited {result['rc']}"}
        result.update(_worker({"kind": "verify", "report": result["report"]},
                              call_dir, env, deadline))
    except WorkerError as err:
        return {"error": str(err)}
    data = Path(result["report"]).read_bytes()
    result["report_bytes"] = len(data)
    result["digest"] = hashlib.sha256(data).hexdigest()
    result["payload"] = json.loads(data)
    return result


def score_call(call: dict, spec: dict, reference: dict | None, seed: int,
               first_digest: str | None) -> tuple[int, int, list[str]]:
    """Certificates attempted and failed in one call; a call that crashed or
    exited non-zero fails every certificate the reference expects of it.
    Drops the call's parsed payload once scored: a 30x30 report is about
    40 MB of JSON."""
    if "error" in call:
        expected = sum(n for _, _, n in reference["kinds"]) if reference else 1
        return expected, expected, [call["error"]]
    keys = list(spec.get("seed_independent", ()))
    if reference is not None and seed == spec["default_seed"]:
        keys = list(reference["headline"])
    attempted, failed, problems = score_report(
        call.pop("payload"), call["verify_lines"], call["verify_rc"],
        reference, spec["headline_rel_tol"], keys)
    if first_digest is not None and call["digest"] != first_digest:
        failed = attempted
        problems.append("report differs from the first report of this seed")
    return attempted, failed, problems


def run_workload(spec: dict, reference: dict | None, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload for the given time and return the metrics and checks."""
    began = time.perf_counter()
    env = child_env()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        setup = [] if trace else measure_setup(env, SETUP_REPEATS, warm_up=True)
        calls, traced = [], []
        attempted = failed = 0
        problems = []
        start = time.perf_counter()
        last = 0.0
        while not calls or time.perf_counter() - start < seconds:
            if calls and RUN_DEADLINE_S - (time.perf_counter() - began) < 1.5 * last:
                break
            t0 = time.perf_counter()
            for traced_call in ((False, True) if trace else (False,)):
                call = run_call(spec, seed, traced_call, workdir, env,
                                began + RUN_DEADLINE_S)
                first = next((c["digest"] for c in calls if "digest" in c), None)
                a, f, p = score_call(call, spec, reference, seed, first)
                attempted, failed = attempted + a, failed + f
                problems += [f"call {len(calls)}: {msg}" for msg in p]
                calls.append(call)
                if traced_call:
                    traced.append(call)
            last = time.perf_counter() - t0
            if any("error" in c for c in calls):
                break
        if not trace:
            setup += measure_setup(env, SETUP_REPEATS, warm_up=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tmp_root.exists() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    ok = [c for c in calls if "error" not in c]
    samples = {}
    if ok and not trace:
        samples = {
            "setup_s": setup,
            "report_s": [c["report_s"] for c in ok],
            "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
        }
    elif ok and trace and len(ok) == len(calls):
        untraced = [c for c in ok if "layers" not in c]
        for key in traced[0]["layers"]:
            samples[key] = [c["layers"][key] for c in traced]
        samples["cli.report_bytes"] = [c["report_bytes"] for c in traced]
        # fastest of the run's verifies: its reports are byte-identical
        samples["cli.verify_s"] = [min(c["verify_s"] for c in ok)]
        samples["trace.overhead_ratio"] = [
            statistics.median([c["report_s"] for c in traced])
            / statistics.median([c["report_s"] for c in untraced]) - 1.0]
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "samples": samples, "calls": len(calls)}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lipfree" / "__init__.py").is_file():
        print(f"error: no lipfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = load_json("workloads.json")["workloads"]
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(specs)}",
              file=sys.stderr)
        return 2
    spec = specs[args.workload]
    reference = load_json("reference.json").get(args.workload)

    result = run_workload(spec, reference, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, {result['calls']} pipeline calls, "
          f"trace {'on' if args.trace else 'off'}")
    metrics = emit(bench["per_layer" if args.trace else "end_to_end"], result)
    print(f"  fail_ratio {result['failed']}/{result['attempted']} certificates")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if metrics is None:
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def emit(wanted: list[dict], result: dict) -> dict | None:
    """Print each wanted metric with its unit and sample count; return the
    name -> {value, unit} map, or None when a metric has no measurement."""
    metrics = {}
    for m in wanted:
        values = result["samples"].get(m["name"])
        if not values:
            print(f"error: no measurement for {m['name']}", file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print(f"  {m['name']:<48} {statistics.median(values):>14.6g} {m['unit']:<6} "
              f"median of {len(values)}")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
