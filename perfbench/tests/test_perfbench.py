"""Tests of the benchmark itself, on the 9-point 1D extend config.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import scoring  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "pipeline": "extend",
    "default_seed": 11,
    "config": {
        "space": {"generator": "grid", "dims": [9], "spacing": 0.125, "ground": "linf"},
        "eps_schedule": [0.25], "seed": 11,
        "perturbations": {"count": 1},
    },
    "headline_rel_tol": 1e-9,
    "seed_independent": ["operator_norm", "adapted_sup_distance"],
}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_main(monkeypatch, trace):
    real = run.load_json
    monkeypatch.setattr(run, "load_json", lambda name: (
        {"workloads": {"tiny": TINY}} if name == "workloads.json" else real(name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "tiny", "--seed", "11", "--seconds", "0",
                       "--trace", str(trace)])
    assert rc == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _call(tmp_path, trace, seed=11):
    call = run.run_call(TINY, seed, trace, tmp_path, run.child_env(),
                        time.perf_counter() + 120.0)
    assert "error" not in call, call
    return call


def _verify(path):
    import lipfree.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lipfree.cli.main(["verify", str(path)])
    lines = [line for line in out.getvalue().splitlines()
             if not line.endswith(" certificates pass")]
    return lines, rc


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(monkeypatch, trace, section):
    result = _run_main(monkeypatch, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _benchmark()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    plain = _call(tmp_path, False)
    traced = _call(tmp_path, True)
    assert "layers" in traced and "layers" not in plain
    assert traced["layers"]["spaces.validate_metric.calls"] >= 1
    assert Path(plain["report"]).read_bytes() == Path(traced["report"]).read_bytes()


def test_forged_verdict_raises_failures(tmp_path):
    call = _call(tmp_path, False)
    payload = call["payload"]
    reference = scoring.reference_entry(payload)
    keys = list(reference["headline"])
    lines, rc = _verify(call["report"])
    attempted, failed, problems = scoring.score_report(payload, lines, rc, reference, 1e-9, keys)
    assert failed == 0 and not problems and attempted > 0

    forged = json.loads(json.dumps(payload))
    cert = next(scoring.iter_certificates(forged))
    cert["passed"] = not cert["passed"]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forged))
    lines, rc = _verify(path)
    assert rc == 1
    _, failed, problems = scoring.score_report(forged, lines, rc, reference, 1e-9, keys)
    assert failed >= 1 and problems


def test_headline_drift_counts_as_failure(tmp_path):
    call = _call(tmp_path, False)
    payload = call["payload"]
    reference = scoring.reference_entry(payload)
    lines, rc = _verify(call["report"])
    payload["perturbed"][0]["norm"] *= 1.0 + 1e-6
    _, failed, problems = scoring.score_report(payload, lines, rc, reference, 1e-9,
                                               list(reference["headline"]))
    assert failed == 1 and "perturbed_norm.0" in problems[0]


def test_reports_of_one_seed_must_match(tmp_path):
    first = _call(tmp_path, False)
    other = _call(tmp_path, False, seed=12)
    reference = scoring.reference_entry(first["payload"])
    attempted, failed, problems = run.score_call(other, TINY, reference, 12, first["digest"])
    assert failed == attempted and "differs" in problems[-1]


def test_crashed_call_fails_every_expected_certificate():
    reference = {"kinds": [["net-cover", True, 2], ["perturbed-operator-norm", True, 3]],
                 "headline": {}}
    assert run.score_call({"error": "boom"}, TINY, reference, 11, None) == (5, 5, ["boom"])


def test_tracer_wraps_every_binding_and_restores_it():
    import lipfree
    from lipfree import covers, extension, freenorm, gluing, spaces

    original = spaces.validate_metric
    brick = covers.brick_cover
    tracer = Tracer()
    tracer.install()
    try:
        for module in (spaces, freenorm, extension, gluing, lipfree):
            assert module.validate_metric is not original
        assert covers.build_net_cover.__wrapped__.__defaults__[0] is not brick
        space = lipfree.make_grid_space([3, 3], 0.5)
        covers.build_net_cover(space, 0.9)
    finally:
        tracer.uninstall()
    for module in (spaces, freenorm, extension, gluing, lipfree):
        assert module.validate_metric is original
    assert covers.build_net_cover.__defaults__[0] is brick

    names = {span[0] for span in tracer.spans}
    # the constructor reaches validate_metric through require_metric, and the
    # net cover calls brick_cover through a default argument
    assert {"spaces.require_metric", "spaces.validate_metric", "covers.brick_cover"} <= names
    by_index = tracer.spans
    validate = next(s for s in by_index if s[0] == "spaces.validate_metric")
    assert by_index[validate[3]][0] == "spaces.require_metric"


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "extend-13x13-lp",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
