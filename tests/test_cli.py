import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import lipfree as lf
from conftest import (count_solves, floyd_warshall_serial, json_dump_of_lists,
                      min_plus_excess_by_via, molecule_norms_by_pairs, sweeps_of)
from lipfree import cli, extension, freenorm, gluing, spaces
from lipfree.cli import _write_json, main
from lipfree.config import PIPELINES


WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "workloads.json").read_text())["workloads"]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def grid_space_json(dims, spacing):
    return {"generator": "grid", "dims": dims, "spacing": spacing, "ground": "linf"}


class TestBuildCover:
    def test_writes_cover_and_verifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([17], 1 / 16), "eps": 0.25, "seed": 0,
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "build-cover", cfg])
        assert rc == 0
        files = list((tmp_path / "out").glob("cover-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["cover"]["net"][0] == 0
        assert payload["space"] == grid_space_json([17], 1 / 16)
        assert all(c["passed"] for c in payload["certificates"])


class TestExtendPipeline:
    def test_three_eps_schedule(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([17], 1 / 16),
            "eps_schedule": [0.25, 0.125],
            "seed": 3,
            "perturbations": {"count": 2},
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "extend", cfg])
        assert rc == 0
        files = sorted((tmp_path / "out").glob("extend-*.json"))
        assert len(files) == 2
        payload = json.loads(files[0].read_text())
        assert payload["bundle"]["operator_norm"] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["perturbed"]) == 2

    def test_nu_n_mapping(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8),
            "nu": 1.0, "n_schedule": [2], "seed": 0,
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "extend", cfg])
        assert rc == 0
        payload = json.loads(next((tmp_path / "out").glob("extend-*.json")).read_text())
        assert payload["eps"] == min(1.0 / 4.0, 1.0 / 20.0)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8),
            "eps_schedule": [0.25], "seed": 11,
            "perturbations": {"count": 1},
        })
        main(["--out-dir", str(tmp_path / "a"), "extend", cfg])
        main(["--out-dir", str(tmp_path / "b"), "extend", cfg])
        a = next((tmp_path / "a").glob("*.json")).read_bytes()
        b = next((tmp_path / "b").glob("*.json")).read_bytes()
        assert a == b

    def test_tol_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8),
            "eps_schedule": [0.25], "seed": 0, "tol": 0.5,
        })
        assert main(["--out-dir", str(tmp_path / "out"), "extend", cfg]) == 2
        assert "'tol'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tol_flag_removed(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8), "eps_schedule": [0.25], "seed": 0,
        })
        with pytest.raises(SystemExit):
            main(["--tol", "0.5", "--out-dir", str(tmp_path / "out"), "extend", cfg])

    def test_bap_command_removed(self, tmp_path):
        # its table was this pipeline staged by (nu, n_schedule)
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8), "nu": 1.0, "n_schedule": [1, 2],
        })
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path / "out"), "bap", cfg])
        assert exc.value.code == 2
        assert "bap" not in PIPELINES
        assert importlib.util.find_spec("lipfree.bap") is None

    def test_nonfinite_inline_metric_rejected(self, tmp_path, capsys):
        nan = float("nan")
        cfg = write_config(tmp_path, "c.json", {
            "space": {"points": ["a", "b", "c"],
                      "metric": [[0, nan, 1], [nan, 0, 1], [1, 1, 0]]},
            "eps_schedule": [0.25], "seed": 0,
        })
        assert "NaN" in open(cfg).read()
        assert main(["--out-dir", str(tmp_path / "out"), "extend", cfg]) == 2
        assert "nonfinite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [("build-cover", {"eps": 0.25}),
                                                ("extend", {"eps_schedule": [0.25], "seed": 0})])
    def test_one_ulp_asymmetric_inline_metric_exits_2(self, tmp_path, capsys, command, extra):
        # the door admits only a metric equal to its transpose, to the last bit
        metric = [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [np.nextafter(1.0, 2.0), 0.5, 0.0]]
        space = {**INLINE_LINE, "metric": metric, "coords": [[0], [1], [2]]}
        exits_2_naming(tmp_path, capsys, command, {"space": space, **extra}, "symmetry at (0, 2)")

    def test_missing_seed_for_random_step(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8),
            "eps_schedule": [0.25],
            "perturbations": {"count": 1},
        })
        assert main(["--out-dir", str(tmp_path / "out"), "extend", cfg]) == 2


class TestGluePipeline:
    def test_line_core_run(self, tmp_path):
        space = grid_space_json([6, 6], 1 / 6)
        k = [i * 6 for i in range(6)]      # second coordinate zero
        cfg = write_config(tmp_path, "c.json", {
            "space": space, "k": k, "dim_k": 1,
            "thresholds": [4 / 6, 3 / 6, 2 / 6, 1 / 6],
            "n": 1, "eps": 0.6, "seed": 5,
            "probes": {"count": 2},
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "glue", cfg])
        assert rc == 0
        payload = json.loads(next((tmp_path / "out").glob("glue-*.json")).read_text())
        assert payload["m"] >= payload["n"]
        assert all(c["passed"] for p in payload["probes"] for c in p["certificates"])
        for probe in payload["probes"]:
            assert set(probe) == {"index", "norm", "metric_changes", "operator",
                                  "certificates"}
        assert payload["bound"] == lf.glued_norm_bound(1)
        assert payload["net"][0] in payload["domain"]
        assert not any(c["warning"] for c in payload["certificates"])
        assert not any(c["warning"] for p in payload["probes"] for c in p["certificates"])

    def test_full_core_fallback(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([5], 1 / 5),
            "k": [0, 1, 2, 3, 4], "dim_k": 1,
            "thresholds": [0.5], "n": 1, "eps": 0.5, "seed": 0,
            "probes": {"count": 1},
        })
        assert main(["--out-dir", str(tmp_path / "out"), "glue", cfg]) == 0

    def test_probe_at_boundary_rejected(self, tmp_path):
        # amplitude beyond the admission radius fails the first certificate
        space = grid_space_json([6, 6], 1 / 6)
        k = [i * 6 for i in range(6)]
        cfg = write_config(tmp_path, "c.json", {
            "space": space, "k": k, "dim_k": 1,
            "thresholds": [4 / 6, 3 / 6, 2 / 6, 1 / 6],
            "n": 1, "eps": 0.6, "seed": 5,
            "probes": {"count": 2, "amplitude": 40.0},
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "glue", cfg])
        assert rc == 1
        payload = json.loads(next((tmp_path / "out").glob("glue-*.json")).read_text())
        first, second = (p["certificates"] for p in payload["probes"])
        assert all(c["passed"] for c in first)       # the unperturbed probe
        assert not all(c["passed"] for c in second)


class TestPerturbAndVerify:
    def test_perturb_writes_metrics(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([5], 0.25),
            "amplitude": 0.05, "count": 2, "seed": 9,
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "perturb", cfg])
        assert rc == 0
        files = list((tmp_path / "out").glob("perturb-9-*.json"))
        assert len(files) == 2
        for f in files:
            payload = json.loads(f.read_text())
            assert payload["sup_distance"] <= 0.05 + 1e-12

    def test_perturb_report_serves_as_a_space(self, tmp_path):
        # the inline spec table lists the report's sup_distance, so the
        # report is a space spec as it stands
        cfg = write_config(tmp_path, "c.json", PERTURB_LINE)
        assert main(["--out-dir", str(tmp_path / "out"), "perturb", cfg]) == 0
        report = json.loads(next((tmp_path / "out").glob("perturb-9-*.json")).read_text())
        space = lf.space_from_json(report)
        assert space.dist.tolist() == report["metric"]
        cfg = write_config(tmp_path, "again.json", {**PERTURB_LINE, "space": report})
        assert main(["--out-dir", str(tmp_path / "again"), "perturb", cfg]) == 0

    def test_perturb_report_of_a_grid_is_covered(self, tmp_path):
        # a probe keeps the grid's points, so its report keeps their lattice
        # coordinates, which brick covers need
        grid = grid_space_json([3, 3], 0.25)
        cfg = write_config(tmp_path, "c.json", {**PERTURB_LINE, "space": grid})
        assert main(["--out-dir", str(tmp_path / "out"), "perturb", cfg]) == 0
        report = json.loads(next((tmp_path / "out").glob("perturb-9-*.json")).read_text())
        assert report["coords"] == lf.space_from_json(grid).coords.tolist()
        for command, entry in (("build-cover", {"eps": 0.5}),
                               ("extend", {"eps_schedule": [0.5]})):
            path = write_config(tmp_path, f"{command}.json", {"space": report, "seed": 0, **entry})
            assert main(["--out-dir", str(tmp_path / command), command, path]) == 0, command

    def test_verify_rejects_a_report_without_certificates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([5], 0.25), "amplitude": 0.05, "count": 1, "seed": 9,
        })
        assert main(["--out-dir", str(tmp_path / "out"), "perturb", cfg]) == 0
        report = str(next((tmp_path / "out").glob("perturb-9-*.json")))
        capsys.readouterr()
        assert main(["verify", report]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: no certificates found in {report}\n"

    def test_verify_accepts_valid_report(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8), "eps": 0.25, "seed": 0,
        })
        main(["--out-dir", str(tmp_path / "out"), "build-cover", cfg])
        report = next((tmp_path / "out").glob("cover-*.json"))
        assert main(["verify", str(report)]) == 0

    def test_verify_rejects_tampered_report(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8), "eps": 0.25, "seed": 0,
        })
        main(["--out-dir", str(tmp_path / "out"), "build-cover", cfg])
        report = next((tmp_path / "out").glob("cover-*.json"))
        payload = json.loads(report.read_text())
        payload["certificates"][0]["measured"] = 99.0    # forged value
        report.write_text(json.dumps(payload))
        assert main(["verify", str(report)]) == 1

    def test_verify_rejects_a_string_verdict(self, tmp_path, capsys):
        # bool("false") is True: read leniently, this record verified as a pass
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([9], 1 / 8), "eps": 0.25, "seed": 0,
        })
        main(["--out-dir", str(tmp_path / "out"), "build-cover", cfg])
        report = next((tmp_path / "out").glob("cover-*.json"))
        payload = json.loads(report.read_text())
        payload["certificates"][0].update(passed="false", warning=False)
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(report)]) == 2
        assert "error:" in capsys.readouterr().err


# a glue config on the 6 x 6 grid without its core "k"
GLUE_6X6_NO_CORE = {"space": grid_space_json([6, 6], 1 / 6), "dim_k": 1,
                    "thresholds": [4 / 6, 3 / 6, 2 / 6, 1 / 6], "seed": 5}


# three points on a line, 0.5 apart
INLINE_LINE = {"points": ["a", "b", "c"],
               "metric": [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]}
# a glue run whose core is the whole 5-point line, and an extend run on 9
GLUE_LINE = {"space": grid_space_json([5], 1 / 5), "k": [0, 1, 2, 3, 4], "dim_k": 1,
             "thresholds": [0.5], "n": 1, "eps": 0.5, "seed": 0, "probes": {"count": 1}}
EXTEND_LINE = {"space": grid_space_json([9], 1 / 8), "eps_schedule": [0.25], "seed": 0}
PERTURB_LINE = {"space": grid_space_json([5], 0.25), "seed": 9, "amplitude": 0.01}


def exits_2_naming(tmp_path, capsys, command, config, named):
    if config is None:
        path = str(tmp_path / "missing.json")
    else:
        path = write_config(tmp_path, "c.json", config)
    argv = ["verify", path] if command == "verify" else \
        ["--out-dir", str(tmp_path / "out"), command, path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


class TestConfigErrors:
    """A config or path the pipeline cannot use exits 2 with one error line
    that names it; exit 1 is left to failed certificates."""

    @pytest.mark.parametrize("command, config, named", [
        pytest.param("build-cover", {"space": grid_space_json([9], 1 / 8), "seed": 0}, "'eps'",
                     id="no-eps"),
        pytest.param("glue", {**GLUE_6X6_NO_CORE, "n": 1, "eps": 0.6}, "'k'", id="no-k"),
        pytest.param("glue", {**GLUE_6X6_NO_CORE, "k": [i * 6 for i in range(6)], "n": 9,
                              "nu": 1.0}, "n = 9", id="n-past-exhaustion"),
        pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0},
                     "(nu, n_schedule)", id="no-n_schedule"),
        pytest.param("perturb", {"space": grid_space_json([5], 0.25), "seed": 9}, "'amplitude'",
                     id="no-amplitude"),
        pytest.param("extend", None, "missing.json", id="missing-config"),
        pytest.param("verify", None, "missing.json", id="missing-report"),
        *(pytest.param("build-cover", {"space": spec, "eps": 0.25, "seed": 0}, f"'{key}'",
                       id=case)
          for case, spec, key in [
              ("grid-no-dims", {"generator": "grid", "spacing": 0.1}, "dims"),
              ("grid-no-spacing", {"generator": "grid", "dims": [5]}, "spacing"),
              ("random-no-n", {"generator": "random", "seed": 1}, "n"),
              ("random-no-seed", {"generator": "random", "n": 5}, "seed"),
              ("inline-no-points", {"metric": [[0.0, 1.0], [1.0, 0.0]]}, "points"),
              ("inline-no-metric", {"points": [0, 1]}, "metric"),
              ("grid-dims-not-a-list", {"generator": "grid", "dims": 5, "spacing": 0.1}, "dims"),
              ("random-n-not-an-integer", {"generator": "random", "n": 2.5, "seed": 1}, "n"),
              ("inline-base-point-float", {**INLINE_LINE, "base_point": 1.7}, "base_point"),
              ("inline-coords-float", {**INLINE_LINE, "coords": [[0.6], [1.2], [2.9]]},
               "coords"),
              ("inline-nominal-dim-string", {**INLINE_LINE, "nominal_dim": "two"},
               "nominal_dim"),
          ]),
        # integer entries that int() would truncate without a word
        pytest.param("glue", {**GLUE_LINE, "dim_k": 1.9}, "'dim_k' must be an integer",
                     id="glue-dim-k-float"),
        pytest.param("glue", {**GLUE_LINE, "dim_k": True}, "'dim_k' must be an integer",
                     id="glue-dim-k-bool"),
        pytest.param("glue", {**GLUE_LINE, "seed": 5.8}, "'seed'", id="glue-seed-float"),
        pytest.param("glue", {**GLUE_LINE, "probes": {"count": 1.7}}, "'probes.count'",
                     id="glue-probe-count-float"),
        pytest.param("glue", {**GLUE_LINE, "n": 1.0}, "'n'", id="glue-n-float"),
        pytest.param("extend", {**EXTEND_LINE, "perturbations": {"count": 2.5}},
                     "'perturbations.count'", id="extend-perturbation-count-float"),
        pytest.param("extend", {**EXTEND_LINE, "seed": True}, "'seed'", id="extend-seed-bool"),
        pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0,
                                "n_schedule": [2, 2.9]}, "'n_schedule[1]'",
                     id="extend-n-schedule-float"),
        pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0,
                                "n_schedule": [1.5, 2.9]}, "'n_schedule[0]'",
                     id="extend-n-schedule-first-float"),
        pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0,
                                "n_schedule": [2], "seed": "3"}, "'seed'",
                     id="extend-seed-string"),
        pytest.param("perturb", {"space": grid_space_json([5], 0.25), "seed": 9,
                                 "amplitude": 0.01, "count": 1.5}, "'count'",
                     id="perturb-count-float"),
        # schedules that are not lists, or run no stage
        *(pytest.param("extend", {**EXTEND_LINE, "eps_schedule": v}, "'eps_schedule'",
                       id=f"extend-eps-schedule-{case}")
          for case, v in [("number", 0.25), ("empty", []), ("dict", {})]),
        *(pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0,
                                  "n_schedule": v}, "'n_schedule'",
                       id=f"extend-n-schedule-{case}")
          for case, v in [("number", 3), ("empty", []), ("dict", {})]),
        # schedule and scale entries that are out of range or not numbers
        pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0,
                                "n_schedule": [2, 0]}, "'n_schedule[1]'",
                     id="extend-n-schedule-zero"),
        *(pytest.param("extend", {"space": grid_space_json([9], 1 / 8), "nu": v,
                                  "n_schedule": [2]}, "'nu'", id=f"extend-nu-{case}")
          for case, v in [("bool", True), ("zero", 0.0), ("string", "1")]),
        pytest.param("glue", {**GLUE_6X6_NO_CORE, "k": [i * 6 for i in range(6)], "n": 1,
                              "nu": True}, "'nu'", id="glue-nu-bool"),
        pytest.param("glue", {**GLUE_LINE, "eps": False}, "'eps'", id="glue-eps-bool"),
        pytest.param("build-cover", {"space": grid_space_json([9], 1 / 8), "eps": "0.25"},
                     "'eps'", id="build-cover-eps-string"),
        pytest.param("extend", {**EXTEND_LINE, "eps_schedule": [None]}, "'eps_schedule[0]'",
                     id="extend-eps-schedule-null"),
        pytest.param("extend", {**EXTEND_LINE, "eps_schedule": [0.25, True]},
                     "'eps_schedule[1]'", id="extend-eps-schedule-bool"),
    ])
    def test_exits_2_and_names_the_cause(self, tmp_path, capsys, command, config, named):
        exits_2_naming(tmp_path, capsys, command, config, named)

    # values the pipelines once read without a word (a bool as a number, a
    # negative count that runs nothing) or that ended in a traceback
    @pytest.mark.parametrize("command, config, named", [
        pytest.param("glue", {**GLUE_LINE, "thresholds": [True]}, "'thresholds[0]'",
                     id="glue-threshold-bool"),
        pytest.param("glue", {**GLUE_LINE, "probes": {"amplitude": True}},
                     "'probes.amplitude'", id="glue-probe-amplitude-bool"),
        pytest.param("glue", {**GLUE_LINE, "probes": {"count": -1}}, "'probes.count'",
                     id="glue-probe-count-negative"),
        pytest.param("extend", {**EXTEND_LINE, "seed": -1}, "'seed'", id="extend-seed-negative"),
        pytest.param("perturb", {**PERTURB_LINE, "amplitude": True}, "'amplitude'",
                     id="perturb-amplitude-bool"),
        pytest.param("perturb", {**PERTURB_LINE, "count": -1}, "'count'",
                     id="perturb-count-negative"),
        pytest.param("build-cover", {"space": {**INLINE_LINE, "metric": [[0, True, 1],
                                                                         [True, 0, 0.5],
                                                                         [1, 0.5, 0]]},
                                     "eps": 0.25}, "'metric[0][1]'", id="inline-metric-bool"),
        pytest.param("build-cover", {"space": {**INLINE_LINE, "nominal_dim": -1}, "eps": 0.25},
                     "'nominal_dim'", id="inline-nominal-dim-negative"),
        pytest.param("extend", {**EXTEND_LINE, "perturbations": {"count": -1}},
                     "'perturbations.count'", id="extend-perturbation-count-negative"),
        pytest.param("glue", {**GLUE_LINE, "probes": []}, "'probes'", id="glue-probes-list"),
        pytest.param("extend", {**EXTEND_LINE, "perturbations": "x"}, "'perturbations'",
                     id="extend-perturbations-string"),
        pytest.param("glue", {**GLUE_LINE, "space": None}, "'space'", id="glue-space-null"),
        pytest.param("glue", {**GLUE_LINE, "k": 0}, "'k'", id="glue-k-number"),
        pytest.param("glue", {**GLUE_LINE, "thresholds": [None]}, "'thresholds[0]'",
                     id="glue-threshold-null"),
        pytest.param("extend", {**EXTEND_LINE, "seed": None}, "'seed'", id="extend-seed-null"),
        pytest.param("perturb", {**PERTURB_LINE, "amplitude": []}, "'amplitude'",
                     id="perturb-amplitude-list"),
        pytest.param("build-cover", {"space": {**INLINE_LINE, "metric": [[0, 0.5, 1], {},
                                                                         [1, 0.5, 0]]},
                                     "eps": 0.25}, "'metric[1]'", id="inline-metric-row-object"),
        pytest.param("build-cover", {"space": {**INLINE_LINE, "points": ["a", None, "c"]},
                                     "eps": 0.25}, "'points[1]'", id="inline-point-null"),
        pytest.param("build-cover", {"space": grid_space_json([9], 1 / 8), "eps": 0.25,
                                     "seed": "x"}, "'seed'", id="build-cover-seed-string"),
        pytest.param("build-cover", {"space": {**grid_space_json([9], 1 / 8), "ground": []},
                                     "eps": 0.25}, "'ground'", id="grid-ground-list"),
        pytest.param("build-cover", {"space": {"generator": "torus", "n": 3}, "eps": 0.25},
                     "'generator'", id="unknown-generator"),
        pytest.param("build-cover", [grid_space_json([9], 1 / 8)], "object",
                     id="config-not-an-object"),
        pytest.param("extend", {**EXTEND_LINE, "note": "unread"}, "'note'",
                     id="extend-unknown-key"),
        pytest.param("glue", {**GLUE_LINE, "probes": {"count": 1, "amp": 0.5}}, "'probes.amp'",
                     id="glue-unknown-probe-key"),
        # integers too large for a float, which the float cast overflowed on
        pytest.param("build-cover", {"space": grid_space_json([9], 1 / 8), "eps": 10**400},
                     "'eps'", id="build-cover-eps-too-large"),
        pytest.param("build-cover", {"space": {**INLINE_LINE, "metric": [[0, 10**400, 1],
                                                                         [0.5, 0, 0.5],
                                                                         [1, 0.5, 0]]},
                                     "eps": 0.25}, "'metric[0][1]'",
                     id="inline-metric-too-large"),
        # integers outside int64: a seed names the report file, coords become int64
        pytest.param("glue", {**GLUE_LINE, "seed": 10**400}, "'seed'", id="glue-seed-too-large"),
        pytest.param("extend", {**EXTEND_LINE, "seed": 2**63}, "'seed'",
                     id="extend-seed-past-int64"),
        pytest.param("build-cover", {"space": {**INLINE_LINE, "coords": [[0], [10**400], [2]]},
                                     "eps": 0.25}, "'coords'", id="inline-coords-too-large"),
    ])
    def test_values_once_read_or_crashed_exit_2(self, tmp_path, capsys, command, config,
                                                named):
        exits_2_naming(tmp_path, capsys, command, config, named)

    def test_seed_flag_outside_int64_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused while the config is read, before any pipeline work
        path = write_config(tmp_path, "c.json", GLUE_LINE)
        monkeypatch.setattr(gluing, "build_gluing_bundle", mock.Mock(side_effect=AssertionError))
        argv = ["--seed", str(10**400), "--out-dir", str(tmp_path / "out"), "glue", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'seed' must be an integer in [0, 2**63)" in err
        assert not (tmp_path / "out").exists()

    # an integer outside int64 is refused in the terms of that range, not as
    # a value of the wrong type
    @pytest.mark.parametrize("command, config, named", [
        ("glue", {**GLUE_LINE, "seed": 10**400}, "'seed' must be an integer in [0, 2**63)"),
        ("extend", {**EXTEND_LINE, "seed": 2**63}, "'seed' must be an integer in [0, 2**63)"),
        ("extend", {**EXTEND_LINE, "perturbations": {"count": 2**64}},
         "'perturbations.count' must be an integer in [0, 2**63)"),
        ("build-cover", {"space": {**INLINE_LINE, "coords": [[0], [10**400], [2]]},
                         "eps": 0.25},
         "'coords' must be a nonempty list of equal-length nonempty lists of integers in "
         "[-2**63, 2**63), got"),
        ("build-cover", {"space": {**INLINE_LINE, "coords": [[0], [-2**63 - 1], [2]]},
                         "eps": 0.25}, "integers in [-2**63, 2**63)"),
        ("build-cover", {"space": {"generator": "grid", "dims": [2**63], "spacing": 0.1},
                         "eps": 0.25}, "'dims' must be a nonempty list of integers in [1, 2**63)"),
    ], ids=["glue-seed-10**400", "extend-seed-2**63", "extend-count-2**64",
            "inline-coords-10**400", "inline-coords-below-int64", "grid-dims-2**63"])
    def test_outside_int64_names_the_range(self, tmp_path, capsys, command, config, named):
        exits_2_naming(tmp_path, capsys, command, config, named)

    def test_largest_int64_seed_is_read(self, tmp_path):
        path = write_config(tmp_path, "c.json", {**EXTEND_LINE, "seed": 2**63 - 1})
        assert main(["--out-dir", str(tmp_path / "out"), "extend", path]) == 0
        assert [f.name for f in (tmp_path / "out").iterdir()] == [f"extend-{2**63 - 1}-0.25.json"]


# small configs of the four commands that read one, at most 16 points each
FUZZ_CONFIGS = {
    "glue": ("glue", {"space": grid_space_json([4, 4], 0.25), "k": [0, 4, 8, 12], "dim_k": 1,
                      "thresholds": [0.5, 0.25], "n": 1, "eps": 0.5, "seed": 0,
                      "probes": {"count": 2, "amplitude": 0.9}}),
    "extend": ("extend", {**EXTEND_LINE, "perturbations": {"count": 1}}),
    "extend-nu": ("extend", {"space": grid_space_json([9], 1 / 8), "nu": 1.0,
                             "n_schedule": [2], "seed": 0}),
    "build-cover": ("build-cover", {"space": {**INLINE_LINE, "base_point": 0,
                                              "coords": [[0], [1], [2]], "nominal_dim": 1},
                                    "eps": 0.25, "seed": 0}),
    "perturb": ("perturb", {**PERTURB_LINE, "space": {"generator": "random", "n": 4,
                                                      "seed": 1, "scale": 1.0}}),
}
BAD_VALUES = [None, True, "x", 1.5, [], {}, -1, 0]


def entry_paths(value, path=()):
    """The path of every entry of a config, nested lists and objects too."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from entry_paths(item, path + (key,))


def replaced(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


class TestConfigFuzz:
    """One entry of a small config replaced by a value of the wrong kind or
    range: the run exits 2 with an error line, or runs (0, or 1 with a
    failed certificate, as an amplitude of 1.5 admission radii gives), and
    never ends in a traceback."""

    def test_the_configs_run(self, tmp_path):
        for name, (command, config) in FUZZ_CONFIGS.items():
            path = write_config(tmp_path, f"{name}.json", config)
            assert main(["--out-dir", str(tmp_path / name), command, path]) == 0, name

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_a_bad_entry_exits_cleanly(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
        command, config = FUZZ_CONFIGS[name]
        path = data.draw(st.sampled_from(list(entry_paths(config))))
        config = replaced(config, path, data.draw(st.sampled_from(BAD_VALUES)))
        root = tmp_path_factory.mktemp("fuzz")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--out-dir", str(root / "out"), command,
                       write_config(root, "c.json", config)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ")
        if rc == 1:
            assert "FAIL" in out.getvalue()


class TestTriangleSweeps:
    """The benchmark pipelines run the O(n^3) triangle sweep only on matrices
    no builder bounds: the induced pseudometrics, the glue metric and its
    collar's extension.  A space built by the grid generator, or restricted
    from one, is never swept, nor is a probe, which carries its bound into
    the glue collar; so a bound that gets lost adds a sweep here."""

    @pytest.mark.parametrize("name, sweeps", [
        ("glue-10x10-line", [40, 40, 100, 100]),
        ("extend-13x13-lp", [169]),
        ("extend-30x30-fine", [900]),
    ], ids=["glue-10x10-line", "extend-13x13-lp", "extend-30x30-fine"])
    def test_sweeps_of_each_workload(self, tmp_path, monkeypatch, name, sweeps):
        workload = WORKLOADS[name]
        path = write_config(tmp_path, "c.json", workload["config"])
        calls = sweeps_of(monkeypatch)
        assert main(["--out-dir", str(tmp_path / "out"), workload["pipeline"], path]) == 0
        assert [n for n, _ in calls] == sweeps

    @pytest.mark.parametrize("name", ["extend-13x13-lp", "extend-30x30-fine"])
    def test_extend_closes_no_matrix(self, tmp_path, monkeypatch, name):
        # probes are made by single-edge shortcuts, not Floyd-Warshall
        workload = WORKLOADS[name]
        path = write_config(tmp_path, "c.json", workload["config"])
        closes = []
        close = spaces._close
        monkeypatch.setattr(spaces, "_close", lambda d: closes.append(d.shape) or close(d))
        assert main(["--out-dir", str(tmp_path / "out"), "extend", path]) == 0
        assert closes == []


def readme_config(heading):
    """The JSON block under the README's "Example `...` config" heading
    that starts with `heading`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(heading + r"[^\n]*\n\n```json\n(.*?)```", text, re.S).group(1))


class TestDerivedMatrices:
    """Every matrix a pipeline derives and validates is symmetric by
    construction, to the last bit, with a +0.0 diagonal and no entry below
    zero: the grid fold, the molecule fill, the quotient, the glue metric
    and the shortcut probes.  The door's exact axioms never refuse a
    pipeline's own matrix."""

    @pytest.mark.parametrize("pipeline, config, count", [
        ("glue", lambda: readme_config("Example `glue` config"), 12),
        ("extend", lambda: WORKLOADS["extend-13x13-lp"]["config"], 7),
        ("extend", lambda: readme_config("Example `extend` config, staged"), 9),
    ], ids=["readme-glue", "extend-13x13-seed-7", "readme-staged-extend"])
    def test_validated_matrices_are_bitwise_symmetric(self, tmp_path, monkeypatch, pipeline,
                                                      config, count):
        seen = []
        scan = spaces._axiom_scan
        monkeypatch.setattr(spaces, "_axiom_scan", lambda mat: seen.append(mat.copy()) or scan(mat))
        path = write_config(tmp_path, "c.json", config())
        assert main(["--out-dir", str(tmp_path / "out"), pipeline, path]) == 0
        assert len(seen) == count
        for mat in seen:
            bits = mat.view(np.uint64)
            assert np.array_equal(bits, bits.T)
            assert not np.diagonal(bits).any() and mat.min() >= 0


class TestNormLps:
    """The norm programs each benchmark pipeline solves through
    `lp.transport`, at its config's seed.  Molecules with one point on a
    side or two on each take their closed transport forms, so glue and the
    900-point run solve none and the 13 x 13 run 112, its molecules with
    three or more points on a side; a shape that slips back to the solver
    adds programs here."""

    @pytest.mark.parametrize("name, most", [
        ("glue-10x10-line", 0),
        ("extend-13x13-lp", 129),
        ("extend-30x30-fine", 0),
    ], ids=["glue-10x10-line", "extend-13x13-lp", "extend-30x30-fine"])
    def test_programs_of_each_workload(self, tmp_path, monkeypatch, name, most):
        workload = WORKLOADS[name]
        path = write_config(tmp_path, "c.json", workload["config"])
        calls = count_solves(monkeypatch)
        assert main(["--out-dir", str(tmp_path / "out"), workload["pipeline"], path]) == 0
        assert len(calls) <= most


class TestReportLayout:
    def test_extend_report_recovers_adapted_metric(self, tmp_path):
        # 5 x 5 at eps 1/2, and 13 x 13 at eps 1/4, whose molecules need LPs
        for dims, spacing, eps, seed in (([5, 5], 1 / 8, 0.5, 1), ([13, 13], 0.02, 0.25, 3)):
            space_spec = grid_space_json(dims, spacing)
            cfg = write_config(tmp_path, f"c{dims[0]}.json", {
                "space": space_spec, "eps_schedule": [eps], "seed": seed,
                "perturbations": {"count": 1},
            })
            out = tmp_path / f"out{dims[0]}"
            assert main(["--out-dir", str(out), "extend", cfg]) == 0
            report = json.loads(next(out.glob("extend-*.json")).read_text())
            assert report["space"] == space_spec
            assert set(report) == {"pipeline", "space", "eps", "seed", "bundle",
                                   "perturbed", "certificates"}
            assert set(report["bundle"]) == {"cover", "weights", "operator_norm",
                                             "certificates"}

            space = lf.space_from_json(report["space"])
            net = report["bundle"]["cover"]["net"]
            weights = np.zeros((space.n, len(net)))
            for i, j, value in report["bundle"]["weights"]:
                weights[i, j] = value
            op = lf.WeightOperator(space, net, weights, partition=True)
            induced = lf.molecule_norm_matrix(op, space.dist)
            adapted = induced + lf.quotient_pseudometric(space.dist, net)
            bundle = lf.build_extension_bundle(lf.build_net_cover(space, eps))
            assert weights.tobytes() == bundle.pou.matrix.tobytes()
            assert report["bundle"]["weights"] == cli._changes(bundle.pou.matrix, 0.0)
            rebuilt = lf.molecule_norm_matrix(bundle.pou, bundle.nc.space.dist)
            assert induced.tobytes() == rebuilt.tobytes()
            assert adapted.tobytes() == bundle.adapted.tobytes()
            sup = next(c for c in report["certificates"] if c["kind"] == "adapted-sup-distance")
            assert lf.sup_distance(space.dist, adapted) == sup["measured"]
            xs, ys = np.triu_indices(space.n, k=1)
            assert (induced[xs, ys] / adapted[xs, ys]).max() == report["bundle"]["operator_norm"]

    def test_extend_30x30_report_stays_small(self, tmp_path):
        # the benchmark's 30 x 30 workload: 900 x 100 weights, 900 of them nonzero
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([30, 30], 0.02), "eps_schedule": [0.125], "seed": 7,
            "perturbations": {"count": 1},
        })
        assert main(["--out-dir", str(tmp_path / "out"), "extend", cfg]) == 0
        report = next((tmp_path / "out").glob("extend-*.json"))
        assert report.stat().st_size < 32 * 1024
        assert len(json.loads(report.read_text())["bundle"]["weights"]) == 900

    def test_changes_compare_bits(self):
        # -0.0 == 0.0, but the bits differ, and a rebuild must keep the sign
        a = np.array([[0.0, -0.0], [2.5, 0.0]])
        changes = cli._changes(a, 0.0)
        assert changes == [[0, 1, -0.0], [1, 0, 2.5]]
        assert np.signbit(changes[0][2])
        assert cli._changes(a, a) == [] and cli._changes(a, np.zeros((2, 2))) == changes

    @pytest.mark.parametrize("amplitude, rc", [(0.9, 0), (40.0, 1)])
    def test_glue_report_rebuilds_probe_metrics_and_operators(self, tmp_path, monkeypatch,
                                                              amplitude, rc):
        # at amplitude 40 the second probe is refused before its operator is built
        seen = []
        certify = gluing.certify_gluing

        def spy(bundle, e, rng=None):
            cert = certify(bundle, e, rng=rng)
            seen.append((np.array(e.matrix, dtype=float), cert.h_matrix))
            return cert

        def rebuild(base, changes):
            m = base.copy()
            for i, j, v in changes:
                m[i, j] = v
            return m

        monkeypatch.setattr(gluing, "certify_gluing", spy)
        cfg = write_config(tmp_path, "c.json", {
            **GLUE_6X6_NO_CORE, "k": [i * 6 for i in range(6)], "n": 1, "eps": 0.6,
            "probes": {"count": 2, "amplitude": amplitude}})
        assert main(["--out-dir", str(tmp_path / "out"), "glue", cfg]) == rc
        report = json.loads(next((tmp_path / "out").glob("glue-*.json")).read_text())
        glue = np.array(report["glue_metric"])
        assert [p["index"] for p in report["probes"]] == [0, 1] and len(seen) == 2
        assert report["probes"][0]["metric_changes"] == []
        for probe, (metric, h) in zip(report["probes"], seen):
            rebuilt = rebuild(glue, probe["metric_changes"])
            assert rebuilt.tobytes() == metric.tobytes()
            admission = next(c for c in probe["certificates"] if c["kind"] == "probe-admission")
            assert admission["measured"] == lf.sup_distance(rebuilt, glue)
            if h is None:
                assert probe["operator"] is None
            else:
                op = rebuild(np.zeros((len(glue), len(report["domain"]))), probe["operator"])
                assert op.tobytes() == h.tobytes()
        assert (report["probes"][1]["operator"] is None) == (amplitude == 40.0)

    @pytest.mark.parametrize("pipeline, config", [
        ("build-cover", {"space": grid_space_json([9], 1 / 8), "eps": 0.25, "seed": 0}),
        ("extend", {"space": grid_space_json([9], 1 / 8), "eps_schedule": [0.25],
                    "seed": 2, "perturbations": {"count": 1}}),
        ("glue", {"space": grid_space_json([6, 6], 1 / 6), "k": [0, 6, 12, 18, 24, 30],
                  "dim_k": 1, "thresholds": [4 / 6, 3 / 6, 2 / 6, 1 / 6],
                  "n": 1, "eps": 0.6, "seed": 5, "probes": {"count": 2}}),
        ("extend", {"space": grid_space_json([9], 1 / 8), "n_schedule": [2], "nu": 1.0}),
        ("perturb", {"space": grid_space_json([5], 0.25), "amplitude": 0.05, "seed": 9}),
    ])
    def test_reports_are_canonical_compact_json(self, tmp_path, pipeline, config):
        cfg = write_config(tmp_path, "c.json", config)
        assert main(["--out-dir", str(tmp_path / "out"), pipeline, cfg]) == 0
        files = list((tmp_path / "out").glob("*.json"))
        assert files
        for f in files:
            text = f.read_text()
            canonical = json.dumps(json.loads(text), sort_keys=True,
                                   separators=(",", ":")) + "\n"
            assert text == canonical


# Strings that need escapes or are not ASCII; U+2028 is valid JSON but ends a
# line in JavaScript.
ODD_TEXT = st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u2028", "é", "\U0001f600"])
TEXT = st.one_of(ODD_TEXT, st.text(max_size=6), st.lists(ODD_TEXT).map("".join))
# -0.0, subnormals, values near the range ends, infinities and NaN
ODD_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
                              -1e-300, float("inf"), float("-inf"), float("nan")])
FLOATS = st.one_of(ODD_FLOATS, st.floats())
FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                       max_side=4), elements=FLOATS)
# np.float64 is a float subclass, which both encoders write as a float
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS,
                    FLOATS.map(np.float64), TEXT)
VALUES = st.recursive(
    st.one_of(SCALARS, FLOAT_ARRAYS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=16)


@st.composite
def repeated_row_arrays(draw):
    """2-D float arrays whose rows are copies of a few distinct rows, in any
    order, with each distinct row also present with the signs of its zeros
    flipped."""
    distinct = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(0, 4)),
                               elements=FLOATS))
    distinct = np.vstack([distinct, np.where(distinct == 0.0, -distinct, distinct)])
    order = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=12))
    return distinct[np.array(order, dtype=int)]


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(TEXT, st.one_of(VALUES, repeated_row_arrays()), max_size=5))
    @example(payload={"b": np.zeros((0, 3)), "a": np.zeros((3, 0)), "c": [1, {"y": [], "x": ()}]})
    def test_bytes_equal_json_dump_of_lists(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("writer") / "r.json"
        _write_json(path, payload)
        assert path.read_text() == json_dump_of_lists(payload)

    @pytest.mark.parametrize("leaf", [{1, 2}, np.int64(1), object()],
                             ids=["set", "int64", "object"])
    @pytest.mark.parametrize("where", ["value", "in list", "in nested list"])
    def test_unencodable_leaf_raises(self, tmp_path, leaf, where):
        value = {"value": leaf, "in list": [0.5, leaf], "in nested list": [[0.5], leaf]}[where]
        with pytest.raises(TypeError):
            json_dump_of_lists({"a": value})
        with pytest.raises(TypeError):
            _write_json(tmp_path / "r.json", {"a": value})

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "r.json", {"a": np.zeros((3, 3)), "b": {1, 2}})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_report(self, tmp_path):
        path = tmp_path / "r.json"
        _write_json(path, {"a": np.ones((2, 2))})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _write_json(path, {"a": np.zeros((3, 3)), "b": {1, 2}})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("key", [1, 2.5, None, True, ("a",)])
    def test_non_str_key_raises(self, tmp_path, key):
        # json.dump would write 1, 2.5, None and True as "1", "2.5", "null" and
        # "true"; no report has such a key, so the writer refuses it
        with pytest.raises(TypeError, match="keys must be str"):
            _write_json(tmp_path / "r.json", {"a": [{"b": 1, key: 2}]})

    @settings(max_examples=200, deadline=None)
    @given(mat=repeated_row_arrays())
    def test_repeated_rows_are_encoded_once(self, tmp_path_factory, mat):
        path = tmp_path_factory.mktemp("writer") / "r.json"
        with mock.patch.object(cli, "_ENCODE", wraps=cli._ENCODE) as encode:
            _write_json(path, {"m": mat})
        assert path.read_text() == json_dump_of_lists({"m": mat})
        # the key, then each row once as one leaf, repeated or not
        assert encode.call_count == 1 + len(mat)

    def test_matrix_is_written_row_by_row(self, tmp_path):
        m = np.random.default_rng(0).random((1000, 1000))
        tracemalloc.start()
        try:
            _write_json(tmp_path / "r.json", {"m": m, "n": 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # m.tolist() alone takes about 32 MB
        assert peak < 2 * 2**20


def oracle_write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_dump_of_lists(payload))


def molecule_norms_on_domain(op, d):
    return molecule_norms_by_pairs(op, d[np.ix_(op.domain, op.domain)])


class TestEquivalence:
    """Whole reports from the row-collapsing sweeps and the streaming writer
    are the bytes the reference sweeps and writer of tests/conftest.py give."""

    @pytest.mark.parametrize("pipeline, config", [
        # 13 x 13 at eps 1/4: the bundle's molecules need 539 LPs, 112 distinct
        ("extend", {"space": grid_space_json([13, 13], 0.02), "eps_schedule": [0.25],
                    "seed": 3, "perturbations": {"count": 1}}),
        ("glue", {"space": grid_space_json([6, 6], 1 / 6), "k": [i * 6 for i in range(6)],
                  "dim_k": 1, "thresholds": [4 / 6, 3 / 6, 2 / 6, 1 / 6],
                  "n": 1, "eps": 0.6, "seed": 5, "probes": {"count": 2}}),
    ])
    def test_reports_equal_the_reference_sweeps(self, tmp_path, monkeypatch, pipeline, config):
        cfg = write_config(tmp_path, "c.json", config)
        assert main(["--out-dir", str(tmp_path / "fast"), pipeline, cfg]) == 0
        monkeypatch.setattr(spaces, "_min_plus_excess", min_plus_excess_by_via)
        monkeypatch.setattr(spaces, "floyd_warshall", floyd_warshall_serial)
        monkeypatch.setattr(freenorm, "floyd_warshall", floyd_warshall_serial)
        monkeypatch.setattr(freenorm, "molecule_norm_matrix", molecule_norms_on_domain)
        monkeypatch.setattr(extension, "molecule_norm_matrix", molecule_norms_on_domain)
        monkeypatch.setattr(cli, "_write_json", oracle_write_json)
        assert main(["--out-dir", str(tmp_path / "reference"), pipeline, cfg]) == 0
        fast = sorted((tmp_path / "fast").iterdir())
        assert [f.name for f in fast] == [f.name for f in sorted((tmp_path / "reference").iterdir())]
        for f in fast:
            assert f.read_bytes() == (tmp_path / "reference" / f.name).read_bytes()

    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the row collapse buckets rows by hash(); a report must not show it
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([6, 6], 0.05), "eps_schedule": [0.5], "seed": 4,
            "perturbations": {"count": 1},
        })
        src = str(Path(lf.__file__).resolve().parents[1])
        reports = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = tmp_path / f"out-{seed}"
            subprocess.run([sys.executable, "-m", "lipfree.cli", "--out-dir", str(out),
                            "extend", cfg], env=env, check=True, capture_output=True,
                           timeout=120)
            reports.append([(f.name, f.read_bytes()) for f in sorted(out.iterdir())])
        assert reports[0] == reports[1] and len(reports[0]) == 1
