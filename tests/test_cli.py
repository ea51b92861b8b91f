import json

import numpy as np
import pytest

import lipfree as lf
from lipfree.cli import main


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
            assert set(probe) == {"index", "norm", "probe_metric", "operator",
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


class TestBapPipeline:
    def test_defect_table(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "space": grid_space_json([17], 1 / 16),
            "n_schedule": [2, 4], "nu": 1.0, "seed": 0,
        })
        rc = main(["--out-dir", str(tmp_path / "out"), "bap", cfg])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "bap-0.json").read_text())
        assert [r["n"] for r in payload["rows"]] == [2, 4]
        assert all(r["defect"] == 0.0 for r in payload["rows"])


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


class TestReportLayout:
    def test_extend_report_recovers_adapted_metric(self, tmp_path):
        space_spec = grid_space_json([5, 5], 1 / 8)
        cfg = write_config(tmp_path, "c.json", {
            "space": space_spec, "eps_schedule": [0.5], "seed": 1,
            "perturbations": {"count": 1},
        })
        assert main(["--out-dir", str(tmp_path / "out"), "extend", cfg]) == 0
        report = json.loads(next((tmp_path / "out").glob("extend-*.json")).read_text())
        assert report["space"] == space_spec
        assert set(report) == {"pipeline", "space", "eps", "seed", "bundle",
                               "perturbed", "certificates"}
        assert set(report["bundle"]) == {"cover", "weights", "induced",
                                         "operator_norm", "certificates"}

        space = lf.space_from_json(report["space"])
        net = report["bundle"]["cover"]["net"]
        induced = np.array(report["bundle"]["induced"])
        adapted = induced + lf.quotient_pseudometric(space.dist, net)
        bundle = lf.build_extension_bundle(lf.build_net_cover(space, 0.5))
        assert np.array_equal(adapted, bundle.adapted)
        sup = next(c for c in report["certificates"] if c["kind"] == "adapted-sup-distance")
        assert lf.sup_distance(space.dist, adapted) == sup["measured"]
        xs, ys = np.triu_indices(space.n, k=1)
        assert (induced[xs, ys] / adapted[xs, ys]).max() == report["bundle"]["operator_norm"]

    @pytest.mark.parametrize("pipeline, config", [
        ("build-cover", {"space": grid_space_json([9], 1 / 8), "eps": 0.25, "seed": 0}),
        ("extend", {"space": grid_space_json([9], 1 / 8), "eps_schedule": [0.25],
                    "seed": 2, "perturbations": {"count": 1}}),
        ("glue", {"space": grid_space_json([6, 6], 1 / 6), "k": [0, 6, 12, 18, 24, 30],
                  "dim_k": 1, "thresholds": [4 / 6, 3 / 6, 2 / 6, 1 / 6],
                  "n": 1, "eps": 0.6, "seed": 5, "probes": {"count": 2}}),
        ("bap", {"space": grid_space_json([9], 1 / 8), "n_schedule": [2], "nu": 1.0}),
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
