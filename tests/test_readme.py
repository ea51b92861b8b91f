"""The README's library sketch and example configs run against the current
code, and the report layout and config tables it documents are the ones the
CLI writes and reads."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lipfree
from lipfree import config
from lipfree.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, f"{README}:library-sketch", "exec"), scope)
    assert scope["bundle"].enorm == pytest.approx(1.0, abs=1e-9)
    assert scope["pb"].passed


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    """Each "Example `PIPELINE` config" block of the README run through
    lipfree, as (pipeline, exit code, report paths)."""
    text = README.read_text()
    configs = re.findall(r"Example `([\w-]+)` config[^\n]*\n\n```json\n(.*?)```", text, re.S)
    assert len(configs) == text.count("```json") > 0
    runs = []
    for i, (pipeline, config) in enumerate(configs):
        root = tmp_path_factory.mktemp(f"readme-{i}-{pipeline}")
        (root / "config.json").write_text(config)
        rc = main(["--out-dir", str(root / "out"), pipeline, str(root / "config.json")])
        runs.append((pipeline, rc, sorted((root / "out").glob("*.json"))))
    return runs


def test_example_configs_run_and_verify(readme_runs):
    for pipeline, rc, reports in readme_runs:
        assert rc == 0, pipeline
        assert reports, pipeline
        for report in reports:
            assert main(["verify", str(report)]) == 0, report.name


def test_extend_report_layout_is_the_documented_one(readme_runs):
    text = README.read_text()
    start = text.index("An `extend` report holds")
    paragraph = text[start:text.index("\n\n", start)]
    documented = set(re.findall(r"`bundle\.(\w+)`", paragraph))
    reports = [r for pipeline, _, paths in readme_runs if pipeline == "extend" for r in paths]
    assert reports
    for report in reports:
        assert set(json.loads(report.read_text())["bundle"]) == documented


def test_glue_report_layout_is_the_documented_one(readme_runs):
    text = README.read_text()
    start = text.index("Each probe is")
    documented = set(re.findall(r"`(\w+)`", text[start:text.index(".", start)]))
    reports = [r for pipeline, _, paths in readme_runs if pipeline == "glue" for r in paths]
    assert reports
    for report in reports:
        for entry in json.loads(report.read_text())["probes"]:
            assert set(entry) == documented


def table_rows(name, table, prefix=""):
    """(config, key, kind, default) rows of a reader table, as the README
    shows them; a sub-table's keys follow its own row."""
    for key, (kind, default) in table.items():
        shown = ("required" if default is config.REQUIRED else "none" if default is None
                 else f"`{json.dumps(default)}`")
        yield name, f"`{prefix}{key}`", "an object" if isinstance(kind, dict) else kind.what, shown
        if isinstance(kind, dict):
            yield from table_rows(name, kind, f"{prefix}{key}.")


def test_config_table_is_the_readers():
    text = README.read_text()
    lines = text[text.index("| config | key | kind | default |"):].splitlines()
    documented = [tuple(cell.strip() for cell in line.strip("|").split("|"))
                  for line in lines[2:lines.index("")]]
    want = [row for name, table in config.PIPELINES.items() for row in table_rows(name, table)]
    want += [row for form, table in config.SPACE_SPECS.items()
             for row in table_rows(f"space: {form}", table)]
    assert documented == want


def test_glue_config_never_loads_numpy_ma(tmp_path):
    # np.unique and the set routines that call it import numpy.ma on first
    # use, which costs time and memory inside the run; a fresh process shows
    # whether any step of the README glue run still reaches them
    text = README.read_text()
    block = re.search(r"Example `glue` config[^\n]*\n\n```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "glue.json").write_text(block)
    script = ("import sys\n"
              "from lipfree.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(lipfree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-c", script, "--out-dir", str(tmp_path / "out"),
                          "glue", str(tmp_path / "glue.json")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "False"
