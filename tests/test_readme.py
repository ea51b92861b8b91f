"""The README's library sketch runs against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, f"{README}:library-sketch", "exec"), scope)
    assert scope["bundle"].enorm == pytest.approx(1.0, abs=1e-9)
    assert scope["pb"].passed
