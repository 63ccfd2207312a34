"""The Tier-1 pytest settings report a failing Hypothesis example instead of crashing.

``filterwarnings = ["error"]`` turns every warning into an error, also one
raised by an import inside the Hypothesis plugin while it reports a
failure.  Such an error ends the run in ``INTERNALERROR`` (exit code 3),
without the falsifying example and without the tests after it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
"""


def test_failing_hypothesis_example_is_reported(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(ROOT / "pyproject.toml"),
            "-p",
            "no:cacheprovider",
            str(test_file),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
