"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_demo.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYPROJECT),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "-q",
            "test_demo.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
