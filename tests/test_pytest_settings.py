"""The pytest settings of pyproject.toml keep a failing hypothesis test a
plain failure.

Warnings are errors (``filterwarnings = ["error"]``). When a ``@given`` test
fails, the hypothesis plugin imports libcst to suggest a patch, and libcst's
use of ``mypy_extensions.TypedDict`` raises a DeprecationWarning there; one
narrow filter keeps that from ending the session with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_failing_given_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_cases.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout.splitlines()[-1]
