"""The suite's pytest settings: a failing property test is reported as one
failure beside the session's other results, under the ini file's warning
filter and under `-W error` alike."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


@pytest.mark.parametrize("ini, flags", [("filterwarnings = error\n", []), ("", ["-W", "error"])],
                         ids=["ini filter", "-W error"])
def test_failing_property_test_is_one_failure(tmp_path, ini, flags):
    # Without this module hypothesis writes no patch of a failing example.
    pytest.importorskip("hypothesis.extra._patching")
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\n" + ini)
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
