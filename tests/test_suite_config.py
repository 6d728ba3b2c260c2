"""The test configuration itself: a failing property is reported as a
failure under this suite's warnings-as-errors setting."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_property_is_a_failure_not_an_internal_error(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n'
    )
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    # load conftest.py as a plugin, as it is loaded for this suite; it has
    # already put src/ on PYTHONPATH
    path = os.pathsep.join((str(TESTS), os.environ["PYTHONPATH"]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "conftest", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed" in result.stdout
