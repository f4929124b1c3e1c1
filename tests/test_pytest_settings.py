"""The repo's pytest settings report a failing hypothesis test like any other."""

import shutil
import subprocess
import sys
from pathlib import Path

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis's failure report imports libcst, whose DeprecationWarning
    # the "error" filter used to turn into an INTERNALERROR: the run ended at
    # "1 failed" and the passing test never ran.
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pair.py").write_text(PAIR)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests/test_pair.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output
