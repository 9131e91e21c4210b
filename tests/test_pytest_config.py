"""The test configuration reports a failing property as the failure it is."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_for_every_non_negative_integer(n):
    assert n < 0
'''


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # under the repository's pytest configuration, in a child with its own Hypothesis
    # database; an error filter on the plugin's report hook ended such a run in INTERNALERROR
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_failing_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
