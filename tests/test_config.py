"""The suite's pytest settings (``pyproject.toml``): a failing property
test fails alone, and the run goes on."""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # every warning is an error; hypothesis's report of a failing example
    # imports libcst, whose mypy_extensions.TypedDict warns in the report's
    # teardown, and as an error that stops pytest with INTERNALERROR before
    # the next test runs
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), result.stdout
