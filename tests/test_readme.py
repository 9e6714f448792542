"""The README's library example runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_example_runs():
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["report"].overall_pass
    assert abs(namespace["forms"].K - 1.0) < 1e-7
    assert out.getvalue().splitlines()[-1] == "True"
