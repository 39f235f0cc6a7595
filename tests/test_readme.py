"""The Python examples of README.md run as written.

The ```python blocks run in order in one namespace, so a later block may
use the names an earlier one defined.  Under each ``print(...)`` line of a
block, the ``# ...`` comment lines state what it prints; the printed lines of
each block must equal those comments, in order."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def expected_output(block: str) -> list[str]:
    """The comment lines that follow a print line, in order."""
    out, after_print = [], False
    for line in block.splitlines():
        if line.startswith("print("):
            after_print = True
        elif after_print and line.startswith("# "):
            out.append(line[2:])
        else:
            after_print = False
    return out


def test_readme_examples_print_what_they_state():
    blocks = python_blocks(README.read_text())
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        want = expected_output(block)
        assert want, f"block {i} states no result"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, f"README.md block {i}", "exec"), namespace)
        assert printed.getvalue().splitlines() == want, f"block {i}"
