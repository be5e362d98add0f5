"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    """The ``python`` block under the README's "Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_comments():
    block = quick_start_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # each print's line is the comment on it or on the line below it, and a
    # comment ending in "...)" gives only the start of the line
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if "# " in line]
    assert len(printed) == len(comments) == 3
    for got, want in zip(printed, comments):
        if want.endswith("...)"):
            assert got.startswith(want[: -len("...)")])
        else:
            assert got == want
    assert printed[0] == "{'small_inner': 8, 'essential_wandering': 1}"
    assert printed[1] == "10.9916 <= vol <= 30.4482"
    k, s = printed[2].split()[:2]
    assert (k, s) == ("-2", "4")
