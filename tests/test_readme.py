"""The python blocks of README.md run and print what their comments state."""
import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)

#: each comment on a print line of the blocks, and the check its output meets
STATED = {
    "conjugate-evidence": lambda out: out == "conjugate-evidence",
    "wandering-interval-found": lambda out: out == "wandering-interval-found",
    "3.0548...": lambda out: out.startswith("3.0548"),
    "{'tv': ..., 'zv': True, ...}": lambda out: ast.literal_eval(out)["zv"] is True,
    "4/3 for equal spacing": lambda out: float(out) == pytest.approx(4.0 / 3.0),
}


def _commented_prints(block):
    """(print line, its comment or None) for each print of the block; every
    print in the blocks is one top-level line printing one line."""
    return [(line, line.split("#", 1)[1].strip() if "#" in line else None)
            for line in block.splitlines() if line.startswith("print(")]


def test_every_stated_value_is_in_the_readme():
    comments = {c for block in BLOCKS for _, c in _commented_prints(block)}
    assert comments - {None} == set(STATED)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_prints_what_its_comments_state(block):
    prints = _commented_prints(block)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints)
    for (source, comment), printed in zip(prints, lines):
        if comment is not None:
            assert STATED[comment](printed), f"{source!r} printed {printed!r}"
