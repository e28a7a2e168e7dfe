"""Mutated code files through `blrc analyze` and `blrc mttdl`: whatever the
file holds, the command exits 0, or exits 1 with one `error:` line on
stderr, and no exception escapes.

The mutations are those of a hand-edited or damaged file: two hex
coefficients swapped, one flipped (XORed with a byte), a P row dropped
or duplicated (inserted again, or written over another row, which makes
two rows dependent and fails the rank condition), and the n, k, w or
field line edited.  Hypothesis runs derandomized, so every run draws the
same files.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blrc import cli
from blrc.codefile import write_code_text
from blrc.presets import BUNDLED

NAME = "blrc-15-10-w3"
LINES = write_code_text(BUNDLED[NAME](), {"name": NAME}).splitlines()
FIRST_ROW = LINES.index("P") + 1
FIRST_META = next(i for i, line in enumerate(LINES) if line.startswith("meta "))

VALUES = st.one_of(
    st.integers(-2, 40).map(str), st.sampled_from(["", "x", "1.5", "0x10"])
)
FIELDS = st.one_of(
    st.builds(
        "m {} poly 0x{:x}".format,
        st.integers(0, 17),
        st.sampled_from([0x0, 0x3, 0x7, 0xB, 0x13, 0x11B, 0x11D, 0x1100B]),
    ),
    st.sampled_from(["m 8", "x 8 poly 0x11d", "m 8 poly zz", ""]),
)
CELL = st.integers(0, 10**4)  # taken modulo the cells or rows there are
MUTATION = st.one_of(
    st.tuples(st.just("swap"), CELL, CELL),
    st.tuples(st.just("flip"), CELL, st.integers(1, 255)),
    st.tuples(st.just("drop"), CELL),
    st.tuples(st.just("insert"), CELL),
    st.tuples(st.just("overwrite"), CELL, CELL),
    st.tuples(st.just("line"), st.sampled_from(["n", "k", "w"]), VALUES),
    st.tuples(st.just("line"), st.just("field"), FIELDS),
)


def _mutated(mutations) -> str:
    head, meta = LINES[:FIRST_ROW], LINES[FIRST_META:]
    rows = [line.split() for line in LINES[FIRST_ROW:FIRST_META]]
    for kind, a, *rest in mutations:
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        if kind == "line":
            at = next(i for i, line in enumerate(head) if line.startswith(a + " "))
            head[at] = f"{a} {rest[0]}"
        elif not rows:
            continue
        elif kind == "swap":
            (i, j), (x, y) = cells[a % len(cells)], cells[rest[0] % len(cells)]
            rows[i][j], rows[x][y] = rows[x][y], rows[i][j]
        elif kind == "flip":
            i, j = cells[a % len(cells)]
            rows[i][j] = f"{int(rows[i][j], 16) ^ rest[0]:02x}"
        elif kind == "drop":
            del rows[a % len(rows)]
        elif kind == "insert":
            rows.insert(a % len(rows), list(rows[a % len(rows)]))
        else:
            rows[rest[0] % len(rows)] = list(rows[a % len(rows)])
    return "\n".join(head + [" ".join(row) for row in rows] + meta) + "\n"


@pytest.mark.parametrize("command", ["analyze", "mttdl"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_code_file_exits_cleanly(command, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.txt"
        path.write_text(_mutated(mutations), encoding="ascii")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([command, str(path)])
    assert rc in (0, 1)
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
