"""Mutated inputs through the commands that read them: code files through
`blrc analyze` and `blrc mttdl`, shard sets through `blrc decode` and
`blrc repair`.  Whatever the files hold, the command exits 0, or exits 1
with one `error:` line on stderr, and no exception escapes.  Nothing is
asserted of the decoded bytes: a corrupt payload may decode silently.

The code file mutations are those of a hand-edited or damaged file: two
hex coefficients swapped, one flipped (XORed with a byte), a P row
dropped or duplicated (inserted again, or written over another row,
which makes two rows dependent and fails the rank condition), and the n,
k, w or field line edited.  The shard set mutations are a header field
rewritten, a payload byte flipped, a shard truncated and a shard
deleted.  Hypothesis runs derandomized, so every run draws the same
files.
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


SHARD = st.integers(1, 15)
HEADER_VALUES = st.one_of(
    VALUES, st.sampled_from(["0" * 64, "é", "1 2", "99999999999999999999"])
)
SHARD_MUTATION = st.one_of(
    st.tuples(
        st.just("header"),
        SHARD,
        st.sampled_from(["code", "index", "stripes", "length"]),
        HEADER_VALUES,
    ),
    st.tuples(st.just("flip"), SHARD, CELL, st.integers(1, 255)),
    st.tuples(st.just("truncate"), SHARD, CELL),
    st.tuples(st.just("delete"), SHARD),
)


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    """The code file and the shard files, by index, of a 97-byte input."""
    tmp = tmp_path_factory.mktemp("shards")
    code_path = tmp / "code.txt"
    code_path.write_text("\n".join(LINES) + "\n", encoding="ascii")
    source = tmp / "input.bin"
    source.write_bytes(bytes(range(3, 100)))
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["encode", str(code_path), str(source), "--out-dir", str(tmp)])
    assert rc == 0
    shards = {i: (tmp / f"input.bin.s{i:02d}").read_bytes() for i in range(1, 16)}
    return code_path, shards


def _mutated_shards(shards, mutations) -> dict:
    shards = dict(shards)
    for kind, b, *rest in mutations:
        if b not in shards:
            continue
        head, sep, payload = shards[b].partition(b"\n\n")
        if kind == "delete":
            del shards[b]
        elif kind == "truncate":
            shards[b] = shards[b][: rest[0] % (len(shards[b]) + 1)]
        elif kind == "flip" and payload:
            i = rest[0] % len(payload)
            flipped = bytes([payload[i] ^ rest[1]])
            shards[b] = head + sep + payload[:i] + flipped + payload[i + 1 :]
        elif kind == "header":
            key, value = rest[0].encode(), rest[1].encode()
            lines = [
                key + b" " + value if line.partition(b" ")[0] == key else line
                for line in head.split(b"\n")
            ]
            shards[b] = b"\n".join(lines) + sep + payload
    return shards


@pytest.mark.parametrize("command", ["decode", "repair"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(mutations=st.lists(SHARD_MUTATION, min_size=1, max_size=4))
def test_mutated_shard_set_exits_cleanly(command, mutations, encoded):
    code_path, shards = encoded
    with tempfile.TemporaryDirectory() as tmp:
        for b, blob in _mutated_shards(shards, mutations).items():
            (Path(tmp) / f"input.bin.s{b:02d}").write_bytes(blob)
        argv = [command, str(code_path), "--shards", tmp]
        if command == "decode":
            argv += ["--out", str(Path(tmp) / "decoded.bin")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in (0, 1)
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
