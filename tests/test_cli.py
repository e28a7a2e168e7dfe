import random

import pytest

from blrc import analysis, cli
from blrc.cli import main
from blrc.code import CodeSpec, assign_coefficients, validate
from blrc.codefile import read_code_text, write_code_text
from blrc.presets import BUNDLED, blrc_15_10_w3
from blrc.search import random_support
from blrc.sharding import read_shard

# sha256 of each bundled code's text, which every shard header carries:
# shards encoded under these names decode only while the digests stay put
BUNDLED_DIGESTS = {
    "blrc-15-10-w3": "d544cfa6e96fb788188fa4f5998612b5e24023caf293772de3f16625684190d4",
    "blrc-16-10-w3": "75b1fdb1554898f5d7039ec6e57bdb73d88e4dd2522016634096b4a6fc279d18",
    "blrc-16-10-w2": "f8d737a48759040959ef9f612fd1da112f9fc5c28f69a675faffb803c9f43ebb",
}


@pytest.fixture()
def code_file(tmp_path):
    path = tmp_path / "demo.code"
    path.write_text(write_code_text(blrc_15_10_w3()), encoding="ascii")
    return path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _encoded(capsys, code_file, tmp_path, name="a.bin"):
    src = tmp_path / name
    src.write_bytes(b"hello world" * 10)
    shard_dir = tmp_path / "shards"
    rc, *_ = run(capsys, "encode", str(code_file), str(src),
                 "--out-dir", str(shard_dir))
    assert rc == 0
    return shard_dir


def test_analyze_bundled(capsys):
    rc, out, _ = run(capsys, "analyze", "blrc-15-10-w3")
    assert rc == 0
    assert "avg_repair_single 6 blocks" in out
    assert "decodability_p4 0.992674 probability" in out


def test_analyze_fmax_and_params(capsys, code_file, tmp_path):
    params = tmp_path / "cluster.cfg"
    params.write_text("C 30PB\nB 256MB\ngamma 1Gbps\nmttf 4y\n")
    rc, out, _ = run(
        capsys, "analyze", str(code_file), "--fmax", "4",
        "--params", str(params),
    )
    assert rc == 0
    assert "decodability_p4" in out
    assert "decodability_p5" not in out
    assert "mttdl_system" in out


@pytest.mark.parametrize("fmax", ["0", "16"])
def test_analyze_rejects_fmax_outside_code_length(capsys, monkeypatch, fmax):
    # refused before any metric is computed
    monkeypatch.setattr(cli, "build_report", None)
    rc, _, err = run(capsys, "analyze", "blrc-15-10-w3", "--fmax", fmax)
    assert rc == 1
    assert err.startswith("error:") and "1..15" in err


FMAX_ROWS = [
    "decodability_p1 1.000000 probability",
    "decodability_p2 1.000000 probability",
    "decodability_p3 1.000000 probability",
    "decodability_p4 0.992674 probability",
    "decodability_p5 0.896770 probability",
] + [f"decodability_p{f} 0.000000 probability" for f in range(6, 16)]


def _analyze_with_one_census(capsys, monkeypatch, fmax):
    """The output lines of analyze --fmax fmax --with-mttdl of the bundled
    [15,10] code, asserting that it built one report and ran one census,
    to the report's depth 6."""
    reports, censuses = [], []

    def counted(code):
        reports.append(analysis.build_report(code))
        return reports[-1]

    def census(code, f_max):
        censuses.append(f_max)
        return undecodable_counts(code, f_max)

    undecodable_counts = analysis.undecodable_counts
    monkeypatch.setattr(cli, "build_report", counted)
    monkeypatch.setattr(analysis, "undecodable_counts", census)
    rc, out, _ = run(
        capsys, "analyze", "blrc-15-10-w3", "--fmax", str(fmax), "--with-mttdl"
    )
    assert rc == 0
    assert len(reports) == 1
    assert censuses == [6]
    return out.splitlines()


def _report_lines(rows):
    return [
        "blrc-report v1",
        "n 15 blocks",
        "k 10 blocks",
        "storage_overhead 0.5 ratio",
        "avg_repair_single 6 blocks",
        "avg_repair_double 9 blocks",
        "avg_column_weight 6 blocks",
        "update_complexity 4 writes",
        "min_distance 4 blocks",
        *rows,
        "mttdl_stripe 2.63237e+21 days",
        "mttdl_system 3.36944e+14 days",
        "units decimal convention",
    ]


def test_analyze_fmax_with_mttdl_builds_one_report(capsys, monkeypatch):
    lines = _analyze_with_one_census(capsys, monkeypatch, 4)
    assert lines == _report_lines(FMAX_ROWS[:4])


def test_analyze_fmax_past_the_report_depth(capsys, monkeypatch):
    # rows past the report's depth have f > r = 5, so p_f = 0.0, which is
    # what a census to f = 15 gives
    lines = _analyze_with_one_census(capsys, monkeypatch, 15)
    assert lines == _report_lines(FMAX_ROWS)
    code = blrc_15_10_w3()
    profile = analysis.build_report(code).decodability
    assert {f: profile.get(f, 0.0) for f in range(1, 16)} == (
        analysis.decodability_profile(code, 15)
    )


def test_analyze_rejects_invalid_code(capsys, tmp_path):
    code = blrc_15_10_w3()
    text = write_code_text(code)
    lines = text.splitlines()
    row = lines[6].split()
    j = next(i for i, tok in enumerate(row) if tok != "00")
    row[j] = "00"
    lines[6] = " ".join(row)
    bad = tmp_path / "bad.code"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, _, err = run(capsys, "analyze", str(bad))
    assert rc == 1
    assert "row_weights" in err


def test_missing_code_file(capsys):
    rc, _, err = run(capsys, "analyze", "no-such-code")
    assert rc == 1
    assert "not found" in err


def test_code_file_that_is_not_ascii(capsys, code_file):
    code_file.write_bytes(code_file.read_bytes() + "# Prüfcode\n".encode())
    rc, out, err = run(capsys, "analyze", str(code_file))
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {code_file}: not an ASCII code file")


def test_params_file_that_is_not_text(capsys, code_file, tmp_path):
    params = tmp_path / "cluster.cfg"
    params.write_bytes(b"\xff\xfe mttf 3y\n")
    rc, out, err = run(capsys, "mttdl", str(code_file), "--params", str(params))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: cannot read parameters:")


def test_shard_header_that_is_not_ascii(capsys, code_file, tmp_path):
    shard_dir = _encoded(capsys, code_file, tmp_path)
    victim = shard_dir / "a.bin.s03"
    blob = victim.read_bytes()
    victim.write_bytes(blob.replace(b"\nindex ", b"\n\xffndex ", 1))
    rc, out, err = run(capsys, "decode", str(code_file),
                       "--shards", str(shard_dir), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {victim}: bad shard header")


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_names_keep_their_digests(capsys, tmp_path, name):
    src = tmp_path / "a.bin"
    src.write_bytes(b"hello world" * 10)
    shard_dir = tmp_path / "shards"
    rc, *_ = run(capsys, "encode", name, str(src), "--out-dir", str(shard_dir))
    assert rc == 0
    header, _ = read_shard(shard_dir / "a.bin.s01")
    assert header.code_digest == BUNDLED_DIGESTS[name]


def test_existing_path_wins_over_bundled_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blrc-15-10-w3").write_text("not a code file\n")
    rc, _, err = run(capsys, "analyze", "blrc-15-10-w3")
    assert rc == 1
    assert err.startswith("error: blrc-15-10-w3:")


@pytest.mark.parametrize(
    "line, named",
    [
        ("N abc", "N:"),
        ("C lotsPB", "C:"),
        ("mttf forever", "mttf:"),
        ("mttf nan", "mttf_days"),
        ("gamma inf", "repair_bandwidth_bps"),
        ("mttf 1e-320d", "overflow"),
        ("B 1e-320B", "overflow"),
        ("N 10", "15 distinct nodes"),
        # C / (n B) underflows to no stripe at all
        ("C 1e-320", "C and B"),
        ("B 1e308", "C and B"),
        # ... or overflows to infinitely many
        ("C 1e308\nB 1e-10", "C and B"),
    ],
)
def test_mttdl_rejects_bad_parameter_values(
    capsys, code_file, tmp_path, line, named
):
    params = tmp_path / "cluster.cfg"
    params.write_text(line + "\n")
    rc, out, err = run(
        capsys, "mttdl", str(code_file), "--params", str(params)
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and named in err


def test_mttdl_beyond_float_range_is_inf(capsys, code_file, tmp_path):
    # the exact stripe MTTDL exceeds the largest float
    params = tmp_path / "cluster.cfg"
    params.write_text("mttf 1e308\n")
    rc, out, err = run(
        capsys, "mttdl", str(code_file), "--params", str(params)
    )
    assert (rc, err) == (0, "")
    assert out.splitlines()[:2] == [
        "mttdl_stripe inf days",
        "mttdl_system inf days",
    ]


def test_mttdl_outputs_units(capsys, code_file):
    rc, out, _ = run(capsys, "mttdl", str(code_file), "--units", "decimal")
    assert rc == 0
    assert "mttdl_stripe" in out and "mttdl_system" in out
    assert "units decimal convention" in out


def test_encode_decode_repair_cycle(capsys, code_file, tmp_path):
    rng = random.Random(0)
    payload = bytes(rng.randrange(256) for _ in range(4096))
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    shard_dir = tmp_path / "shards"

    rc, *_ = run(capsys, "encode", str(code_file), str(src),
                 "--out-dir", str(shard_dir))
    assert rc == 0
    assert len(list(shard_dir.glob("payload.bin.s*"))) == 15

    for victim in (2, 12, 15):
        (shard_dir / f"payload.bin.s{victim:02d}").unlink()
    out_file = tmp_path / "recovered.bin"
    rc, out, _ = run(capsys, "decode", str(code_file),
                     "--shards", str(shard_dir), "--out", str(out_file))
    assert rc == 0
    assert out_file.read_bytes() == payload

    (shard_dir / "payload.bin.s05").unlink()
    rc, out, _ = run(capsys, "repair", str(code_file),
                     "--shards", str(shard_dir), "--index", "5")
    assert rc == 0
    assert "helpers" in out
    # repaired shard matches a fresh encode
    rc, *_ = run(capsys, "decode", str(code_file),
                 "--shards", str(shard_dir), "--out", str(out_file))
    assert rc == 0
    assert out_file.read_bytes() == payload


def test_decode_refuses_foreign_shards(capsys, code_file, tmp_path):
    shard_dir = _encoded(capsys, code_file, tmp_path)
    other = tmp_path / "other.code"
    other.write_text(
        write_code_text(blrc_15_10_w3(seed=160)), encoding="ascii"
    )
    rc, _, err = run(capsys, "decode", str(other),
                     "--shards", str(shard_dir), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "different code file" in err


def test_repair_refuses_foreign_shards(capsys, code_file, tmp_path):
    shard_dir = _encoded(capsys, code_file, tmp_path)
    victim = shard_dir / "a.bin.s05"
    victim.unlink()
    other = tmp_path / "other.code"
    other.write_text(
        write_code_text(blrc_15_10_w3(seed=160)), encoding="ascii"
    )
    rc, _, err = run(capsys, "repair", str(other), "--shards", str(shard_dir))
    assert rc == 1
    assert "different code file" in err
    assert not victim.exists()


def test_repair_refuses_renamed_shard(capsys, code_file, tmp_path):
    # repair finds helpers by file name; a shard whose header names
    # another index would rebuild the lost shard from the wrong block
    shard_dir = _encoded(capsys, code_file, tmp_path)
    victim = shard_dir / "a.bin.s05"
    victim.unlink()
    first, second = shard_dir / "a.bin.s01", shard_dir / "a.bin.s02"
    body = first.read_bytes()
    first.write_bytes(second.read_bytes())
    second.write_bytes(body)
    rc, _, err = run(capsys, "repair", str(code_file),
                     "--shards", str(shard_dir))
    assert rc == 1
    assert "header says shard" in err
    assert not victim.exists()


@pytest.mark.parametrize("lost", [(1, 11, 12, 14), (2, 3, 5, 8, 13, 15)])
def test_repair_refuses_undecodable_losses(capsys, code_file, tmp_path, lost):
    # data block 1 with the three parities covering it, and more than r
    shard_dir = _encoded(capsys, code_file, tmp_path)
    for b in lost:
        (shard_dir / f"a.bin.s{b:02d}").unlink()
    left = sorted(shard_dir.iterdir())
    rc, out, err = run(capsys, "repair", str(code_file),
                       "--shards", str(shard_dir))
    assert rc == 1
    assert err == f"error: erasure pattern {lost} is not decodable\n"
    assert out == ""
    assert sorted(shard_dir.iterdir()) == left


@pytest.mark.parametrize("index", ["0", "99"])
def test_repair_rejects_index_outside_code_length(capsys, code_file, tmp_path,
                                                  index):
    shard_dir = _encoded(capsys, code_file, tmp_path)
    victim = shard_dir / "a.bin.s05"
    victim.unlink()
    rc, _, err = run(capsys, "repair", str(code_file),
                     "--shards", str(shard_dir), "--index", index)
    assert rc == 1
    assert err.startswith("error:") and "1..15" in err
    assert not victim.exists()


def test_search_cli_writes_valid_code(capsys, tmp_path):
    out = tmp_path / "found.code"
    trace = tmp_path / "trace.csv"
    rc, _, err = run(
        capsys, "search", "--n", "12", "--k", "8", "--d", "3",
        "--seed", "3", "--max-iterations", "15", "--patience", "6",
        "--restarts", "1", "--out", str(out), "--trace-out", str(trace),
    )
    assert rc == 0
    code, meta = read_code_text(out.read_text(encoding="ascii"))
    assert code.n == 12 and code.k == 8
    assert "search" in meta
    assert trace.read_text().startswith("restart,iteration,objective")


def test_search_single_parity_returns_first_valid_code(capsys, tmp_path):
    # r = 1: no pair is decodable, so the double average is NaN and the
    # climb never accepts a proposal
    out = tmp_path / "found.code"
    rc, _, err = run(
        capsys, "search", "--n", "12", "--k", "11", "--d", "2",
        "--out", str(out),
    )
    assert rc == 0, err
    code, _ = read_code_text(out.read_text(encoding="ascii"))
    assert (code.n, code.k) == (12, 11)
    assert validate(code.P, code.spec).passed


def test_search_infeasible_parameters(capsys):
    rc, _, err = run(capsys, "search", "--n", "12", "--k", "10", "--d", "4")
    assert rc == 1
    assert "parity slots" in err


@pytest.mark.parametrize("poly", ["0x100", "0x11b1"])
def test_search_rejects_bad_field_polynomial(capsys, monkeypatch, poly):
    # refused before any search step runs
    monkeypatch.setattr(cli, "hill_climb", None)
    rc, _, err = run(capsys, "search", "--n", "12", "--k", "8", "--d", "3",
                     "--field-poly", poly)
    assert rc == 1
    assert err.startswith("error: --field-poly:")


def test_compare_table_and_csv(capsys, tmp_path):
    rc, out, _ = run(capsys, "compare")
    assert rc == 0
    assert "3-replication" in out
    assert "[14, 10] RS" in out
    assert "BLRC" in out
    assert len([ln for ln in out.splitlines() if ln.strip()]) >= 8

    import csv as csvmod
    import io as iomod

    rc, out, _ = run(capsys, "compare", "--format", "csv")
    rows = list(csvmod.reader(iomod.StringIO(out)))[1:]
    assert [r[1] for r in rows] == ["2", "0.4", "0.6", "0.5", "0.6", "0.6"]
    assert [r[-1] for r in rows] == ["3", "5", "6", "4", "4", "3"]

    bw = tmp_path / "bw.csv"
    rc, out, _ = run(capsys, "compare", "--format", "csv",
                     "--bandwidth-csv", str(bw))
    assert rc == 0
    header = out.splitlines()[0]
    assert header.startswith("scheme,storage_overhead")
    bw_rows = list(csvmod.reader(iomod.StringIO(bw.read_text())))
    assert bw_rows[0] == ["scheme", "failures", "avg_repair_bandwidth"]
    assert ["[16, 10] Azure LRC", "1", "6.25"] in bw_rows
    # replication stops contributing once a third copy failure loses data
    assert ["3-replication", "3", "1"] not in bw_rows


def test_cycle_with_three_digit_shard_indices(capsys, tmp_path):
    # a [101, 100] code names its last shards a.bin.s100 and a.bin.s101
    spec = CodeSpec(101, 100, 1)
    code = assign_coefficients(random_support(spec, 1), spec, seed=1)
    code_file = tmp_path / "long.code"
    code_file.write_text(write_code_text(code), encoding="ascii")
    payload = bytes(random.Random(5).randrange(256) for _ in range(3000))
    src = tmp_path / "a.bin"
    src.write_bytes(payload)
    shard_dir = tmp_path / "shards"
    rc, *_ = run(capsys, "encode", str(code_file), str(src),
                 "--out-dir", str(shard_dir))
    assert rc == 0
    out_file = tmp_path / "out.bin"
    rc, out, err = run(capsys, "decode", str(code_file),
                       "--shards", str(shard_dir), "--out", str(out_file))
    assert (rc, err) == (0, "")
    assert out == "decoded 3000 bytes from 101 shards (missing: none)\n"
    assert out_file.read_bytes() == payload

    victim = shard_dir / "a.bin.s100"
    body = victim.read_bytes()
    victim.unlink()
    rc, out, err = run(capsys, "repair", str(code_file),
                       "--shards", str(shard_dir), "--index", "100")
    assert (rc, err) == (0, "")
    assert out.startswith("repaired shards [100] by reading 100 helpers")
    assert victim.read_bytes() == body


def test_decode_refuses_swapped_shards(capsys, code_file, tmp_path):
    # decode keys payloads by file name, like repair
    shard_dir = _encoded(capsys, code_file, tmp_path)
    first, second = shard_dir / "a.bin.s01", shard_dir / "a.bin.s02"
    body = first.read_bytes()
    first.write_bytes(second.read_bytes())
    second.write_bytes(body)
    out_file = tmp_path / "x"
    rc, out, err = run(capsys, "decode", str(code_file),
                       "--shards", str(shard_dir), "--out", str(out_file))
    assert (rc, out) == (1, "")
    assert err == f"error: {first}: header says shard 2\n"
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["decode", "repair"])
def test_two_shard_sets_need_a_stem(capsys, code_file, tmp_path, command):
    shard_dir = _encoded(capsys, code_file, tmp_path, "a.bin")
    _encoded(capsys, code_file, tmp_path, "b.bin")
    (shard_dir / "a.bin.s05").unlink()
    left = sorted(shard_dir.iterdir())
    out_arg = ["--out", str(tmp_path / "x")] if command == "decode" else []
    rc, out, err = run(capsys, command, str(code_file),
                       "--shards", str(shard_dir), *out_arg)
    assert (rc, out) == (1, "")
    assert err == (
        f"error: multiple shard sets in {shard_dir}: ['a.bin', 'b.bin'];"
        " pass --stem\n"
    )
    assert sorted(shard_dir.iterdir()) == left


def test_repair_stem_naming_no_file(capsys, code_file, tmp_path):
    shard_dir = _encoded(capsys, code_file, tmp_path)
    rc, out, err = run(capsys, "repair", str(code_file),
                       "--shards", str(shard_dir), "--stem", "b.bin")
    assert (rc, out) == (1, "")
    assert err == f"error: no shard files found in {shard_dir}\n"


def test_repair_of_a_zero_block_writes_its_shard(capsys, tmp_path):
    # a valid [7, 2] w=1 code has all-zero parities, whose plans read no
    # helper: the shard is zeros, with the stripes of a present header
    spec = CodeSpec(7, 2, 1)
    code = assign_coefficients(random_support(spec, 1), spec, seed=1)
    assert [row[2] for row in code.P.data] == [0, 0]
    code_file = tmp_path / "short.code"
    code_file.write_text(write_code_text(code), encoding="ascii")
    shard_dir = _encoded(capsys, code_file, tmp_path)
    encoded = (shard_dir / "a.bin.s05").read_bytes()
    (shard_dir / "a.bin.s05").unlink()
    rc, out, err = run(capsys, "repair", str(code_file),
                       "--shards", str(shard_dir))
    assert (rc, err) == (0, "")
    assert out == "repaired shards [5] by reading 0 helpers: []\n"
    assert (shard_dir / "a.bin.s05").read_bytes() == encoded
