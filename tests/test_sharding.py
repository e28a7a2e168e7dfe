import itertools
import random

import pytest

from blrc.analysis import RepairPlan, minimal_repair, repair_values
from blrc.code import (
    CodeSpec,
    SystematicCode,
    UndecodableError,
    assign_coefficients,
    decodable,
    decode_erasure,
    encode,
)
from blrc.gf import GF256, FieldSpec
from blrc.linalg import GfMatrix
from blrc.search import random_support
from blrc.sharding import (
    ShardError,
    ShardHeader,
    decode_stream,
    encode_stream,
    read_shard,
    repair_stream,
    shard_path,
    shard_sets,
    write_shard,
)
from util_oracles import oracle_product, random_valid_code

SHAPES = ((8, 5, 2), (12, 8, 3), (16, 10, 2))


def test_encode_decode_round_trip_full(code_15_10):
    data = bytes(range(256)) * 5 + b"tail"
    shards = encode_stream(code_15_10, data)
    assert len(shards) == 15
    full = {i + 1: s for i, s in enumerate(shards)}
    assert decode_stream(code_15_10, full, len(data)) == data


def test_encode_is_deterministic(code_15_10):
    data = b"determinism check" * 33
    assert encode_stream(code_15_10, data) == encode_stream(code_15_10, data)


def test_padding_and_exact_length(code_15_10):
    for size in (0, 1, 9, 10, 11, 137):
        data = bytes((i * 7) % 256 for i in range(size))
        shards = encode_stream(code_15_10, data)
        full = {i + 1: s for i, s in enumerate(shards)}
        assert decode_stream(code_15_10, full, size) == data


def test_shards_agree_with_symbol_encoding(code_15_10):
    # stripe by stripe, the shards are data @ P by the oracle's arithmetic,
    # and the symbol codeword: for the bundled code, random codes, and a
    # [5, 3] code whose parity 5 covers no data block, so is all zeros
    rng = random.Random(1)
    codes = [code_15_10, *(random_valid_code(rng, *shape, GF256) for shape in SHAPES)]
    codes.append(SystematicCode(GfMatrix([[1, 0], [2, 0], [3, 0]], GF256)))
    stripes = 3
    for code in codes:
        k = code.k
        data = bytes(rng.randrange(256) for _ in range(stripes * k - 1))
        shards = encode_stream(code, data)
        padded, columns = data + b"\0", list(zip(*code.P.data))
        for stripe in range(stripes):
            symbols = list(padded[stripe * k : (stripe + 1) * k])
            cw = symbols + oracle_product(columns, symbols, GF256)
            assert [shards[b][stripe] for b in range(code.n)] == cw
            assert encode(code, symbols) == cw
    assert shards[4] == bytes(stripes)


def test_shards_agree_with_symbol_recovery(code_15_10):
    # stripe by stripe, the stream paths rebuild what the symbol paths do,
    # for every decodable pattern of up to three blocks
    rng = random.Random(4)
    stripes = 3
    data = bytes(rng.randrange(256) for _ in range(stripes * 10))
    shards = encode_stream(code_15_10, data)
    codewords = [[shards[b][s] for b in range(15)] for s in range(stripes)]
    patterns = [
        pattern
        for f in (1, 2, 3)
        for pattern in itertools.combinations(range(1, 16), f)
        if decodable(code_15_10, pattern)
    ]
    assert len(patterns) == 15 + 105 + 455
    for pattern in patterns:
        partial = {
            b: shards[b - 1] for b in range(1, 16) if b not in pattern
        }
        assert decode_stream(code_15_10, partial, len(data)) == data
        plan = minimal_repair(code_15_10, pattern)
        rebuilt = repair_stream(
            code_15_10, plan, {b: shards[b - 1] for b in plan.helpers}
        )
        for s, cw in enumerate(codewords):
            received = [
                None if b in pattern else cw[b - 1] for b in range(1, 16)
            ]
            decoded = decode_erasure(code_15_10, received, pattern)
            assert bytes(decoded[:10]) == data[s * 10 : (s + 1) * 10]
            values = repair_values(
                code_15_10, plan, {b: cw[b - 1] for b in plan.helpers}
            )
            assert values == {e: rebuilt[e][s] for e in pattern}
            assert values == {e: decoded[e - 1] for e in pattern}


def test_streams_rebuilt_for_every_pattern_of_the_bundled_codes(bundled_recoveries):
    # every decodable pattern of at most three blocks of each bundled code:
    # repair_stream rebuilds the lost shards from the plan's helpers and
    # from every survivor, and decode_stream restores the payload
    payloads = {}
    for code, pattern, helper_sets in bundled_recoveries:
        if id(code) not in payloads:
            data = random.Random(code.n + code.spec.w).randbytes(23 * code.k - 5)
            payloads[id(code)] = data, encode_stream(code, data)
        data, shards = payloads[id(code)]
        lost = {e: shards[e - 1] for e in pattern}
        for helpers in helper_sets:
            plan = RepairPlan(pattern, helpers, len(helpers))
            given = {b: shards[b - 1] for b in helpers}
            assert repair_stream(code, plan, given) == lost
        survivors = {b: shards[b - 1] for b in helper_sets[1]}
        assert decode_stream(code, survivors, len(data)) == data


def test_zero_column_parity_stream_is_rebuilt_as_zeros():
    # parity 5 of this [5, 3] code covers no data block, so it is zeros
    code = SystematicCode(GfMatrix([[1, 0], [2, 0], [3, 0]], GF256))
    data = bytes(range(1, 31))
    shards = encode_stream(code, data)
    assert shards[4] == bytes(10)
    plan = minimal_repair(code, (1, 5))
    rebuilt = repair_stream(code, plan, {b: shards[b - 1] for b in plan.helpers})
    assert rebuilt == {1: shards[0], 5: bytes(10)}
    assert repair_values(code, plan, {b: 1 for b in plan.helpers})[5] == 0
    assert decode_stream(code, {2: shards[1], 3: shards[2], 4: shards[3]}, 30) == data


def test_repair_of_a_plan_with_no_helper_takes_the_length_of_any_payload():
    # parity 5 of this [7, 2] w=1 code covers no data block, so its plan
    # reads no helper, and the payload given only sets the stripe count
    spec = CodeSpec(7, 2, 1)
    code = assign_coefficients(random_support(spec, 1), spec, seed=1)
    plan = minimal_repair(code, (5,))
    assert plan.helpers == ()
    shards = encode_stream(code, bytes(range(1, 24)))
    assert repair_stream(code, plan, {1: shards[0]}) == {5: bytes(12)}
    with pytest.raises(ShardError):
        repair_stream(code, plan, {})


def test_symbol_recovery_round_trip_gf65536():
    # the symbol paths take any field; the stream paths only GF(2^8)
    from blrc.presets import blrc_15_10_w3

    field = FieldSpec(16, 0x1100B)
    code = blrc_15_10_w3(field=field)
    rng = random.Random(5)
    data = [rng.randrange(field.order) for _ in range(10)]
    cw = encode(code, data)
    assert max(cw[10:]) > 255
    for pattern in [(1,), (3, 12), (1, 2, 3), (9, 14, 15), (11, 12, 13)]:
        received = [None if b in pattern else cw[b - 1] for b in range(1, 16)]
        assert decode_erasure(code, received, pattern) == cw
        plan = minimal_repair(code, pattern)
        helpers = {b: cw[b - 1] for b in plan.helpers}
        values = repair_values(code, plan, helpers)
        assert values == {e: cw[e - 1] for e in pattern}
    with pytest.raises(ShardError):
        encode_stream(code, b"abc")


def test_decode_with_missing_shards(code_15_10):
    rng = random.Random(2)
    data = bytes(rng.randrange(256) for _ in range(997))
    shards = encode_stream(code_15_10, data)
    available = {i + 1: s for i, s in enumerate(shards)}
    for erased in [(1, 2, 3), (1, 11, 15), (9, 10, 12)]:
        partial = {b: v for b, v in available.items() if b not in erased}
        assert decode_stream(code_15_10, partial, len(data)) == data


def test_decode_undecodable_pattern_raises(code_15_10):
    from blrc.code import support_of

    data = b"x" * 100
    shards = encode_stream(code_15_10, data)
    cols = support_of(code_15_10.P)[0]
    erased = set([1] + [11 + j for j in cols])
    partial = {
        i + 1: s for i, s in enumerate(shards) if (i + 1) not in erased
    }
    with pytest.raises(UndecodableError) as exc:
        decode_stream(code_15_10, partial, len(data))
    assert exc.value.pattern == tuple(sorted(erased))


def test_repair_stream_matches_original(code_15_10):
    rng = random.Random(3)
    data = bytes(rng.randrange(256) for _ in range(500))
    shards = encode_stream(code_15_10, data)
    for target in (1, 7, 11, 14):
        plan = minimal_repair(code_15_10, (target,))
        helpers = {b: shards[b - 1] for b in plan.helpers}
        rebuilt = repair_stream(code_15_10, plan, helpers)
        assert rebuilt[target] == shards[target - 1]


def test_repair_stream_requires_all_helpers(code_15_10):
    data = b"y" * 40
    shards = encode_stream(code_15_10, data)
    plan = minimal_repair(code_15_10, (2,))
    helpers = {b: shards[b - 1] for b in plan.helpers}
    helpers.pop(plan.helpers[0])
    with pytest.raises(ShardError):
        repair_stream(code_15_10, plan, helpers)


def test_non_byte_field_rejected():
    field = FieldSpec(4, 0b10011)
    spec = CodeSpec(8, 5, 2, field)
    code = assign_coefficients(random_support(spec, seed=1), spec, seed=1)
    with pytest.raises(ShardError):
        encode_stream(code, b"abc")


def test_shard_file_round_trip(tmp_path):
    header = ShardHeader("ab" * 32, 3, 11, 100)
    payload = bytes(range(11))
    path = shard_path(tmp_path, "demo.bin", 3)
    write_shard(path, header, payload)
    assert path.name == "demo.bin.s03"
    back_header, back_payload = read_shard(path)
    assert back_header == header
    assert back_payload == payload


def test_shard_file_errors(tmp_path):
    path = tmp_path / "bad.s01"
    path.write_bytes(b"junk")
    with pytest.raises(ShardError):
        read_shard(path)
    with pytest.raises(ShardError):
        write_shard(path, ShardHeader("d", 1, 5, 3), b"too-short")


def test_negative_data_length_rejected(code_15_10):
    shards = encode_stream(code_15_10, b"z" * 50)
    with pytest.raises(ShardError):
        decode_stream(code_15_10, dict(enumerate(shards, start=1)), -1)


def test_mismatched_payload_lengths_rejected(code_15_10):
    shards = encode_stream(code_15_10, b"z" * 50)
    partial = {1: shards[0], 2: shards[1][:-1]}
    with pytest.raises(ShardError):
        decode_stream(code_15_10, partial, 10)


def test_shard_sets_take_exactly_the_names_shard_path_gives(tmp_path):
    names = ["x.s01", "x.s100", "x.s20", "y.s07", "x.s5", "x.s1x", "x.sab", "x.s00",
             "x.s007", "x.s", "x.bin", "z.s1٣"]
    for name in names:
        (tmp_path / name).write_bytes(b"")
    assert shard_sets(tmp_path) == {
        "x": {
            1: tmp_path / "x.s01",
            20: tmp_path / "x.s20",
            100: tmp_path / "x.s100",
        },
        "y": {7: tmp_path / "y.s07"},
    }
    assert list(shard_sets(tmp_path)["x"]) == [1, 20, 100]
    assert shard_sets(tmp_path / "nowhere") == {}
