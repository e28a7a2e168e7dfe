"""File striping: encode a byte stream into n shard files, decode it back
from any decodable subset, and rebuild single shards from a repair plan.

One stripe holds k consecutive payload bytes, one byte per shard (so the
field must be GF(2^8)); the input is zero-padded to a whole number of
stripes and the original length travels in the shard header.  Per-shard
streams are computed with byte-translation tables and wide integer XORs,
which keeps the per-byte work in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .analysis import RepairPlan
from .code import SystematicCode, UndecodableError
from .gf import FieldSpec
from .linalg import GfMatrix, span_coefficients

SHARD_MAGIC = "blrc-shard v1"


class ShardError(ValueError):
    """A shard file is malformed or inconsistent with the code."""


@dataclass(frozen=True)
class ShardHeader:
    code_digest: str
    index: int
    stripes: int
    data_length: int


def _mul_table(field: FieldSpec, c: int) -> bytes:
    if field.m != 8:
        raise ShardError("file sharding requires GF(2^8), one byte per block")
    return bytes(field.mul(c, x) for x in range(256))


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big") if a else a


def _accumulate(parts: list[tuple[int, bytes]], field: FieldSpec, length: int) -> bytes:
    """XOR-sum of coefficient * stream over all parts."""
    acc = bytes(length)
    for coeff, stream in parts:
        if coeff == 0:
            continue
        term = stream if coeff == 1 else stream.translate(_mul_table(field, coeff))
        acc = _xor_bytes(acc, term)
    return acc


def encode_stream(code: SystematicCode, data: bytes) -> list[bytes]:
    """Split data into k interleaved streams and derive the r parity
    streams; returns n payloads of equal length."""
    if code.field.m != 8:
        raise ShardError("file sharding requires GF(2^8), one byte per block")
    k = code.k
    stripes = (len(data) + k - 1) // k
    padded = data.ljust(stripes * k, b"\0")
    shards = [padded[i::k] for i in range(k)]
    for j in range(code.r):
        parts = [
            (code.P.data[i][j], shards[i])
            for i in range(k)
            if code.P.data[i][j]
        ]
        shards.append(_accumulate(parts, code.field, stripes))
    return shards


def decode_stream(
    code: SystematicCode, shards: dict[int, bytes], data_length: int
) -> bytes:
    """Rebuild the original bytes from any decodable subset of shard
    payloads (1-based block index -> payload)."""
    if not shards:
        raise ShardError("no shards supplied")
    lengths = {len(v) for v in shards.values()}
    if len(lengths) != 1:
        raise ShardError(f"shard payload lengths differ: {sorted(lengths)}")
    stripes = lengths.pop()
    k = code.k
    if data_length > stripes * k:
        raise ShardError("data length exceeds shard capacity")
    present = sorted(shards)
    missing_data = [b for b in range(1, k + 1) if b not in shards]
    if missing_data:
        erased = tuple(b for b in range(1, code.n + 1) if b not in shards)
        cols = GfMatrix(
            [
                [code.generator_column(b)[i] for b in present]
                for i in range(k)
            ],
            code.field,
        )
        streams = dict(shards)
        for b in missing_data:
            coeffs = span_coefficients(cols, code.generator_column(b))
            if coeffs is None:
                raise UndecodableError(erased)
            parts = [
                (c, shards[h]) for c, h in zip(coeffs, present) if c
            ]
            streams[b] = _accumulate(parts, code.field, stripes)
    else:
        streams = shards
    out = bytearray(stripes * k)
    for i in range(k):
        out[i::k] = streams[i + 1]
    return bytes(out[:data_length])


def repair_stream(
    code: SystematicCode,
    plan: RepairPlan,
    helper_payloads: dict[int, bytes],
) -> dict[int, bytes]:
    """Rebuild the payloads of the erased blocks from the helper payloads
    named by the plan (and nothing else)."""
    missing = [b for b in plan.helpers if b not in helper_payloads]
    if missing:
        raise ShardError(f"missing helper payloads for blocks {missing}")
    lengths = {len(helper_payloads[b]) for b in plan.helpers}
    if len(lengths) != 1:
        raise ShardError("helper payload lengths differ")
    stripes = lengths.pop()
    cols = GfMatrix(
        [
            [code.generator_column(b)[i] for b in plan.helpers]
            for i in range(code.k)
        ],
        code.field,
    )
    out = {}
    for e in plan.erased:
        coeffs = span_coefficients(cols, code.generator_column(e))
        if coeffs is None:
            raise UndecodableError(plan.erased)
        parts = [
            (c, helper_payloads[h]) for c, h in zip(coeffs, plan.helpers) if c
        ]
        out[e] = _accumulate(parts, code.field, stripes)
    return out


def shard_path(directory: Path, stem: str, index: int) -> Path:
    return directory / f"{stem}.s{index:02d}"


def write_shard(
    path: Path, header: ShardHeader, payload: bytes
) -> None:
    if len(payload) != header.stripes:
        raise ShardError("payload length does not match stripe count")
    head = (
        f"{SHARD_MAGIC}\n"
        f"code {header.code_digest}\n"
        f"index {header.index}\n"
        f"stripes {header.stripes}\n"
        f"length {header.data_length}\n"
        "\n"
    )
    path.write_bytes(head.encode("ascii") + payload)


def read_shard(path: Path) -> tuple[ShardHeader, bytes]:
    blob = path.read_bytes()
    sep = blob.find(b"\n\n")
    if sep < 0 or not blob.startswith(SHARD_MAGIC.encode("ascii")):
        raise ShardError(f"{path}: not a shard file")
    fields: dict[str, str] = {}
    for line in blob[: sep].decode("ascii").splitlines()[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    try:
        header = ShardHeader(
            code_digest=fields["code"],
            index=int(fields["index"]),
            stripes=int(fields["stripes"]),
            data_length=int(fields["length"]),
        )
    except (KeyError, ValueError) as exc:
        raise ShardError(f"{path}: bad shard header ({exc})") from None
    payload = blob[sep + 2 :]
    if len(payload) != header.stripes:
        raise ShardError(
            f"{path}: payload is {len(payload)} bytes, header says"
            f" {header.stripes}"
        )
    return header, payload
