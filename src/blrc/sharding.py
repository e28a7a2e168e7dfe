"""File striping: encode a byte stream into n shard files, decode it back
from any decodable subset, and rebuild single shards from a repair plan.

Block i of a file is the shard file <stem>.s<i>, i with at least two digits
(shard_path).  shard_sets finds the sets of a directory, and read_shard_set
reads one, refusing shards whose headers do not agree with it.

One stripe holds k consecutive payload bytes, one byte per shard (so the
field must be GF(2^8)); the input is zero-padded to a whole number of
stripes and the original length travels in the shard header.  Per-shard
streams are computed with the field's translate tables (FieldSpec.mul_tables)
and wide integer XORs, which keeps the per-byte work in C.

Decoding and repair rebuild streams in the order of code.recovery_steps,
so a lost block whose local group survives costs one term per block of
the group, and only the blocks left over are solved jointly.  Decoding
rebuilds only the lost data blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .analysis import RepairPlan
from .code import SystematicCode, UndecodableError, recovery_steps
from .gf import FieldSpec

SHARD_MAGIC = "blrc-shard v1"


class ShardError(ValueError):
    """A shard file is malformed or inconsistent with the code."""


@dataclass(frozen=True)
class ShardHeader:
    code_digest: str
    index: int
    stripes: int
    data_length: int


def _accumulate(parts: list[tuple[int, bytes]], field: FieldSpec, length: int) -> bytes:
    """XOR-sum of coefficient * stream over all parts, summed as one wide
    integer and converted back to bytes once."""
    if field.m != 8:
        raise ShardError("file sharding requires GF(2^8), one byte per block")
    acc = 0
    for coeff, stream in parts:
        if coeff == 0:
            continue
        if len(stream) != length:
            raise ValueError("length mismatch")
        term = stream if coeff == 1 else stream.translate(field.mul_tables[coeff])
        acc ^= int.from_bytes(term, "big")
    return acc.to_bytes(length, "big")


def encode_stream(code: SystematicCode, data: bytes) -> list[bytes]:
    """Split data into k interleaved streams and derive the r parity
    streams; returns n payloads of equal length."""
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
    payloads (1-based block index -> payload).  Only the missing data
    blocks are rebuilt; UndecodableError names every missing block."""
    if not shards:
        raise ShardError("no shards supplied")
    lengths = {len(v) for v in shards.values()}
    if len(lengths) != 1:
        raise ShardError(f"shard payload lengths differ: {sorted(lengths)}")
    stripes = lengths.pop()
    k = code.k
    if data_length > stripes * k:
        raise ShardError("data length exceeds shard capacity")
    erased = tuple(b for b in range(1, code.n + 1) if b not in shards)
    try:
        steps = recovery_steps(code, sorted(shards), [b for b in erased if b <= k])
    except UndecodableError:
        # every block is a combination of the data blocks, so the missing
        # set is undecodable exactly when its data blocks are
        raise UndecodableError(erased) from None
    streams = dict(shards)
    for b, terms in steps:
        parts = [(c, streams[s]) for c, s in terms]
        streams[b] = _accumulate(parts, code.field, stripes)
    out = bytearray(stripes * k)
    for i in range(k):
        out[i::k] = streams[i + 1]
    del out[data_length:]
    return bytes(out)


def repair_stream(
    code: SystematicCode,
    plan: RepairPlan,
    helper_payloads: dict[int, bytes],
) -> dict[int, bytes]:
    """Rebuild the payloads of the erased blocks from the helper payloads
    named by the plan (and nothing else), by recovery_steps."""
    missing = [b for b in plan.helpers if b not in helper_payloads]
    if missing:
        raise ShardError(f"missing helper payloads for blocks {missing}")
    lengths = {len(helper_payloads[b]) for b in plan.helpers}
    if len(lengths) != 1:
        raise ShardError("helper payload lengths differ")
    stripes = lengths.pop()
    streams = {b: helper_payloads[b] for b in plan.helpers}
    for e, terms in recovery_steps(code, plan.helpers, plan.erased):
        parts = [(c, streams[s]) for c, s in terms]
        streams[e] = _accumulate(parts, code.field, stripes)
    return {e: streams[e] for e in plan.erased}


def shard_path(directory: Path, stem: str, index: int) -> Path:
    return directory / f"{stem}.s{index:02d}"


def shard_sets(directory: Path) -> dict[str, dict[int, Path]]:
    """The shard files in directory by stem and then block index, in index
    order: every name that shard_path gives for some index >= 1."""
    sets: dict[str, dict[int, Path]] = {}
    for path in directory.glob("*.s*"):
        stem, _, i = path.name.rpartition(".s")
        if i.isdecimal() and int(i) and path == shard_path(directory, stem, int(i)):
            sets.setdefault(stem, {})[int(i)] = path
    return {stem: dict(sorted(files.items())) for stem, files in sets.items()}


def read_shard_set(
    files: dict[int, Path], indices, digest: str
) -> tuple[dict[int, bytes], ShardHeader]:
    """The payloads of the shard files at the given block indices of files,
    and the header they share but for the index.  Raises ShardError for a
    header naming another block than its file, a shard of a code file
    other than the one whose digest is given, and headers that disagree
    on stripes or length."""
    payloads, headers = {}, []
    for b in indices:
        header, payloads[b] = read_shard(files[b])
        if header.index != b:
            raise ShardError(f"{files[b]}: header says shard {header.index}")
        headers.append(header)
    if not headers:
        raise ShardError("no shards to read")
    foreign = sorted({h.code_digest for h in headers} - {digest})
    if foreign:
        raise ShardError(
            "shard headers reference a different code file"
            f" (expected digest {digest[:12]}..., found {foreign[0][:12]}...)"
        )
    if len({(h.stripes, h.data_length) for h in headers}) > 1:
        raise ShardError("shard headers disagree on data length or stripes")
    return payloads, headers[0]


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
    try:
        for line in blob[: sep].decode("ascii").splitlines()[1:]:
            key, _, value = line.partition(" ")
            fields[key] = value
        header = ShardHeader(
            code_digest=fields["code"],
            index=int(fields["index"]),
            stripes=int(fields["stripes"]),
            data_length=int(fields["length"]),
        )
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ShardError(f"{path}: bad shard header ({exc})") from None
    payload = blob[sep + 2 :]
    if len(payload) != header.stripes:
        raise ShardError(
            f"{path}: payload is {len(payload)} bytes, header says"
            f" {header.stripes}"
        )
    return header, payload
