"""The benchmark's three parts and the workloads built from them.

Each workload runs whole rounds of the same operations.  A round runs a
search part, a catalogue part and a shards part; the workload's own part
is the full one and the other two are light, so every end-to-end and
per-layer metric is measured on every workload while the workload's own
part takes most of the time.

All inputs come from the workload seed.  A round repeats the same seeded
operations, so the first round's outputs are checked against the oracles
and every later round must reproduce them exactly.
"""

from __future__ import annotations

import math
import random
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import checks
from checks import CheckError

perf = time.perf_counter


@dataclass
class Measures:
    """What a run measured, summed over its rounds."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    search_s: float = 0.0
    search_evals: int = 0
    best_doubles: list[float] = field(default_factory=list)
    catalogue_s: list[float] = field(default_factory=list)
    encode_MBps: list[float] = field(default_factory=list)
    decode_MBps: list[float] = field(default_factory=list)
    repair_ms: list[float] = field(default_factory=list)

    def attempt(self, what: str, fn, *args):
        """Run one operation; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # an operation that raises is a failure, not a crash
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckError as exc:
            self.problems.append(str(exc))
            print(f"CHECK {exc}", file=sys.stderr)


def _expect_same(m: Measures, what: str, got, want) -> None:
    if got != want:
        m.problems.append(f"{what} changed between rounds")
        print(f"CHECK {what} changed between rounds", file=sys.stderr)


class SearchPart:
    """Seeded fixed-budget hill climbs, one restart each."""

    def __init__(self, shapes, iterations: int):
        self.shapes = shapes
        self.iterations = iterations

    def prepare(self, lib, rng: random.Random, workdir: Path) -> None:
        self.configs = [
            lib.search.SearchConfig(
                n, k, d, seed=rng.randrange(2**32),
                max_iterations=self.iterations, patience=self.iterations,
                restarts=1,
            )
            for n, k, d in self.shapes
        ]
        self.exact_double = lib.analysis.avg_repair_bandwidth_double
        self.first: list = [None] * len(self.configs)

    def run(self, lib, tr, m: Measures, first: bool) -> None:
        for i, cfg in enumerate(self.configs):
            t0 = perf()
            out = m.attempt(f"hill_climb {cfg}", tr.call, "search.hill_climb",
                            lib.search.hill_climb, cfg)
            m.search_s += perf() - t0
            if out is None:
                continue
            code, trace = out
            entries = [
                (e.restart, e.iteration, e.objective, e.accepted, e.best)
                for e in trace.entries
            ]
            m.search_evals += sum(1 for e in entries if math.isfinite(e[2]))
            proposals = [e for e in entries if e[1] > 0]
            tr.count("search.candidates", len(proposals))
            tr.count("search.construction_failures",
                     sum(1 for e in proposals if not math.isfinite(e[2])))
            tr.count("search.accepted", sum(1 for e in proposals if e[3]))
            result = (code.P.data, entries)
            if first:
                double = self.exact_double(code).mean_cost
                m.check(checks.check_search, code.P.data, cfg.d - 1, entries, double)
                m.best_doubles.append(double)
                self.first[i] = result
            else:
                _expect_same(m, f"search {i}", result, self.first[i])


def random_valid_code(lib, rng: random.Random, n: int, k: int, w: int):
    spec = lib.code.CodeSpec(n, k, w)
    while True:
        support = lib.search.random_support(spec, seed=rng.randrange(2**62))
        try:
            return lib.code.assign_coefficients(support, spec, seed=rng.randrange(2**62))
        except lib.code.ConstructionError:
            continue


def _roundtrip(codefile, code):
    text = codefile.write_code_text(code)
    back, _ = codefile.read_code_text(text)
    return text, back


class CataloguePart:
    """One pass computes what `blrc compare --bandwidth-csv` computes for
    the named references and bundled codes, then builds the report,
    validates, round-trips the code file and solves the MTTDL of seeded
    random balanced LRCs of the given shapes.  The first random shape gets
    its repair averages checked by all-subsets search."""

    def __init__(self, references, bundled, shapes):
        self.references = references
        self.bundled = bundled
        self.shapes = shapes

    def prepare(self, lib, rng: random.Random, workdir: Path) -> None:
        self.params = lib.reliability.ReliabilityParams.defaults()
        self.codes = [lib.presets.BUNDLED[name]() for name in self.bundled]
        self.random = [random_valid_code(lib, rng, *s) for s in self.shapes]
        self.first = None

    def _reference(self, lib, name: str):
        rc = lib.refcodes
        return {
            "replication": (rc.build_replication, 3),
            "rs": (rc.build_rs, 14, 10),
            "xorbas": (rc.build_xorbas_lrc,),
            "azure": (rc.build_azure_lrc,),
        }[name]

    def run(self, lib, tr, m: Measures, first: bool) -> None:
        a, rel = lib.analysis, lib.reliability
        # (label, n, k, report, parity rows or None, distance bound,
        #  bound guaranteed, l)
        items = []
        t0 = perf()
        for name in self.references:
            fn, *args = self._reference(lib, name)
            ref = m.attempt(name, tr.call, "refcodes.build", fn, *args)
            if ref is None:
                continue
            mds = name in ("replication", "rs")
            P = ref.code.P.data if ref.code is not None else None
            singleton = ref.n - ref.k + 1
            if ref.structural_report in (None, ref.report):
                items.append((name, ref.n, ref.k, ref.report, P, singleton, mds, None))
            else:  # a designed report, and the structural one of its matrix
                items.append((name, ref.n, ref.k, ref.report, None, singleton, False, None))
                items.append((name + " structural", ref.n, ref.k,
                              ref.structural_report, P, singleton, False, None))
        extra = []
        for label, code in [(b, c) for b, c in zip(self.bundled, self.codes)] + [
            (f"random {s}", c) for s, c in zip(self.shapes, self.random)
        ]:
            report = m.attempt(label, tr.call, "analysis.build_report", a.build_report, code)
            if report is None:
                continue
            # bundled codes were screened to reach distance w+1; unscreened
            # random draws can fall short of it
            items.append((label, code.n, code.k, report, code.P.data,
                          code.spec.w + 1, label in self.bundled, code.spec.l))
            if label.startswith("random"):
                valid = tr.call("code.validate", lib.code.validate, code.P, code.spec)
                text, back = tr.call("codefile.roundtrip", _roundtrip, lib.codefile, code)
                extra.append((label, valid.passed, text, back.P == code.P and back.spec == code.spec))
        mttdl = []
        for label, n, k, report, *_ in items:
            model = tr.call("reliability.build_model", rel.build_model, report, n, k, self.params)
            stripe = tr.call("reliability.mttdl_stripe", rel.mttdl_stripe, model)
            mttdl.append((stripe, rel.mttdl_system(stripe, n, self.params)))
        m.catalogue_s.append(perf() - t0)

        result = ([it[:4] for it in items], mttdl, extra)
        if not first:
            _expect_same(m, "catalogue pass", result, self.first)
            return
        self.first = result
        for (label, n, k, report, P, dist, exact, l), (stripe, system) in zip(items, mttdl):
            m.check(checks.check_report, report, P, n, k, dist, exact, l)
            m.check(checks.check_mttdl, report, n, k, self.params, stripe, system)
        for (label, passed, text, same), code, shape in zip(extra, self.random, self.shapes):
            m.check(checks.check_balanced, code.P.data, shape[2])
            if not passed:
                m.problems.append(f"{label}: validate() rejects a valid code")
            if not same:
                m.problems.append(f"{label}: code file round trip changed the code")
        if self.random:
            report = next(it[3] for it in items if it[0] == f"random {self.shapes[0]}")
            m.check(checks.check_exact_averages, self.random[0].P.data,
                    report.avg_repair_single, report.avg_repair_double)


class ShardSet(NamedTuple):
    """One payload coded with one bundled code, and what its decodes lose."""

    code: object
    digest: str
    payload: bytes
    directory: Path
    losses: list


class ShardsPart:
    """Encode seeded payloads with each bundled code into shard files,
    restore each payload from shards with w data shards missing, then
    replay seeded loss events: each loses 1 to 3 shards of one payload in
    a decodable pattern and is repaired by plan, helper reads,
    repair_stream and shard writes."""

    ORACLE_EVENTS = 2
    SAMPLED_STRIPES = 48

    def __init__(self, payload_bytes: int, files: int, decodes: int, events: int):
        self.payload_bytes = payload_bytes
        self.files = files
        self.decodes = decodes
        self.events = events

    def prepare(self, lib, rng: random.Random, workdir: Path) -> None:
        self.sets: list[ShardSet] = []
        codes = [builder() for _, builder in sorted(lib.presets.BUNDLED.items())]
        base = Path(tempfile.mkdtemp(dir=workdir))
        for f in range(self.files):
            for c, code in enumerate(codes):
                digest = lib.codefile.code_digest(lib.codefile.write_code_text(code))
                payload = rng.randbytes(self.payload_bytes)
                d = base / f"code{c}-file{f}"
                d.mkdir()
                losses = [
                    tuple(sorted(rng.sample(range(1, code.k + 1), code.spec.w)))
                    for _ in range(self.decodes)
                ]
                self.sets.append(ShardSet(code, digest, payload, d, losses))
        # events cycle through every code and, for 1 to 3 lost shards,
        # every split between data and parity shards, so each run holds the
        # same mix and only the file and the lost blocks vary
        kinds = [(f, d) for f in (1, 2, 3) for d in range(f + 1)]
        self.loss_events = []
        for i in range(self.events):
            c, (f, d) = i % len(codes), kinds[(i // len(codes)) % len(kinds)]
            code = codes[c]
            s = len(codes) * rng.randrange(self.files) + c
            while True:
                lost = tuple(sorted(
                    rng.sample(range(1, code.k + 1), d)
                    + rng.sample(range(code.k + 1, code.n + 1), f - d)))
                if lib.code.decodable(code, lost):
                    break
            self.loss_events.append((s, lost))
        self.oracle_events = set(rng.sample(range(self.events), self.ORACLE_EVENTS))
        self.shards = [None] * len(self.sets)
        self.plans = [None] * self.events

    def run(self, lib, tr, m: Measures, first: bool) -> None:
        for s in range(len(self.sets)):
            m.attempt("encode", self._encode, lib, tr, m, s, first)
        for s, shard_set in enumerate(self.sets):
            for lost in shard_set.losses:
                m.attempt(f"decode {lost}", self._decode, lib, tr, m, s, lost)
        for i, (s, lost) in enumerate(self.loss_events):
            m.attempt(f"repair {lost}", self._repair, lib, tr, m, i, s, lost, first)

    def _path(self, lib, s: int, b: int) -> Path:
        return lib.sharding.shard_path(self.sets[s].directory, "payload", b)

    def _encode(self, lib, tr, m, s, first):
        sh = lib.sharding
        code, digest, payload = self.sets[s][:3]
        # a file is written fresh, not truncated, so freeing the old blocks
        # happens outside the timed span
        for b in range(1, code.n + 1):
            self._path(lib, s, b).unlink(missing_ok=True)
        t0 = perf()
        shards = tr.call("sharding.encode_stream", sh.encode_stream, code, payload)
        stripes = len(shards[0])
        for b, body in enumerate(shards, start=1):
            header = sh.ShardHeader(digest, b, stripes, len(payload))
            tr.call("sharding.write_shard", sh.write_shard, self._path(lib, s, b), header, body)
        m.encode_MBps.append(len(payload) / (perf() - t0) / 1e6)
        tr.count("sharding.bytes_written", stripes * len(shards))
        if first:
            rng = random.Random(s)
            sample = rng.sample(range(stripes), min(stripes, self.SAMPLED_STRIPES))
            m.check(checks.check_encoded, code.P.data, payload, shards, sample + [stripes - 1])
            self.shards[s] = shards
        else:
            _expect_same(m, f"shards of code {s}", shards, self.shards[s])

    def _decode(self, lib, tr, m, s, lost):
        sh = lib.sharding
        code, payload = self.sets[s].code, self.sets[s].payload
        t0 = perf()
        got = {}
        for b in range(1, code.n + 1):
            if b not in lost:
                header, body = tr.call("sharding.read_shard", sh.read_shard, self._path(lib, s, b))
                got[b] = body
        restored = tr.call("sharding.decode_stream", sh.decode_stream, code, got,
                           header.data_length)
        m.decode_MBps.append(len(payload) / (perf() - t0) / 1e6)
        tr.count("sharding.bytes_read", sum(len(v) for v in got.values()))
        m.check(checks.check_same_bytes, f"payload restored without {lost}", restored, payload)

    def _repair(self, lib, tr, m, i, s, lost, first):
        sh = lib.sharding
        code, digest = self.sets[s][:2]
        for b in lost:
            self._path(lib, s, b).unlink()
        t0 = perf()
        plan = tr.call("analysis.minimal_repair", lib.analysis.minimal_repair, code, lost)
        helpers = {}
        for b in plan.helpers:
            header, body = tr.call("sharding.read_shard", sh.read_shard, self._path(lib, s, b))
            helpers[b] = body
        rebuilt = tr.call("sharding.repair_stream", sh.repair_stream, code, plan, helpers)
        for b, body in rebuilt.items():
            out = sh.ShardHeader(digest, b, header.stripes, header.data_length)
            tr.call("sharding.write_shard", sh.write_shard, self._path(lib, s, b), out, body)
        m.repair_ms.append((perf() - t0) * 1000.0)

        read = sum(len(v) for v in helpers.values())
        written = sum(len(v) for v in rebuilt.values())
        tr.count("sharding.bytes_read", read)
        tr.count("sharding.bytes_written", written)
        tr.count("sharding.helper_bytes", read)
        tr.count("sharding.repaired_bytes", written)
        stripes = len(self.shards[s][0])
        m.check(checks.check_bytes_read, read, plan.cost, stripes)
        if sorted(rebuilt) != list(lost):
            m.problems.append(f"repair of {lost} rebuilt {sorted(rebuilt)}")
        for b in lost:
            m.check(checks.check_same_bytes, f"shard {b} rebuilt after losing {lost}",
                    rebuilt.get(b, b""), self.shards[s][b - 1])
        result = (plan.erased, plan.helpers, plan.cost)
        if first:
            m.check(checks.check_plan, code.P.data, lost, plan.helpers, plan.cost,
                    i in self.oracle_events)
            self.plans[i] = result
        else:
            _expect_same(m, f"plan for event {i}", result, self.plans[i])


BUNDLED = ("blrc-15-10-w3", "blrc-16-10-w3", "blrc-16-10-w2")
CATALOGUE_SHAPES = ((12, 8, 2), (14, 10, 3), (15, 10, 4), (18, 12, 3))


def full_search():
    return SearchPart(((16, 10, 4), (15, 10, 4)), iterations=4)


def light_search():
    return SearchPart(((11, 7, 3),) * 3, iterations=15)


def full_catalogue():
    return CataloguePart(("replication", "rs", "xorbas", "azure"), BUNDLED, CATALOGUE_SHAPES)


def light_catalogue():
    return CataloguePart(("replication", "rs", "xorbas"), ("blrc-16-10-w2",), CATALOGUE_SHAPES[:1])


def full_shards():
    return ShardsPart(payload_bytes=2_000_003, files=2, decodes=4, events=135)


def light_shards(files: int, events: int):
    return ShardsPart(payload_bytes=2_000_003, files=files, decodes=2, events=events)


# The light parts are sized so that every metric gathers enough work over
# a run: at least 100 loss events and a few dozen encodes and decodes.
# Event counts are multiples of 27, the number of (code, data lost,
# parities lost) kinds.  Payloads stay at 2 MB: at that size the byte
# work, not per-call interpreter overhead, sets the encode and decode
# rates, which keeps them steadier from run to run.
WORKLOADS = {
    "search": lambda: (full_search(), light_catalogue(), light_shards(2, 54)),
    # the long catalogue pass sits between two halves of the light shards
    # part, so its metrics sample both ends of every round
    "catalogue": lambda: (light_search(), light_shards(2, 27), full_catalogue(),
                          light_shards(2, 27)),
    "shards": lambda: (light_search(), light_catalogue(), full_shards()),
}

