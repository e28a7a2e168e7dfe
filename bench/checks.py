"""Correctness checks on the outputs of one benchmark round.

Each check raises CheckError naming what is wrong.  The checks take plain
values (parity rows, bytes, floats and report objects with the fields of
blrc.analysis.MetricsReport), so the benchmark's tests can plant a wrong
output and see it rejected.  Reference values come from oracles.py or
from properties the method must have; none comes from a stored copy of an
earlier run.
"""

from __future__ import annotations

import math

import oracles

REL_TOL = 1e-9


class CheckError(AssertionError):
    pass


def _fail(msg: str) -> None:
    raise CheckError(msg)


def check_balanced(P, w: int) -> None:
    """The parity rows pass the balanced-LRC census and rank check."""
    problems = oracles.balanced_lrc_problems(P, w)
    if problems:
        _fail("not a balanced LRC: " + "; ".join(problems))


def check_search(P, w: int, entries, exact_double: float) -> None:
    """A searched code must be a balanced LRC, its trace must be a valid
    hill climb, and its exact double-repair average must be the trace's
    best objective.

    entries are (restart, iteration, objective, accepted, best) tuples.
    The trace records only the double-repair component of the objective;
    a proposal with the same double average is accepted only through the
    single-repair tie-break, so within a restart accepted doubles must
    never rise, and a rejected proposal can never beat the current one.
    """
    check_balanced(P, w)
    current: dict[int, float] = {}
    best = math.inf
    for restart, it, obj, accepted, rec_best in entries:
        if accepted:
            if restart in current and not obj <= current[restart]:
                _fail(f"restart {restart} accepted {obj} after {current[restart]}")
            current[restart] = obj
            best = min(best, obj)
        elif math.isfinite(obj) and obj < current[restart]:
            _fail(f"restart {restart} rejected {obj} below {current[restart]}")
        if rec_best != best:
            _fail(f"trace best {rec_best} at iteration {it}, expected {best}")
    if exact_double != best:
        _fail(f"returned code averages {exact_double}, trace best is {best}")


def check_report(
    report, P, n: int, k: int, distance: int | None, guaranteed: bool,
    blrc_l: int | None,
) -> None:
    """Properties every report must have, and its decodability profile and
    distance against the all-patterns rank census.

    distance is the bound the structure sets: w+1 for a code whose rows
    have weight w (a data block and its w parities form an undecodable
    pattern), n-k+1 for any code (Singleton).  With guaranteed, the
    construction promises the bound is met: screened bundled codes and MDS
    codes.  blrc_l is the base locality l of a balanced LRC, whose single
    repairs never need more than l+1 blocks.
    """
    profile = report.decodability
    prev = 1.0
    for f in sorted(profile):
        if not 0.0 <= profile[f] <= prev:
            _fail(f"p_{f} = {profile[f]} rises or leaves [0, 1]")
        prev = profile[f]
    # a pair's joint plan repairs each block on its own, so when every pair
    # is decodable the pair average is at least the single average
    single, double = report.avg_repair_single, report.avg_repair_double
    floor = single if not report.double_undecodable_pairs else 1
    if not (1 <= single <= k and floor <= double <= k):
        _fail(f"averages single {single}, double {double} out of order (k={k})")
    if blrc_l is not None and single > blrc_l + 1:
        _fail(f"single average {single} above l+1 = {blrc_l + 1}")
    if distance is not None and report.min_distance > distance:
        _fail(f"distance {report.min_distance} above the bound {distance}")
    if guaranteed and report.min_distance != distance:
        _fail(f"distance {report.min_distance}, construction guarantees {distance}")
    if P is None:
        return
    census = oracles.decodability_profile(P, max(profile))
    for f, p in census.items():
        if abs(profile[f] - p) > 1e-12:
            _fail(f"p_{f} = {profile[f]}, rank census gives {p}")
    census_d = next((f for f, p in sorted(census.items()) if p < 1.0), None)
    if census_d is not None and report.min_distance != census_d:
        _fail(f"distance {report.min_distance}, rank census gives {census_d}")


def check_exact_averages(P, single: float, double: float) -> None:
    """Repair averages against the all-subsets search over every single
    block and every decodable pair."""
    n = len(P) + len(P[0])
    singles = [oracles.minimal_repair(P, (b,))[0] for b in range(1, n + 1)]
    pairs = [
        oracles.minimal_repair(P, (a, b))[0]
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if oracles.decodable(P, (a, b))
    ]
    want_single, want_double = sum(singles) / n, sum(pairs) / len(pairs)
    if abs(single - want_single) > 1e-12 or abs(double - want_double) > 1e-12:
        _fail(
            f"averages {single}, {double}; all-subsets search gives"
            f" {want_single}, {want_double}"
        )


def check_mttdl(report, n: int, k: int, params, stripe: float, system: float) -> None:
    """Stripe MTTDL against the exact birth-death solve; system MTTDL is
    the stripe value over the stripe count."""
    want = oracles.stripe_mttdl(
        report.decodability,
        report.avg_repair_single,
        report.avg_repair_double,
        n,
        k,
        params.mttf_days,
        params.repair_bytes_per_day,
        params.block_bytes,
    )
    if not math.isclose(stripe, float(want), rel_tol=REL_TOL):
        _fail(f"stripe MTTDL {stripe}, birth-death solve gives {float(want)}")
    stripes = params.total_bytes / (n * params.block_bytes)
    if not math.isclose(system, stripe / stripes, rel_tol=REL_TOL):
        _fail(f"system MTTDL {system} is not stripe MTTDL over {stripes} stripes")


def check_encoded(P, payload: bytes, shards, stripes) -> None:
    """Sampled stripes of the shard payloads against bit-by-bit encoding."""
    k = len(P)
    padded = payload.ljust(len(shards[0]) * k, b"\0")
    for s in stripes:
        want = oracles.encode_stripe(P, padded[s * k : (s + 1) * k])
        got = bytes(sh[s] for sh in shards)
        if got != want:
            _fail(f"stripe {s} encodes to {got.hex()}, expected {want.hex()}")


def check_plan(P, erased, helpers, cost: int, exhaustive: bool) -> None:
    """A plan names distinct survivors, costs its helper count, and its
    helpers span every erased generator column.  With exhaustive, it must
    also be the all-subsets answer: the least cost, ties going to the
    lexicographically smallest helper set."""
    if cost != len(helpers) or len(set(helpers)) != len(helpers):
        _fail(f"plan cost {cost} for helpers {helpers}")
    if set(helpers) & set(erased):
        _fail(f"plan for {erased} reads erased blocks: {helpers}")
    cols = [oracles.generator_column(P, h) for h in helpers]
    targets = [oracles.generator_column(P, e) for e in erased]
    if not oracles.in_span(cols, targets):
        _fail(f"helpers {helpers} do not span erased blocks {erased}")
    if exhaustive:
        want = oracles.minimal_repair(P, erased)
        if (cost, tuple(helpers)) != want:
            _fail(f"plan for {erased} is {cost} {helpers}, all-subsets search gives {want}")


def check_bytes_read(bytes_read: int, cost: int, shard_size: int) -> None:
    if bytes_read != cost * shard_size:
        _fail(f"read {bytes_read} bytes for a {cost}-block plan of {shard_size}-byte shards")


def check_same_bytes(what: str, got: bytes, want: bytes) -> None:
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        _fail(f"{what} differs from the original at byte {at} ({len(got)} vs {len(want)} bytes)")
