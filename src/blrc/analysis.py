"""Repair-bandwidth and decodability metrics.

Repair plans, and both repair averages that rank codes, are computed in
the dual: from the columns of the parity-check matrix H = [P^T | I_r].
Survivors S can stay unfetched in a repair of the erased set E exactly
when no codeword vanishing off S u E is nonzero on E, that is, when
rank(H_{S u E}) = rank(H_S) + |E| (S is skew to E).  Two lines prove the
cost formula:

  * the closure of a skew S is skew, so a largest S is a flat skew to E;
  * a skew flat of lower rank grows by any column outside the span of
    S u E, so a largest S is a skew flat of rank r - |E|.

A flat holds every zero column (a data block no parity covers), and E is
undecodable when its columns are dependent.  Otherwise

  cost(E) = (nonzero columns - |E|)
            - (nonzero columns of the largest flat of rank r - |E| skew to E).

Any |E| rows J of H on which the columns of E are independent bound
cost(E).  Two lines prove the bound:

  * the columns zero on every row of J include the unit columns of the
    other r - |E| parities, so they span the subspace x_J = 0 and hold
    every column inside it: they are a closed flat of rank r - |E|, a
    coordinate flat;
  * no nonzero combination of E's columns vanishes on J, so none lies in
    that subspace: the flat is skew to E.

Both averages price every pattern of f = 1 or 2 blocks in one walk,
_pattern_costs(code, f), over the flats of rank r - f: linalg._flats
lists those holding more columns than need, the smallest start, each
with an echelon basis of its span, some of them partly (a flat found from
a later direction lacks its earlier ones).  _closed_flats walks them
largest first and tells the closed ones by containment alone:

  * a partial mask M lies inside cl(M), a flat of the same rank with more
    columns, so cl(M) is listed and sorts before M;
  * two closed flats of one rank never nest, so no closed flat lies inside
    an earlier one.

It lists hyperplanes with the parity columns first (the directions in
reverse order), so their walk starts from unit directions: that measured
faster for them, and slower for the rank r - 2 listing.  The columns
outside a flat split into proportional classes modulo its span, one
outside a hyperplane (the quotient is a line).  A pattern (a, b), b >= a
and a lone block being (a, a), is skew to the flat when b lies in another
class than a or is a itself, and it is priced at the first flat it is
skew to.

A pattern the walk leaves open costs reads - need, reads being the
nonzero columns other than its own: a start above need is a listed flat
skew to it, so its start is need, and no larger flat is skew to it.
need comes from the f-row sets of H, walked from the largest coordinate
flat down: each keys the directions by their ratio on its first and last
rows (one row when f = 1) and settles the patterns it keeps independent,
a lone direction nonzero there or two of different keys; need is the
size at which the last pattern settles.  Below r - f = 3, where the
walk is one level of lines, need stays r - f: there the pair start
measured slower than what it pruned.

The decodability census counts the undecodable f-subsets, those with
dependent parity-check columns, as comb(n, f) less the independent ones.
linalg.independent_prefixes lists the independent column sets in
lexicographic order, each with the later columns split into proportional
classes modulo its span: adding a column from one class reduces the others
by that class's direction alone.  The classes of a set S count the next
two sizes without field arithmetic: S + b is independent when b lies in
a class, and S + b + c when b and c lie in two different classes.  So the
walk stops two columns short of the largest size counted.
minimum_distance and the rank condition read their first dependent
subsets from the same walk.

minimal_repair answers one pattern E, of any size, from the same flats:
its helpers are the nonzero surviving columns outside the largest flat
of rank r - |E| skew to E.  It starts at the largest coordinate flat of
E and lists the flats holding at least as many columns, and more than
r - |E|; the first one skew to E sets the size.  E is skew to a flat
when its echelon basis, built once (which finds E undecodable), stays
independent inserted into a copy of the flat's: the units outside J for
the coordinate flat of rows J, the carried basis for a walked flat.
Ties go to the lexicographically least helper tuple.  Two flats of one
size leave helper sets of one size, and the least block telling the
flats apart tells the helper sets apart too; the helper set holding it
is the lesser, so the flat lacking it wins: the lexicographically
greatest flat as a sorted block tuple.

When no listed flat is skew, every coordinate flat has exactly r - |E|
columns (as in an MDS code), and so does every skew flat: with E it is a
basis of F^r, so it is a basis of the contraction by E.  The greedy
algorithm, keeping each survivor from the highest index down that stays
independent of E and the survivors kept, returns the basis whose sorted
members are each at least those of any other basis (Gale, "Optimal
assignments in an ordered set", J. Combin. Theory 1968), so the
lexicographically greatest one.

The test suite checks every plan kind against an independent all-subsets
oracle, and both averages against the plans for every single and pair.
Both answer every code length, so a long code costs time, never
exactness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .code import (
    BlrcCode,
    SystematicCode,
    UndecodableError,
    minimum_distance,
    recovery_coefficients,
    update_complexity,
)
from .linalg import (
    Basis,
    _classes,
    _first_nonzero,
    _flats,
    _insert,
    _reduction,
    independent_prefixes,
)

ErasurePattern = tuple[int, ...]


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class RepairPlan:
    """Helper set repairing an erasure pattern.

    cost equals len(helpers), the fewest surviving blocks any repair of the
    pattern reads, at every code length; the helpers are the
    lexicographically smallest set of that size.
    """

    erased: tuple[int, ...]
    helpers: tuple[int, ...]
    cost: int


@dataclass(frozen=True)
class DoubleRepairStats:
    """Average joint repair cost over all block pairs."""

    mean_cost: float
    pairs: int
    undecodable_pairs: int


@dataclass(frozen=True)
class MetricsReport:
    """Per-code metric bundle."""

    storage_overhead: float
    avg_repair_single: float
    avg_repair_double: float
    avg_column_weight: float
    update_complexity: int
    decodability: dict[int, float]
    min_distance: int
    double_undecodable_pairs: int = 0


def normalize_pattern(code: SystematicCode, erased) -> ErasurePattern:
    items = [int(b) for b in erased]
    pattern = tuple(sorted(set(items)))
    if len(pattern) != len(items):
        raise ValueError(f"duplicate block indices in {items}")
    for b in pattern:
        if not 1 <= b <= code.n:
            raise ValueError(f"block index {b} out of range 1..{code.n}")
    return pattern


def _closed_flats(dirs, kappa: int, need: int, field):
    """(mask, basis) of every closed kappa-flat of dirs holding more than
    need columns, largest first, with basis its span in echelon order;
    hyperplanes with the parity columns first.  A listed mask is skipped
    when it lies inside a flat already yielded (see the module docstring):
    the flats holding it are the AND of its columns' bitsets of them."""
    if kappa == len(dirs[0][0]) - 1:
        dirs = dirs[::-1]
    listed = _flats(dirs, kappa, need, field)
    listed.sort(key=lambda item: item[0].bit_count(), reverse=True)
    # holders[b]: bit i is set when the i-th flat yielded holds column b
    holders = [0] * max((mask.bit_length() for _, mask in dirs), default=0)
    walked = 0
    for flat, basis in listed:
        columns = _bits(flat)
        inside = -1  # the yielded flats holding every column seen so far
        for b in columns:
            inside &= holders[b]
            if not inside:
                break
        else:
            continue  # a partial mask
        bit = 1 << walked
        walked += 1
        for b in columns:
            holders[b] |= bit
        yield flat, basis


def _outside_classes(dirs, columns: int, basis, field) -> list[int]:
    """Column masks of the proportional classes, modulo the span of basis,
    of columns (none of them in that span), in order of first appearance.
    Outside a hyperplane they are one class: the quotient is a line."""
    if len(basis) == len(dirs[0][0]) - 1:
        return [columns]
    outside = [(d, mask & columns) for d, mask in dirs if mask & columns]
    return list(_classes(basis, outside, field).values())


def _directions(code: SystematicCode):
    """The parity-check columns, and their proportional classes as
    (direction, mask) pairs, each column and direction a key of linalg's
    walks (bytes for m <= 8); bit b of a mask stands for block b + 1."""
    key, reduce = _reduction(code.field)
    cols = [key(code.parity_check_column(b + 1)) for b in range(code.n)]
    items = [(reduce(col, col, 0), 1 << b) for b, col in enumerate(cols)]
    return cols, list(_classes((), items, code.field).items())


def _zero_rows(dirs, r: int) -> tuple[int, list[int]]:
    """The nonzero columns, and for each row of H the nonzero columns zero
    on it."""
    nonzero = 0
    zero_in = [0] * r
    for d, mask in dirs:
        nonzero |= mask
        for j in range(r):
            if not d[j]:
                zero_in[j] |= mask
    return nonzero, zero_in


def _smallest_start(dirs, f: int, unsettled: list[int], field) -> int:
    """need for the patterns of f <= 2 directions, unsettled[p] holding
    bit q for each one of direction p with direction q (bit p for p
    alone): the fewest columns in any pattern's largest coordinate flat
    (see the module docstring)."""
    log, q1, r = field._log, field.order - 1, len(dirs[0][0])
    zero_in = _zero_rows(dirs, r)[1]
    row_sets = sorted(
        ((zero_in[rows[0]] & zero_in[rows[-1]]).bit_count(), rows[0], rows[-1])
        for rows in itertools.combinations(range(r), f)
    )
    need = r - f  # no coordinate flat holds fewer columns
    for size, i, j in reversed(row_sets):
        if size == need:
            break  # the patterns still open start at r - f
        # each direction's ratio on rows i and j, as log(y / x)
        classes: dict[int, int] = {}
        unseen = 0
        bit = 1  # bit p stands for direction p
        for d, _ in dirs:
            x, y = d[i], d[j]
            if x:
                key = (log[y] - log[x]) % q1 if y else -1
            elif y:
                key = -2
            else:
                unseen |= bit
                bit <<= 1
                continue
            classes[key] = classes.get(key, 0) | bit
            bit <<= 1
        for mask in classes.values():
            keep = mask | unseen
            while mask:
                low = mask & -mask
                mask ^= low
                unsettled[low.bit_length() - 1] &= keep & ~low
        if not any(unsettled):
            return size
    return need


def _pattern_costs(code: SystematicCode, f: int) -> dict[tuple[int, int], int]:
    """Minimal repair cost of every decodable pattern of f = 1 or 2 blocks,
    keyed (a, b) with a <= b and a lone block a as (a, a), from the flats
    of rank r - f of the parity-check columns (see the module docstring)."""
    n, kappa, field = code.n, code.r - f, code.field
    _, dirs = _directions(code)
    nonzero = sum(mask for _, mask in dirs)  # the directions' masks are disjoint
    # open_[a]: the blocks b >= a whose pattern with a is decodable and
    # unpriced; unsettled[p]: likewise over the directions, for the start;
    # live: the blocks a with open_[a] nonzero
    open_ = [0] * n
    if f == 1:
        for a in _bits(nonzero):
            open_[a] = 1 << a
        unsettled = [1 << p for p in range(len(dirs))]
    else:
        for _, mask in dirs:
            for a in _bits(mask):
                open_[a] = nonzero & ~mask & -(2 << a)
        unsettled = [-(2 << p) & ((1 << len(dirs)) - 1) for p in range(len(dirs))]
    live = sum(1 << a for a, mask in enumerate(open_) if mask)
    # a pattern reads every nonzero column but its own and the unfetched ones
    reads = nonzero.bit_count() - f
    need = kappa  # no start holds fewer columns
    if kappa >= 3 and live:  # below 3 the walk is lines
        need = _smallest_start(dirs, f, unsettled, field)
    costs = {}
    if kappa > 0 and live:
        for flat, basis in _closed_flats(dirs, kappa, need, field):
            # the columns of the patterns still open outside the flat
            pending = 0
            outside = live & ~flat
            while outside:
                low = outside & -outside
                outside ^= low
                hit = open_[low.bit_length() - 1] & ~flat
                if hit:
                    pending |= low | hit
            if not pending:
                continue
            cost = reads - flat.bit_count()
            for mask in _outside_classes(dirs, pending, basis, field):
                # a pattern is skew to the flat when its other block lies
                # in another class, or is the block itself
                skew = pending & ~mask
                for a in _bits(mask & live):
                    hit = open_[a] & (skew | 1 << a)
                    if hit:
                        open_[a] ^= hit
                        if not open_[a]:
                            live ^= 1 << a
                        while hit:
                            low = hit & -hit
                            hit ^= low
                            costs[a + 1, low.bit_length()] = cost
            if not live:
                break
    # a pattern left open starts at need: a larger start is a listed flat
    for a in _bits(live):
        for b in _bits(open_[a]):
            costs[a + 1, b + 1] = reads - need
    return costs


def avg_repair_bandwidth_single(code: SystematicCode) -> float:
    """Mean minimal repair cost over all n single-block erasures; raises
    UndecodableError for the first block with a zero parity-check column."""
    costs = _pattern_costs(code, 1)
    lost = [b for b in range(1, code.n + 1) if (b, b) not in costs]
    if lost:
        raise UndecodableError((lost[0],))
    return sum(costs.values()) / code.n


def minimal_repair(code: SystematicCode, erased) -> RepairPlan:
    """Smallest helper set whose generator columns span every erased
    column; ties resolved toward the lexicographically least index set.
    The helpers are the survivors with a nonzero parity-check column
    outside the largest flat of rank r - |E| skew to E (see the module
    docstring).

    Raises UndecodableError when the pattern is not recoverable at all.
    """
    erased = normalize_pattern(code, erased)
    if not erased:
        return RepairPlan((), (), 0)
    r, f, field = code.r, len(erased), code.field
    cols, dirs = _directions(code)
    key, reduce = _reduction(field)
    span: Basis = []  # E's, and from it Gale's greedy basis
    for b in erased:
        if _insert(span, cols[b - 1], reduce) is None:
            raise UndecodableError(erased)
    e_keys = [v for _, v in span]

    def skew(basis: Basis) -> bool:
        basis = list(basis)
        return all(_insert(basis, v, reduce) is not None for v in e_keys)

    lost = sum(1 << (b - 1) for b in erased)
    # the largest coordinate flat: the nonzero columns zero on f rows J
    # on which E is independent (skew to the units outside J)
    units = [(j, key([int(i == j) for i in range(r)])) for j in range(r)]
    nonzero, zero_in = _zero_rows(dirs, r)
    start = r - f
    for rows in itertools.combinations(range(r), f):
        held = nonzero
        for j in rows:
            held &= zero_in[j]
        count = held.bit_count()
        if count > start and skew([u for u in units if u[0] not in rows]):
            start = count
    best = size = 0
    if f < r:
        # keep the flats tied with the start listed
        need = max(r - f, start - 1)
        for flat, basis in _closed_flats(dirs, r - f, need, field):
            if flat.bit_count() < size:
                break
            if flat & lost:
                continue
            # a flat tied with best wins when best holds the least block
            # telling them apart
            if size and not (flat ^ best) & -(flat ^ best) & best:
                continue
            if skew([(_first_nonzero(d), d) for d in basis]):
                best, size = flat, flat.bit_count()
    if not size:
        # every skew flat is r - f independent columns, a basis of the
        # contraction by E; greedy from the highest index down takes the
        # lexicographically greatest one (Gale)
        for b in reversed(_bits(nonzero & ~lost)):
            if len(span) == r:
                break
            if _insert(span, cols[b], reduce) is not None:
                best |= 1 << b
    helpers = tuple(b + 1 for b in _bits(nonzero & ~lost & ~best))
    return RepairPlan(erased, helpers, len(helpers))


def repair_values(
    code: SystematicCode, plan: RepairPlan, helper_values: dict[int, int]
) -> dict[int, int]:
    """Recompute the erased block values from helper block values, using the
    span certificate of the plan."""
    missing = [b for b in plan.helpers if b not in helper_values]
    if missing:
        raise ValueError(f"missing helper values for blocks {missing}")
    fld = code.field
    coeff_lists = recovery_coefficients(code, plan.helpers, plan.erased)
    out: dict[int, int] = {}
    for e, coeffs in zip(plan.erased, coeff_lists):
        acc = 0
        for c, b in zip(coeffs, plan.helpers):
            if c:
                acc ^= fld.mul(c, helper_values[b])
        out[e] = acc
    return out


def avg_repair_bandwidth_double(code: SystematicCode) -> DoubleRepairStats:
    """Mean minimal joint repair cost over all block pairs.

    One helper set serves both erased blocks.  Pairs that are not decodable
    (possible only when the distance is below 3) are excluded from the mean
    and counted separately; when none is decodable the mean is NaN.
    """
    costs = _pattern_costs(code, 2)
    pairs = len(costs)
    mean = sum(costs.values()) / pairs if pairs else math.nan
    return DoubleRepairStats(mean, pairs, math.comb(code.n, 2) - pairs)


def undecodable_counts(code: SystematicCode, f_max: int) -> dict[int, int]:
    """Number of undecodable f-subsets for every f in 1..f_max.

    A pattern is undecodable exactly when its parity-check columns are
    dependent.  More than r columns always are; below that, the quotient
    walk counts the independent sets (see the module docstring).
    """
    n, r = code.n, code.r
    counts = {f: 0 for f in range(1, f_max + 1)}
    for f in range(r + 1, f_max + 1):
        counts[f] = math.comb(n, f)
    depth_cap = min(f_max, r)
    if depth_cap == 0:
        return counts
    hcols = [code.parity_check_column(b) for b in range(1, n + 1)]
    # independent[f]: the independent f-subsets
    independent = [0] * (depth_cap + 1)
    longest = max(depth_cap - 2, 0)
    for prefix, _, classes in independent_prefixes(hcols, longest, code.field):
        depth = len(prefix)
        independent[depth] += 1
        if depth == longest:
            sizes = [mask.bit_count() for mask in classes.values()]
            live = sum(sizes)
            independent[depth + 1] += live
            if depth + 2 == depth_cap:
                # pairs of later columns from two different classes
                squares = sum(size * size for size in sizes)
                independent[depth + 2] += (live * live - squares) // 2
    for f in range(1, depth_cap + 1):
        counts[f] = math.comb(n, f) - independent[f]
    return counts


def decodability_profile(code: SystematicCode, f_max: int) -> dict[int, float]:
    """p_f = fraction of f-block erasure patterns that are decodable, by
    exhaustive enumeration, for f = 1..f_max."""
    if f_max > code.n:
        raise ValueError(f"f_max {f_max} exceeds code length {code.n}")
    bad = undecodable_counts(code, f_max)
    return {
        f: 1.0 - bad[f] / math.comb(code.n, f) for f in range(1, f_max + 1)
    }


def build_report(code: SystematicCode) -> MetricsReport:
    """Aggregate every metric for a code: storage overhead, repair
    bandwidths, update complexity, decodability profile, distance.

    The profile runs to depth w+3, extended through r so the report can
    always seed a reliability chain.
    """
    k, r, n = code.k, code.r, code.n
    if isinstance(code, BlrcCode):
        w = code.spec.w
    else:
        w = max(sum(1 for x in row if x) for row in code.P.data)
    f_max = min(n, max(w + 3, r))
    nonzeros = sum(1 for row in code.P.data for x in row if x)
    double = avg_repair_bandwidth_double(code)
    profile = decodability_profile(code, f_max)
    report = MetricsReport(
        storage_overhead=r / k,
        avg_repair_single=avg_repair_bandwidth_single(code),
        avg_repair_double=double.mean_cost,
        avg_column_weight=nonzeros / r,
        update_complexity=update_complexity(code),
        decodability=profile,
        min_distance=minimum_distance(code),
        double_undecodable_pairs=double.undecodable_pairs,
    )
    _check_profile(report.decodability)
    return report


def _check_profile(profile: dict[int, float]) -> None:
    prev = 1.0
    for f in sorted(profile):
        p = profile[f]
        if not 0.0 <= p <= 1.0 + 1e-12:
            raise AssertionError(f"p_{f} = {p} outside [0, 1]")
        if p > prev + 1e-12:
            raise AssertionError(f"decodability increases at f={f}")
        prev = p
