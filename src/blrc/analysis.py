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

One walk, _walk, prices a list of patterns of one size f: the averages
every single or every pair at once, and minimal_repair its one pattern E,
of any size.  It walks the flats of rank r - f holding more than need
columns: linalg._flats lists them, each with an echelon basis of its
span, some of them partly (a flat found from a later direction lacks its
earlier ones), and _closed_flats walks them largest first and tells the
closed ones by containment alone:

  * a partial mask M lies inside cl(M), a flat of the same rank with more
    columns, so cl(M) is listed and sorts before M;
  * two closed flats of one rank never nest, so no closed flat lies inside
    an earlier one.

It lists hyperplanes with the parity columns first (the directions in
reverse order), so their walk starts from unit directions: that measured
faster for them, and slower for the rank r - 2 listing.

One skew rule prices a pattern, (a, *rest, b) with a lone block being
(a, a): E is skew to a flat when its blocks lie in |E| distinct classes
of the columns outside it, proportional modulo its span, whose keys are
independent.  The walk tests it as the rest independent modulo the flat,
then a and b in two classes modulo the flat and the rest; for f <= 2 that
is just distinct classes (outside a hyperplane all columns are one), and
for f = 3 it adds the independence of the third key.  The same rule finds
the starts: the coordinate flat of rows J has the units outside J for a
basis, so the columns restricted to J are the residuals.  The walk
visits the coordinate flats largest first until every pattern is skew to
one; need is the size at which the last one is.  Below r - f = 3, where
the walk is one level of lines, need stays r - f: there the start
measured slower than what it pruned.

The averages price each pattern at the first flat skew to it.  One left
open costs reads - need, reads being the nonzero columns other than its
own: a start above need is a listed flat skew to it, so its start is
need, and no larger flat is skew to it.  A plan, whose helpers are the
nonzero survivors outside its flat, lists from its start less one, so
flats tied with the start are walked, and ties go to the
lexicographically least helper tuple.  Two flats of one size leave
helper sets of one size, and the least block telling the flats apart
tells the helper sets apart too; the helper set holding it is the
lesser, so the flat lacking it wins: the lexicographically greatest flat
as a sorted block tuple.

When no listed flat is skew, every coordinate flat has exactly r - |E|
columns (as in an MDS code), and so does every skew flat: with E it is a
basis of F^r, so it is a basis of the contraction by E.  The greedy
algorithm, keeping each survivor from the highest index down that stays
independent of E and the survivors kept, returns the basis whose sorted
members are each at least those of any other basis (Gale, "Optimal
assignments in an ordered set", J. Combin. Theory 1968), so the
lexicographically greatest one.

The decodability census counts the undecodable f-subsets, those with
dependent parity-check columns, as comb(n, f) less the independent ones.
linalg._dependent_counts walks the independent sets class by class: a
node is an independent set's classes, the columns it may grow by split
into proportional classes modulo its span, and it stands for as many sets
as the product of the sizes of the classes taken.  A node's classes count
the next three sizes at once, so the walk stops three columns short of
the largest size counted.  build_report reads the minimum distance off
this census; minimum_distance and the rank condition run the same census,
on the parity-check columns and on the rows of P.

The test suite checks every plan kind against an independent all-subsets
oracle, and both averages against the plans for every single and pair.
Both answer every code length, so a long code costs time, never
exactness.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .code import (
    BlrcCode,
    SystematicCode,
    UndecodableError,
    _check_distance,
    minimum_distance,  # noqa: F401  (a module global the benchmark trace wraps)
    recovery_steps,
    update_complexity,
)
from .linalg import (
    Basis,
    _classes,
    _dependent_counts,
    _first_nonzero,
    _flats,
    _insert,
    _reduction,
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


def _directions(code: SystematicCode):
    """The parity-check columns, and their proportional classes as
    (direction, mask) pairs, each column and direction a key of linalg's
    walks (bytes for m <= 8); bit b of a mask stands for block b + 1."""
    key, reduce = _reduction(code.field)
    cols = [key(code.parity_check_column(b + 1)) for b in range(code.n)]
    items = [(reduce(col, col, 0), 1 << b) for b, col in enumerate(cols)]
    return cols, list(_classes((), items, code.field).items())


def _walk(code: SystematicCode, dirs, f: int, open_: dict, rest, ties: bool):
    """Price the patterns (a, *rest, b) of f blocks, for b in open_[a]:
    blocks count from 0, a lone block a is (a, a), and rest holds the
    parity-check columns of the blocks between a and b.  Returns (need,
    priced): priced lists (flat, a, partners) in walk order, flat the
    first closed flat of rank r - f holding more than need columns that
    is skew to (a, *rest, b) for b in partners, or when ties, a later one
    of its size winning the tie, and last flat None for the patterns no
    listed flat is skew to; a pattern's flat is the last listing it.
    need is the fewest columns in any pattern's start, less one when ties
    (see the module docstring)."""
    r, field, kappa = code.r, code.field, code.r - f
    key, reduce = _reduction(field)

    def skew(live: dict, flat: int, basis, rows=()) -> list:
        """(a, partners) of the patterns of live skew to the flat of
        columns flat and span basis, or to the coordinate flat of rows,
        where the columns restricted to rows are the residuals."""
        heads = pending = 0  # the blocks a, and a and b, outside the flat
        for a, partners in live.items():
            if not flat >> a & 1:
                hit = partners & ~flat
                if hit:
                    heads |= 1 << a
                    pending |= 1 << a | hit
        if not pending:
            return []
        restrict = operator.itemgetter(*rows) if rows else None
        span = basis
        if rest:  # independent modulo the flat, and then part of its span
            echelon = [(_first_nonzero(d), d) for d in basis]
            for col in rest:
                v = key(restrict(col)) if rows else col
                if _insert(echelon, v, reduce) is None:
                    return []
            span = [d for _, d in echelon]
        if f == 1:  # outside a hyperplane, or on one row, one class
            classes = [pending]
        elif rows:
            restricted: dict = {}
            for d, mask in dirs:
                if mask & pending:
                    v = key(restrict(d))
                    if next(filter(None, v)) != 1:  # keys are 1 there
                        v = reduce(v, v, 0)
                    restricted[v] = restricted.get(v, 0) | mask & pending
            if span:
                restricted = _classes(span, restricted.items(), field)
            classes = list(restricted.values())
        else:
            items = [(d, mask & pending) for d, mask in dirs if mask & pending]
            classes = list(_classes(span, items, field).values())
        pending = sum(classes)  # with a rest, a or b may lie in the span
        hits = []
        for mask in classes:
            other = pending & ~mask
            mask &= heads
            while mask:
                low = mask & -mask
                mask ^= low
                a = low.bit_length() - 1
                hit = live[a] & (other | low)
                if hit:
                    hits.append((a, hit))
        return hits

    need = kappa  # no start holds fewer columns
    if kappa >= 3 and open_:  # below 3 the walk is lines
        # the starts: the coordinate flats, largest first, each the
        # nonzero columns zero on f rows
        zero_in = [0] * r
        for d, mask in dirs:
            for j in range(r):
                if not d[j]:
                    zero_in[j] |= mask
        starts = []
        for rows in itertools.combinations(range(r), f):
            held = -1
            for j in rows:
                held &= zero_in[j]
            starts.append((held.bit_count(), rows, held))
        unsettled = dict(open_)
        for size, rows, held in sorted(starts, reverse=True):
            if size == kappa:
                break  # the patterns still open start at r - f
            for a, hit in skew(unsettled, held, (), rows):
                unsettled[a] &= ~hit
                if not unsettled[a]:
                    del unsettled[a]
            if not unsettled:
                need = max(kappa, size - ties)
                break
    priced = []
    if kappa > 0:
        kept: dict = {}  # with ties: (a, b) to the flat of the current size
        size = 0
        for flat, basis in _closed_flats(dirs, kappa, need, field):
            if flat.bit_count() < size:
                kept = {}
            if not open_ and not kept:
                break
            size = flat.bit_count()
            live = dict(open_) if kept else open_
            for (a, b), best in kept.items():
                # the flat wins when best holds the least block telling
                # them apart
                if (flat ^ best) & -(flat ^ best) & best:
                    live[a] = live.get(a, 0) | 1 << b
            for a, hit in skew(live, flat, basis):
                priced.append((flat, a, hit))
                if open_.get(a, 0) & hit:
                    open_[a] &= ~hit
                    if not open_[a]:
                        del open_[a]
                if ties:
                    for b in _bits(hit):
                        kept[a, b] = flat
    priced += [(None, a, partners) for a, partners in open_.items()]
    return need, priced


def _pattern_costs(code: SystematicCode, f: int) -> dict[tuple[int, int], int]:
    """Minimal repair cost of every decodable pattern of f = 1 or 2 blocks,
    keyed (a, b) with a <= b and a lone block a as (a, a), from one walk
    over them all."""
    _, dirs = _directions(code)
    nonzero = sum(mask for _, mask in dirs)  # the directions' masks are disjoint
    open_ = {}  # a: the blocks b >= a whose pattern with a is decodable
    for _, mask in dirs:
        for a in _bits(mask):
            partners = 1 << a if f == 1 else nonzero & ~mask & -(2 << a)
            if partners:
                open_[a] = partners
    need, priced = _walk(code, dirs, f, open_, (), False)
    # a pattern reads every nonzero column but its own and the unfetched ones
    reads = nonzero.bit_count() - f
    costs = {}
    for flat, a, partners in priced:
        # a pattern left open starts at need: a larger start is a listed flat
        cost = reads - (need if flat is None else flat.bit_count())
        while partners:
            low = partners & -partners
            partners ^= low
            costs[a + 1, low.bit_length()] = cost
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
    cols, dirs = _directions(code)
    reduce = _reduction(code.field)[1]
    span: Basis = []  # E's, and from it Gale's greedy basis
    for b in erased:
        if _insert(span, cols[b - 1], reduce) is None:
            raise UndecodableError(erased)
    nonzero = sum(mask for _, mask in dirs)
    lost = sum(1 << (b - 1) for b in erased)
    # the pattern (a, *rest, b) of E's first and last blocks and the rest
    open_ = {erased[0] - 1: 1 << erased[-1] - 1}
    rest = [cols[b - 1] for b in erased[1:-1]]
    _, priced = _walk(code, dirs, len(erased), open_, rest, True)
    best = priced[-1][0]  # the last flat listing the pattern wins the tie
    if best is None:
        best = 0
        # every skew flat is r - f independent columns, a basis of the
        # contraction by E; greedy from the highest index down takes the
        # lexicographically greatest one (Gale)
        for b in reversed(_bits(nonzero & ~lost)):
            if len(span) == code.r:
                break
            if _insert(span, cols[b], reduce) is not None:
                best |= 1 << b
    helpers = tuple(b + 1 for b in _bits(nonzero & ~lost & ~best))
    return RepairPlan(erased, helpers, len(helpers))


def repair_values(
    code: SystematicCode, plan: RepairPlan, helper_values: dict[int, int]
) -> dict[int, int]:
    """Recompute the erased block values from the helper block values the
    plan names, by recovery_steps."""
    missing = [b for b in plan.helpers if b not in helper_values]
    if missing:
        raise ValueError(f"missing helper values for blocks {missing}")
    fld = code.field
    values = {b: helper_values[b] for b in plan.helpers}
    for e, terms in recovery_steps(code, plan.helpers, plan.erased):
        acc = 0
        for c, b in terms:
            acc ^= fld.mul(c, values[b])
        values[e] = acc
    return {e: values[e] for e in plan.erased}


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
    dependent.  More than r columns always are; below that, the census
    counts them (see the module docstring).
    """
    n, r = code.n, code.r
    hcols = [code.parity_check_column(b) for b in range(1, n + 1)]
    counts = _dependent_counts(hcols, min(f_max, r), code.field)
    return {
        f: counts[f] if f <= r else math.comb(n, f) for f in range(1, f_max + 1)
    }


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
    always seed a reliability chain, and the distance is read off it: the
    least f <= r with an undecodable f-set, else r + 1, as
    minimum_distance finds it.  p_f = 1 - u / C with integers
    0 <= u <= C = comb(n, f) is below 1.0 exactly when u >= 1: u / C is
    then at least 1 / C > 2^-53 for every C < 2^53, which holds for any
    census that can finish, and 1.0 less anything from 2^-53 up rounds
    to at most 1 - 2^-53.
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
        min_distance=_check_distance(
            code, next((f for f in range(1, r + 1) if profile[f] < 1.0), r + 1)
        ),
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
