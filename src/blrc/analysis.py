"""Repair-bandwidth and decodability metrics.

The double-repair average, which ranks codes, is computed in the dual: from
the columns of the parity-check matrix H = [P^T | I_r].  Survivors S can
stay unfetched in a repair of the erased set E exactly when no codeword
vanishing off S u E is nonzero on E, that is, when
rank(H_{S u E}) = rank(H_S) + |E| (S is skew to E).  Two lines prove the
cost formula:

  * the closure of a skew S is skew, so a largest S is a flat skew to E;
  * a skew flat of lower rank grows by any column outside the span of
    S u E, so a largest S is a skew flat of rank r - |E|.

A flat of rank r - 2 holds r - 2 nonzero columns unless it is dependent,
and holds every zero column (a data block no parity covers).  So a pair
whose two columns are independent costs n - 2 - (zero columns) -
max(r - 2, the nonzero columns of the largest dependent flat of rank r - 2
skew to it), and a pair whose columns are dependent is undecodable.  One
_flats_above call lists every dependent flat of rank r - 2, some of them
partly (a flat found from a later direction lacks its earlier ones).  The
flats are walked largest first, each completed to its closure; a mask
whose closure is larger is skipped, because that closure came earlier.
The columns outside a flat split into proportional classes modulo its
span, and a pair from two different classes is skew to it, so each pair
is priced at the first flat it is skew to.

minimal_repair answers one pattern with a plan: the smallest set of
surviving blocks whose generator columns span the columns of every erased
block, with ties broken toward the lexicographically smallest index set.
The search is organized around the parity blocks used by a plan:

  * any minimal plan fetches a subset T of surviving parities plus data
    blocks drawn from the supports of T and of the erased parities (a data
    helper outside those supports can never contribute and could be dropped,
    contradicting minimality),
  * for a fixed T, a data block of those supports may stay unfetched
    only if at least two parities of T cover it, or one does and it lies
    in an erased parity's support; the rest are always fetched.

For a fixed T the unfetched blocks that work are closed under taking
subsets, so a depth-first search that adds one block at a time to an
incremental span test, dropping every prefix that fails, finds the
largest such set (the cheapest plan) and, among those, the one giving
the lexicographically smallest helper set.  What depends on T alone is
kept in one table per T and shared by every erasure pattern of one
search: the rows restricted to T and the rows two parities of T cover.
The depth-first search inserts with linalg.echelon_insert, whose basis
never stores a row it rejects.

Every candidate is verified by an exact span test, so the result is
identical to a plain size-ordered search over all survivor subsets (the
test suite checks this against an independent all-subsets oracle, and
checks the two ways of pricing a pair against each other).  Both answer
every code length, so a long code costs time, never exactness.
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
    LogBasis,
    echelon_insert,
    insert_row,
    proportional_classes,
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
    lexicographically smallest set of that size unless the query waived
    ties.
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


class _ParitySet:
    """Tables of one parity set T, shared by every erasure pattern.

    restr[i] is data row i restricted to the columns of T, t_mask the rows
    T covers and multi the rows at least two parities of T cover.
    """

    __slots__ = ("t_mask", "multi", "restr")

    def __init__(self, P: list[list[int]], col_mask: list[int], T):
        t_mask = 0
        multi = 0
        for t in T:
            multi |= t_mask & col_mask[t]
            t_mask |= col_mask[t]
        self.t_mask = t_mask
        self.multi = multi
        self.restr = {i: [P[i][t] for t in T] for i in _bits(t_mask)}


def _flats_above(dirs, kappa: int, need: int, field) -> list[int]:
    """Column masks of kappa-flats of dirs, (direction, column mask) pairs
    of pairwise independent directions, that hold more than need columns.

    A flat is found from its first direction d: the residuals of the later
    directions modulo d, split into proportional classes, are the
    directions of the quotient by d, and the flat is d with the columns of
    a (kappa - 1)-flat of that quotient.  Lines are the base case.  The
    residuals have zeros where d leads, so the quotient's own residuals
    need only its own direction to reduce by.  Every mask spans kappa
    dimensions.  When dirs span at least kappa dimensions, every set of
    more than need columns spanning at most kappa of them lies in a
    returned mask; so every flat of kappa dimensions with more than need
    columns is itself one, though a mask found from a later direction than
    its flat's first one lacks the earlier directions.
    """
    if kappa == 1:
        return [cols for _, cols in dirs if cols.bit_count() > need]
    out = []
    left = sum(cols.bit_count() for _, cols in dirs)
    for j, (d, cols) in enumerate(dirs):
        if left <= need or len(dirs) - j < kappa:
            break  # a later flat holds too few columns or directions
        count = cols.bit_count()
        left -= count
        quotient = proportional_classes((d,), dirs[j + 1 :], field)
        out.extend(
            cols | f
            for f in _flats_above(
                list(quotient.items()), kappa - 1, need - count, field
            )
        )
    return out


def _largest_extension(
    basis: LogBasis,
    vecs: list[list[int]],
    na: int,
    field,
    beat: int,
    hi: int,
    lex: bool,
) -> list[int] | None:
    """Positions of a largest set of vecs whose insertion keeps every lead
    of basis below column na, when that set has more than beat members;
    None otherwise.  hi bounds the size from above.  With lex, the set is
    the lexicographically first of that size: it leaves out the earliest
    positions.

    Such sets are closed under taking subsets, so a depth-first search
    that inserts one vector at a time drops every prefix that fails.  The
    first pass includes before it excludes and finds the largest size; the
    second excludes first, so the first set of that size it reaches is the
    lexicographically first.  basis only ever holds rows leading below na,
    so a rejected vector is never stored; it comes back with extra rows.
    """
    if beat >= hi:
        return None
    m = len(vecs)
    best = beat
    found: list[int] = []
    chosen: list[int] = []

    def largest(j: int) -> bool:
        nonlocal best, found
        if len(chosen) + m - j <= best:
            return False
        if j == m:
            best = len(chosen)
            found = list(chosen)
            return best >= hi
        lead = echelon_insert(basis, vecs[j], na, field)
        if lead is None or lead < na:
            chosen.append(j)
            stop = largest(j + 1)
            chosen.pop()
            if lead is not None:
                basis.pop()
            if stop:
                return True
        return largest(j + 1)

    largest(0)
    if best == beat:
        return None
    if not lex:
        return found

    def first(j: int) -> bool:
        if len(chosen) == best:
            return True
        if len(chosen) + m - j < best:
            return False
        if first(j + 1):
            return True
        lead = echelon_insert(basis, vecs[j], na, field)
        if lead is None or lead < na:
            chosen.append(j)
            if first(j + 1):
                return True
            chosen.pop()
            if lead is not None:
                basis.pop()
        return False

    first(0)
    return chosen


class _RepairSearch:
    """Repair queries on one code, sharing one table per parity set."""

    def __init__(self, code: SystematicCode):
        self.k = code.k
        self.r = code.r
        self.n = code.n
        self.P = code.P.data
        self.field = code.field
        # row sets as bitmasks, bit i = data row i
        self.col_mask = [
            sum(1 << i for i in range(self.k) if self.P[i][j])
            for j in range(self.r)
        ]
        self._t_cache: dict[tuple[int, ...], _ParitySet] = {}

    def minimal_repair(
        self, erased: ErasurePattern, lex_ties: bool = True
    ) -> RepairPlan:
        """With lex_ties=False, equal-cost candidates are pruned early; the
        cost is still exact but the helper set may not be the
        lexicographically smallest one (used by the averaging loops)."""
        if not erased:
            return RepairPlan((), (), 0)

        k = self.k
        e_rows = [b - 1 for b in erased if b <= k]
        e_pars = [b - k - 1 for b in erased if b > k]
        surviving_parities = [
            j for j in range(self.r) if (k + 1 + j) not in erased
        ]
        slack = 1 if lex_ties else 0
        # target part of each row: unit flags for erased data rows, then
        # coefficients of erased parity columns
        targets = {
            i: [1 if i == ie else 0 for ie in e_rows]
            + [self.P[i][p] for p in e_pars]
            for i in range(k)
        }

        best_cost = self.n + 1
        best_set: tuple[int, ...] | None = None

        for t_size in range(len(surviving_parities) + 1):
            if t_size >= best_cost + slack:
                break
            if t_size < len(e_rows):
                continue  # |T| >= number of erased data blocks is necessary
            for T in itertools.combinations(surviving_parities, t_size):
                found = self._best_for_parity_set(
                    T, e_rows, e_pars, targets, best_cost + slack, lex_ties
                )
                if found is not None:
                    cost, helper_set = found
                    if cost < best_cost or (
                        cost == best_cost
                        and best_set is not None
                        and helper_set < best_set
                    ):
                        best_cost = cost
                        best_set = helper_set
        if best_set is None:
            # every helper set spanning the erased columns is a plan, so
            # the search finds none exactly when the pattern is undecodable
            raise UndecodableError(erased)
        return RepairPlan(tuple(erased), best_set, best_cost)

    def _best_for_parity_set(
        self, T, e_rows, e_pars, targets, cost_cap, lex_ties
    ) -> tuple[int, tuple[int, ...]] | None:
        """Cheapest feasible plan that fetches exactly the parity set T (and
        actually uses every parity in it), or None when none is below
        cost_cap.  Returns (cost, sorted block tuple), the lexicographically
        smallest such tuple when lex_ties.

        Plans with an unused helper are never cost-minimal (dropping the
        helper would beat them), so restricting to all-parities-used plans
        loses no optimum and no tie candidate.
        """
        k = self.k
        tab = self._t_cache.get(T)
        if tab is None:
            tab = self._t_cache[T] = _ParitySet(self.P, self.col_mask, T)
        e_mask = 0
        for i in e_rows:
            e_mask |= 1 << i
        if e_mask & ~tab.t_mask:
            return None  # an erased data row no parity equation touches
        par_mask = 0
        for p in e_pars:
            par_mask |= self.col_mask[p]

        # A row only one parity t of T covers can stay unfetched only for
        # an erased parity's sake: every combination repairing an erased
        # data row vanishes on it, so it leaves t out, and a combination
        # repairing an erased parity must match that parity's coefficient
        # on it, which is nonzero only on the parity's support.  (Were t
        # used by no combination, dropping it would give a cheaper plan.)
        pool_mask = (tab.multi | tab.t_mask & par_mask) & ~e_mask
        forced_mask = (tab.t_mask | par_mask) & ~e_mask & ~pool_mask

        # leaving f pool rows unfetched costs base + n_pool - f, which
        # beats cost_cap only when f > beat
        base = len(T) + forced_mask.bit_count()
        n_pool = pool_mask.bit_count()
        beat = n_pool - (cost_cap - base)
        # the unfetched rows, each extended by its coefficients in the
        # erased parities, span at most kappa dimensions: the fetched
        # columns must give one unit vector per erased data row vanishing
        # on them, and match every erased parity on them
        kappa = len(T) - len(e_rows)
        f_hi = n_pool if kappa > 0 else 0
        if kappa < 0 or f_hi <= beat:
            return None

        # A fetched set is feasible iff no vector of the span of its
        # erased and unfetched rows [restricted row | target part] starts
        # in a target column, so the unfetched sets that work are closed
        # under taking subsets.  The erased rows' basis is also the quick
        # reject for fetching every support row.
        na = len(T)
        fld = self.field
        restr = tab.restr
        basis: LogBasis = []
        for i in e_rows:
            lead = echelon_insert(basis, restr[i] + targets[i], na, fld)
            if lead is not None and lead >= na:
                return None

        pool = _bits(pool_mask)
        unfetched = _largest_extension(
            basis,
            [restr[i] + targets[i] for i in pool],
            na,
            fld,
            beat,
            f_hi,
            lex_ties,
        )
        if unfetched is None:
            return None
        left = {pool[j] for j in unfetched}
        helpers = tuple(
            sorted(
                [i + 1 for i in pool if i not in left]
                + [i + 1 for i in _bits(forced_mask)]
                + [k + 1 + t for t in T]
            )
        )
        return len(helpers), helpers


def minimal_repair(code: SystematicCode, erased) -> RepairPlan:
    """Smallest helper set whose generator columns span every erased
    column; ties resolved toward the lexicographically least index set.

    Raises UndecodableError when the pattern is not recoverable at all.
    """
    pattern = normalize_pattern(code, erased)
    return _RepairSearch(code).minimal_repair(pattern)


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


def avg_repair_bandwidth_single(code: SystematicCode) -> float:
    """Mean minimal repair cost over all n single-block erasures."""
    search = _RepairSearch(code)
    total = 0
    for b in range(1, code.n + 1):
        total += search.minimal_repair((b,), lex_ties=False).cost
    return total / code.n


def _pair_costs(code: SystematicCode) -> dict[tuple[int, int], int]:
    """Minimal joint repair cost of every decodable block pair, from the
    flats of the parity-check columns (see the module docstring); bit b of
    a mask stands for block b + 1."""
    n, rho, fld = code.n, code.r - 2, code.field
    cols = [(code.parity_check_column(b + 1), 1 << b) for b in range(n)]
    dirs = list(proportional_classes((), cols, fld).items())
    nonzero = 0
    for _, mask in dirs:
        nonzero |= mask
    # open_[a]: the blocks b > a whose pair with a is decodable and unpriced
    open_ = [0] * n
    for _, mask in dirs:
        for a in _bits(mask):
            open_[a] = nonzero & ~mask & -(2 << a)
    # a pair reads every nonzero column but its own and the unfetched ones
    reads = nonzero.bit_count() - 2
    costs = {}
    if rho > 0 and any(open_):
        # a mask lacking part of its flat comes after that flat, which is
        # a mask too and has priced every pair skew to either
        masks = _flats_above(dirs, rho, rho, fld)
        for flat in sorted(masks, key=int.bit_count, reverse=True):
            basis: Basis = []
            for b in _bits(flat):
                insert_row(basis, cols[b][0], fld)
                if len(basis) == rho:
                    break
            outside = [d for d in dirs if not d[1] & flat]
            classes = proportional_classes([v for _, v in basis], outside, fld)
            skew_to = 0
            for mask in classes.values():
                skew_to |= mask
            if skew_to != nonzero & ~flat:
                continue  # a direction outside the mask lies in its span
            cost = reads - flat.bit_count()
            for mask in classes.values():
                skew = skew_to & ~mask
                for a in _bits(mask):
                    hit = open_[a] & skew
                    if hit:
                        open_[a] ^= hit
                        for b in _bits(hit):
                            costs[a + 1, b + 1] = cost
            if not any(open_):
                break
    for a, mask in enumerate(open_):
        for b in _bits(mask):
            costs[a + 1, b + 1] = reads - rho
    return costs


def avg_repair_bandwidth_double(code: SystematicCode) -> DoubleRepairStats:
    """Mean minimal joint repair cost over all block pairs.

    One helper set serves both erased blocks.  Pairs that are not decodable
    (possible only when the distance is below 3) are excluded from the mean
    and counted separately; when none is decodable the mean is NaN.
    """
    costs = _pair_costs(code)
    pairs = len(costs)
    mean = sum(costs.values()) / pairs if pairs else math.nan
    return DoubleRepairStats(mean, pairs, math.comb(code.n, 2) - pairs)


def undecodable_counts(code: SystematicCode, f_max: int) -> dict[int, int]:
    """Number of undecodable f-subsets for every f in 1..f_max, by a DFS
    over parity-check column prefixes.

    A pattern is undecodable exactly when its parity-check columns are
    dependent; the DFS charges each such pattern to its shortest dependent
    prefix, so every pattern is counted once.
    """
    n, r = code.n, code.r
    counts = {f: 0 for f in range(1, f_max + 1)}
    for f in range(r + 1, f_max + 1):
        counts[f] = math.comb(n, f)
    depth_cap = min(f_max, r)
    if depth_cap == 0:
        return counts
    fld = code.field
    hcols = [None] + [code.parity_check_column(b) for b in range(1, n + 1)]

    def dfs(start: int, basis: Basis, depth: int):
        for b in range(start, n + 1):
            if insert_row(basis, hcols[b], fld) is None:
                for f in range(depth + 1, depth_cap + 1):
                    counts[f] += math.comb(n - b, f - depth - 1)
            else:
                if depth + 1 < depth_cap:
                    dfs(b + 1, basis, depth + 1)
                basis.pop()

    dfs(1, [], 0)
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


def build_report(code: SystematicCode, f_max: int | None = None) -> MetricsReport:
    """Aggregate every metric for a code: storage overhead, repair
    bandwidths, update complexity, decodability profile, distance.

    The profile depth defaults to w+3, extended through r so the report can
    always seed a reliability chain.
    """
    k, r, n = code.k, code.r, code.n
    if f_max is None:
        max_row_weight = max(
            sum(1 for x in row if x) for row in code.P.data
        )
        w = (
            code.spec.w
            if isinstance(code, BlrcCode)
            else max_row_weight
        )
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
