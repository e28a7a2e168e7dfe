"""Repair-bandwidth and decodability metrics.

The central operation is minimal_repair: the smallest set of surviving
blocks whose generator columns span the columns of every erased block, with
ties broken toward the lexicographically smallest index set.  The search is
organized around the parity blocks used by a plan:

  * any minimal plan fetches a subset T of surviving parities plus data
    blocks drawn from the supports of T and of the erased parities (a data
    helper outside those supports can never contribute and could be dropped,
    contradicting minimality),
  * for a fixed T, the data blocks that can be left unfetched form a small
    set bounded by rank arguments, so the per-T search space is tiny.

What depends on T alone is kept in one table per T and shared by every
erasure pattern a search object answers: the rows restricted to T, their
supports, the rows two parities of T cover, and, filled in only when a
query reads them, a direction id per restricted row (proportional rows
share one) and plane membership keyed by direction ids.  A pattern then
only filters these tables by its pool of rows.  The tables die with their
search object.

Every candidate is verified by an exact span test, so the result is
identical to a plain size-ordered search over all survivor subsets (the
test suite checks this against an independent all-subsets oracle).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .code import (
    BlrcCode,
    SystematicCode,
    UndecodableError,
    decodable,
    minimum_distance,
    update_complexity,
)
from .linalg import Basis, GfMatrix, insert_row, span_coefficients

EXHAUSTIVE_LIMIT = 24
"""Largest code length for which repair plans are certified minimal."""

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

    cost equals len(helpers).  certified_minimal is False only for codes
    longer than EXHAUSTIVE_LIMIT, where a greedy fallback produces the plan.
    """

    erased: tuple[int, ...]
    helpers: tuple[int, ...]
    cost: int
    certified_minimal: bool = True


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

    restr[i] is data row i restricted to the columns of T, smask[i] its
    support within T, t_mask the rows T covers and multi the rows at least
    two parities of T cover.  The direction and plane tables fill in on
    demand, so a one-shot query pays only for what it reads.
    """

    __slots__ = (
        "field", "t_mask", "multi", "restr", "smask",
        "dir_of", "dir_id", "dirs", "dmask", "plane",
    )

    def __init__(self, P: list[list[int]], col_mask: list[int], T, field):
        self.field = field
        t_mask = 0
        multi = 0
        for t in T:
            multi |= t_mask & col_mask[t]
            t_mask |= col_mask[t]
        self.t_mask = t_mask
        self.multi = multi
        self.restr = {}
        self.smask = {}
        for i in _bits(t_mask):
            row = [P[i][t] for t in T]
            self.restr[i] = row
            self.smask[i] = sum(1 << j for j, x in enumerate(row) if x)
        self.dir_of: dict[int, int] = {}
        self.dir_id: dict[tuple[int, ...], int] = {}
        self.dirs: list[tuple[int, ...]] = []
        self.dmask: list[int] = []
        self.plane: dict[tuple[int, int, int], bool] = {}

    def direction(self, i: int) -> int:
        """Id of the direction of restr[i]: rows get the same id exactly
        when they are proportional."""
        d = self.dir_of.get(i)
        if d is None:
            exp, log = self.field._exp, self.field._log
            q1 = self.field.order - 1
            row = self.restr[i]
            inv_l = q1 - log[next(x for x in row if x)]
            key = tuple(exp[log[x] + inv_l] if x else 0 for x in row)
            d = self.dir_id.setdefault(key, len(self.dirs))
            if d == len(self.dirs):
                self.dirs.append(key)
                self.dmask.append(self.smask[i])
            self.dir_of[i] = d
        return d

    def in_plane(self, a: int, b: int, c: int) -> bool:
        """True iff direction c lies in the span of directions a != b."""
        key = (a, b, c) if a < b else (b, a, c)
        hit = self.plane.get(key)
        if hit is None:
            basis: Basis = []
            for d in key:
                insert_row(basis, self.dirs[d], self.field)
            hit = self.plane[key] = len(basis) == 2
        return hit

    def unfetch_families(self, pool, kappa: int) -> list[list[int]]:
        """Candidate families of unfetchable rows.

        A row set spanning <= kappa dimensions takes a basis from its own
        members, so it is contained in one of the families below: for
        kappa = 1 a direction group (pairwise proportional rows), for
        kappa = 2 the rows lying in the plane of two direction groups, and
        beyond that the support-mask relaxation (any spanned row's support
        sits inside the union of the basis supports).
        """
        if kappa <= 0 or not pool:
            return []
        groups: dict[int, list[int]] = {}
        for i in pool:
            groups.setdefault(self.direction(i), []).append(i)
        ids = list(groups)
        members = list(groups.values())
        m = len(ids)
        if kappa >= m:
            return [list(pool)]
        if kappa == 1:
            return members
        if kappa == 2:
            dmask = self.dmask
            families = []
            for a in range(m):
                for b in range(a + 1, m):
                    da, db = ids[a], ids[b]
                    u = dmask[da] | dmask[db]
                    fam = members[a] + members[b]
                    for c in range(m):
                        if c == a or c == b or dmask[ids[c]] & ~u:
                            continue
                        if self.in_plane(da, db, ids[c]):
                            fam.extend(members[c])
                    fam.sort()
                    families.append(fam)
            return families
        mask_classes: dict[int, list[int]] = {}
        for i in pool:
            mask_classes.setdefault(self.smask[i], []).append(i)
        masks = list(mask_classes)
        if kappa >= len(masks):
            return [list(pool)]
        families = []
        for basis in itertools.combinations(masks, kappa):
            u = 0
            for b in basis:
                u |= b
            fam = [i for mk, rows in mask_classes.items() if not mk & ~u
                   for i in rows]
            fam.sort()
            families.append(fam)
        return families


class _RepairSearch:
    """Shared per-code state for repeated repair queries.  Its parity-set
    tables live and die with it."""

    def __init__(self, code: SystematicCode):
        self.code = code
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
        self.col_support = [
            frozenset(i for i in range(self.k) if self.P[i][j])
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
        if not decodable(self.code, erased):
            raise UndecodableError(erased)
        if self.n > EXHAUSTIVE_LIMIT:
            return self._greedy_plan(erased)

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
                    T, e_rows, e_pars, targets, best_cost + slack
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
            raise UndecodableError(erased)  # unreachable for decodable input
        return RepairPlan(tuple(erased), best_set, best_cost)

    def _best_for_parity_set(
        self, T, e_rows, e_pars, targets, cost_cap
    ) -> tuple[int, tuple[int, ...]] | None:
        """Cheapest feasible plan that fetches exactly the parity set T (and
        actually uses every parity in it), or None when none is below
        cost_cap.  Returns (cost, sorted block tuple).

        Plans with an unused helper are never cost-minimal (dropping the
        helper would beat them), so restricting to all-parities-used plans
        loses no optimum and no tie candidate.
        """
        k = self.k
        tab = self._t_cache.get(T)
        if tab is None:
            tab = self._t_cache[T] = _ParitySet(
                self.P, self.col_mask, T, self.field
            )
        e_mask = 0
        for i in e_rows:
            e_mask |= 1 << i
        if e_mask & ~tab.t_mask:
            return None  # an erased data row no parity equation touches
        u_mask = tab.t_mask
        for p in e_pars:
            u_mask |= self.col_mask[p]

        # rows covered by exactly one parity of T can never be left
        # unfetched: that parity is used by some recovery combination,
        # whose value on such a row is a single nonzero term
        pool_mask = tab.multi & ~e_mask
        forced_mask = u_mask & ~e_mask & ~pool_mask

        base = len(T) + forced_mask.bit_count()
        n_pool = pool_mask.bit_count()
        kappa = len(T) - len(e_rows)
        if kappa < 0 or base + (0 if kappa > 0 else n_pool) >= cost_cap:
            return None

        pool = _bits(pool_mask)

        # Unfetched rows F also keep their restricted parity rows inside a
        # kappa-dimensional subspace (the fetched columns still have to
        # produce one unit vector per erased data row vanishing on all of
        # F), so F lies inside one family: rows whose support fits in the
        # union of kappa member supports (pairwise proportional if kappa=1).
        families = tab.unfetch_families(pool, kappa)
        f_hi = max((len(fam) for fam in families), default=0)
        s_lb = n_pool - f_hi
        if base + s_lb >= cost_cap:
            return None

        # A fetched set is feasible iff no vector of the span of its
        # erased and unfetched rows [restricted row | target part] starts
        # in a target column.  The erased rows' basis, built once, is also
        # the quick reject for fetching every support row.
        na = len(T)
        fld = self.field
        restr = tab.restr
        basis: Basis = []
        for i in e_rows:
            lead = insert_row(basis, restr[i] + targets[i], fld)
            if lead is not None and lead >= na:
                return None

        forced = _bits(forced_mask)
        for s in range(max(0, s_lb), n_pool + 1):
            cost = base + s
            if cost >= cost_cap:
                return None
            f = n_pool - s
            found: tuple[int, ...] | None = None
            if f == 0:
                candidates: set[tuple[int, ...]] = {()}
            else:
                candidates = set()
                for fam in families:
                    if len(fam) >= f:
                        candidates.update(itertools.combinations(fam, f))
            for unfetched in candidates:
                trial = list(basis)
                for i in unfetched:
                    lead = insert_row(trial, restr[i] + targets[i], fld)
                    if lead is not None and lead >= na:
                        break
                else:
                    helpers = tuple(
                        sorted(
                            [i + 1 for i in pool if i not in unfetched]
                            + [i + 1 for i in forced]
                            + [k + 1 + t for t in T]
                        )
                    )
                    if found is None or helpers < found:
                        found = helpers
            if found is not None:
                return cost, found
        return None

    def _greedy_plan(self, erased: ErasurePattern) -> RepairPlan:
        """Cheap fallback beyond EXHAUSTIVE_LIMIT: one covering parity per
        erased data block, supports for erased parities, full decode as the
        last resort.  Flagged non-certified."""
        k = self.k
        helpers: set[int] = set()
        parities: set[int] = set()
        ok = True
        for b in erased:
            if b > k:
                helpers |= {i + 1 for i in self.col_support[b - k - 1]}
            else:
                covering = [
                    t
                    for t in range(self.r)
                    if b - 1 in self.col_support[t]
                    and (k + 1 + t) not in erased
                ]
                if not covering:
                    ok = False
                    break
                t = min(covering, key=lambda t: (len(self.col_support[t]), t))
                parities.add(t)
                helpers |= {i + 1 for i in self.col_support[t]}
        if ok:
            helpers -= set(erased)
            helpers |= {k + 1 + t for t in parities}
            plan = RepairPlan(
                tuple(erased), tuple(sorted(helpers)), len(helpers), False
            )
            if self._plan_feasible(plan):
                return plan
        # full-decode fallback: the first k independent survivor columns
        basis: Basis = []
        chosen: list[int] = []
        for b in range(1, self.n + 1):
            if b in erased:
                continue
            col = self.code.generator_column(b)
            if insert_row(basis, col, self.field) is not None:
                chosen.append(b)
                if len(chosen) == k:
                    break
        return RepairPlan(tuple(erased), tuple(chosen), len(chosen), False)

    def _plan_feasible(self, plan: RepairPlan) -> bool:
        cols = GfMatrix(
            [
                [self.code.generator_column(b)[i] for b in plan.helpers]
                for i in range(self.k)
            ],
            self.code.field,
        )
        for e in plan.erased:
            if span_coefficients(cols, self.code.generator_column(e)) is None:
                return False
        return True


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
    cols = GfMatrix(
        [
            [code.generator_column(b)[i] for b in plan.helpers]
            for i in range(code.k)
        ],
        fld,
    )
    out: dict[int, int] = {}
    for e in plan.erased:
        coeffs = span_coefficients(cols, code.generator_column(e))
        if coeffs is None:
            raise UndecodableError(plan.erased)
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


def avg_repair_bandwidth_double(code: SystematicCode) -> DoubleRepairStats:
    """Mean minimal joint repair cost over all block pairs.

    One helper set serves both erased blocks.  Pairs that are not decodable
    (possible only when the distance is below 3) are excluded from the mean
    and counted separately.
    """
    search = _RepairSearch(code)
    total = 0
    pairs = 0
    bad = 0
    for pair in itertools.combinations(range(1, code.n + 1), 2):
        try:
            total += search.minimal_repair(pair, lex_ties=False).cost
            pairs += 1
        except UndecodableError:
            bad += 1
    if pairs == 0:
        raise UndecodableError((0, 0))
    return DoubleRepairStats(total / pairs, pairs, bad)


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
    try:
        double = avg_repair_bandwidth_double(code)
        double_mean = double.mean_cost
        double_bad = double.undecodable_pairs
    except UndecodableError:
        # distance 2: no pair is recoverable at all
        double_mean = math.nan
        double_bad = math.comb(n, 2)
    profile = decodability_profile(code, f_max)
    report = MetricsReport(
        storage_overhead=r / k,
        avg_repair_single=avg_repair_bandwidth_single(code),
        avg_repair_double=double_mean,
        avg_column_weight=nonzeros / r,
        update_complexity=update_complexity(code),
        decodability=profile,
        min_distance=minimum_distance(code),
        double_undecodable_pairs=double_bad,
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
