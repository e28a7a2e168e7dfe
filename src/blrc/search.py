"""Stochastic hill climbing over support patterns.

The search looks for codes with a low average double-failure repair cost
for given (n, k, d).  A candidate is a support pattern satisfying the full
row/column census; the neighbor move swaps one mark between two rows so
both censuses stay valid by construction.  Coefficients are redrawn
(seeded) after every accepted support change and the rank condition is
re-verified, so every intermediate code is a valid balanced LRC.

All randomness flows from the config seed; identical configs produce
identical results and traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .analysis import (
    avg_repair_bandwidth_double,
    avg_repair_bandwidth_single,
)
from .code import (
    BlrcCode,
    CodeSpec,
    ConstructionError,
    SupportPattern,
    assign_coefficients,
    check_support,
    validate,
)
from .gf import GF256, FieldSpec

# Sized so a default [16, 10] d=4 search stays well under five minutes of
# pure-Python objective evaluations (about 1.5 ms per [16, 10] w=3
# candidate, 0.48-0.49 s for seed 0's 333 trace entries and 0.63-0.64 s
# for seed 7's 444, in CPU time on a 2-vCPU Intel Xeon VM with Python
# 3.11).
DEFAULT_MAX_ITERATIONS = 200
DEFAULT_PATIENCE = 50
DEFAULT_RESTARTS = 3
# draws random_support makes before giving up, and moves _neighbor tries
SUPPORT_ATTEMPTS = 500
NEIGHBOR_TRIES = 64


@dataclass(frozen=True)
class SearchConfig:
    n: int
    k: int
    d: int
    seed: int = 0
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    patience: int = DEFAULT_PATIENCE
    restarts: int = DEFAULT_RESTARTS
    field: FieldSpec = GF256

    def __post_init__(self):
        if self.d < 2:
            raise ConstructionError(f"need d >= 2, got d={self.d}")
        if self.max_iterations < 1 or self.patience < 1 or self.restarts < 1:
            raise ConstructionError("search budget values must be positive")

    def code_spec(self) -> CodeSpec:
        w = self.d - 1
        r = self.n - self.k
        if 0 < self.k < self.n:  # otherwise CodeSpec names the bad shape
            if w > r:
                raise ConstructionError(
                    f"row weight w = d-1 = {w} exceeds the {r} parity slots"
                    f" (need d-1 <= n-k)"
                )
            if w > self.k - 1:
                raise ConstructionError(
                    f"row weight w = d-1 = {w} must be below k = {self.k}"
                )
        try:
            return CodeSpec(self.n, self.k, w, self.field)
        except ValueError as exc:
            raise ConstructionError(str(exc)) from None


@dataclass(frozen=True)
class TraceEntry:
    restart: int
    iteration: int
    objective: float
    accepted: bool
    best: float


@dataclass
class SearchTrace:
    entries: list[TraceEntry] = dc_field(default_factory=list)

    def record(self, restart, iteration, objective, accepted, best):
        self.entries.append(
            TraceEntry(restart, iteration, objective, accepted, best)
        )

    def csv_rows(self):
        yield "restart,iteration,objective,accepted,best"
        for e in self.entries:
            yield (
                f"{e.restart},{e.iteration},{e.objective:.6f},"
                f"{int(e.accepted)},{e.best:.6f}"
            )


def random_support(spec: CodeSpec, seed: int) -> SupportPattern:
    """Random support pattern with exact row and column censuses, built by
    quota-constrained placement with restart-on-deadlock backtracking.
    Deterministic per seed."""
    rng = random.Random(seed)
    k, r, w = spec.k, spec.r, spec.w
    for _ in range(SUPPORT_ATTEMPTS):
        quota = [spec.l] * r
        for j in rng.sample(range(r), spec.heavy_columns):
            quota[j] += 1
        rows: list[tuple[int, ...]] = []
        order = list(range(k))
        rng.shuffle(order)
        fill = {}
        stuck = False
        for i in order:
            open_cols = [j for j in range(r) if quota[j] > 0]
            if len(open_cols) < w:
                stuck = True
                break
            chosen: list[int] = []
            for _ in range(w):
                pool = [j for j in open_cols if j not in chosen]
                weights = [quota[j] for j in pool]
                x = rng.randrange(sum(weights))
                for j, wt in zip(pool, weights):
                    x -= wt
                    if x < 0:
                        chosen.append(j)
                        break
            for j in chosen:
                quota[j] -= 1
            fill[i] = tuple(sorted(chosen))
        if stuck:
            continue
        support = tuple(fill[i] for i in range(k))
        if not check_support(support, spec):
            return support
    raise ConstructionError(
        f"could not build a support pattern for n={spec.n} k={spec.k}"
        f" w={spec.w} after {SUPPORT_ATTEMPTS} attempts"
    )


def _neighbor(
    support: SupportPattern, spec: CodeSpec, rng: random.Random
) -> SupportPattern | None:
    """Move one mark of a random row to a new column, then restore the
    column census by the opposite move in another row."""
    k, r = spec.k, spec.r
    rows = [set(cols) for cols in support]
    for _ in range(NEIGHBOR_TRIES):
        i = rng.randrange(k)
        a = rng.choice(sorted(rows[i]))
        b_choices = [j for j in range(r) if j not in rows[i]]
        if not b_choices:
            continue
        b = rng.choice(b_choices)
        j_choices = [
            j
            for j in range(k)
            if j != i and b in rows[j] and a not in rows[j]
        ]
        if not j_choices:
            continue
        j = rng.choice(j_choices)
        out = [set(s) for s in rows]
        out[i].discard(a)
        out[i].add(b)
        out[j].discard(b)
        out[j].add(a)
        return tuple(tuple(sorted(s)) for s in out)
    return None


class _Scored:
    """A code with its double-failure average and, once an exact tie of
    the doubles needed it, its single-failure average."""

    __slots__ = ("code", "double", "single")

    def __init__(self, code: BlrcCode, double: float):
        self.code, self.double, self.single = code, double, None

    def below(self, other: _Scored) -> bool:
        """Whether the objective (double, single) is below other's."""
        if self.double != other.double:
            return self.double < other.double
        for side in (self, other):
            if side.single is None:
                side.single = avg_repair_bandwidth_single(side.code)
        return self.single < other.single


def hill_climb(config: SearchConfig) -> tuple[BlrcCode, SearchTrace]:
    """Best balanced LRC found over all restarts, with the search trace.

    A proposal is accepted only when it strictly lowers the double-failure
    average (ties broken toward a lower single-failure average), so the
    per-restart objective sequence is strictly decreasing.  A code's
    single-failure average is computed only when its double average
    exactly ties the code it is compared with, at most once per code.
    Restarts are independent; the final winner is the best objective,
    earliest restart on ties.
    """
    spec = config.code_spec()
    master = random.Random(config.seed)
    restart_seeds = [master.randrange(2**62) for _ in range(config.restarts)]
    trace = SearchTrace()
    best: _Scored | None = None

    for restart, rseed in enumerate(restart_seeds):
        rng = random.Random(rseed)
        support = random_support(spec, seed=rng.randrange(2**62))
        code = None
        for _ in range(16):
            try:
                code = assign_coefficients(
                    support, spec, seed=rng.randrange(2**62)
                )
                break
            except ConstructionError:
                support = random_support(spec, seed=rng.randrange(2**62))
        if code is None:
            continue
        current = _Scored(code, avg_repair_bandwidth_double(code).mean_cost)
        if best is None or current.below(best):
            best = current
        trace.record(restart, 0, current.double, True, best.double)
        bad_streak = 0
        for it in range(1, config.max_iterations + 1):
            if bad_streak >= config.patience:
                break
            cand_support = _neighbor(support, spec, rng)
            if cand_support is None:
                bad_streak += 1
                continue
            try:
                cand = assign_coefficients(
                    cand_support, spec, seed=rng.randrange(2**62)
                )
            except ConstructionError:
                bad_streak += 1
                trace.record(restart, it, float("inf"), False, best.double)
                continue
            proposal = _Scored(cand, avg_repair_bandwidth_double(cand).mean_cost)
            accepted = proposal.below(current)
            if accepted:
                support, current = cand_support, proposal
                bad_streak = 0
                if proposal.below(best):
                    best = proposal
            else:
                bad_streak += 1
            trace.record(restart, it, proposal.double, accepted, best.double)

    if best is None:
        raise ConstructionError(
            f"no valid code found for n={config.n} k={config.k} d={config.d}"
        )
    report = validate(best.code.P, spec)
    if not report.passed:
        raise AssertionError(
            f"search returned an invalid code:\n{report}"
        )
    return best.code, trace
