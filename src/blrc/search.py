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
# pure-Python objective evaluations (0.24-0.35 s per [16, 10] w=3 candidate
# on a 2-vCPU x86 VM with Python 3.11).
DEFAULT_MAX_ITERATIONS = 200
DEFAULT_PATIENCE = 50
DEFAULT_RESTARTS = 3


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


def random_support(
    spec: CodeSpec, seed: int, max_attempts: int = 500
) -> SupportPattern:
    """Random support pattern with exact row and column censuses, built by
    quota-constrained placement with restart-on-deadlock backtracking.
    Deterministic per seed."""
    rng = random.Random(seed)
    k, r, w = spec.k, spec.r, spec.w
    for _ in range(max_attempts):
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
        f" w={spec.w} after {max_attempts} attempts"
    )


def _neighbor(
    support: SupportPattern, spec: CodeSpec, rng: random.Random, tries: int = 64
) -> SupportPattern | None:
    """Move one mark of a random row to a new column, then restore the
    column census by the opposite move in another row."""
    k, r = spec.k, spec.r
    rows = [set(cols) for cols in support]
    for _ in range(tries):
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


def _objective(code: BlrcCode) -> tuple[float, float]:
    double = avg_repair_bandwidth_double(code)
    single = avg_repair_bandwidth_single(code)
    return (double.mean_cost, single)


def hill_climb(config: SearchConfig) -> tuple[BlrcCode, SearchTrace]:
    """Best balanced LRC found over all restarts, with the search trace.

    A proposal is accepted only when it strictly lowers the double-failure
    average (ties broken toward a lower single-failure average), so the
    per-restart objective sequence is strictly decreasing.  Restarts are
    independent; the final winner is the best objective, earliest restart
    on ties.
    """
    spec = config.code_spec()
    master = random.Random(config.seed)
    restart_seeds = [master.randrange(2**62) for _ in range(config.restarts)]
    trace = SearchTrace()
    best_code: BlrcCode | None = None
    best_obj: tuple[float, float] | None = None

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
        obj = _objective(code)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_code = code
        trace.record(restart, 0, obj[0], True, best_obj[0])
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
                trace.record(restart, it, float("inf"), False, best_obj[0])
                continue
            cand_obj = _objective(cand)
            if cand_obj < obj:
                support, code, obj = cand_support, cand, cand_obj
                bad_streak = 0
                accepted = True
                if cand_obj < best_obj:
                    best_obj = cand_obj
                    best_code = cand
            else:
                bad_streak += 1
                accepted = False
            trace.record(restart, it, cand_obj[0], accepted, best_obj[0])

    if best_code is None:
        raise ConstructionError(
            f"no valid code found for n={config.n} k={config.k} d={config.d}"
        )
    report = validate(best_code.P, spec)
    if not report.passed:
        raise AssertionError(
            f"search returned an invalid code:\n{report}"
        )
    return best_code, trace
