"""Balanced locally repairable codes.

A code here is systematic with generator matrix [I_k | P].  It qualifies as
balanced locally repairable when

  * every row of the k x r parity matrix P has Hamming weight exactly w,
  * every column of P has weight l or l+1 where l = floor(w*k / r), with
    exactly w*k - r*l columns of weight l+1,
  * every submatrix formed from v <= w rows of P has rank v.

Each clause is stated once: the support clauses by _support_clauses,
which validate reports and check_support lists, and the rank condition by
_dependent_rows.  The row weight bounds the minimum distance by w+1: a
data block and the w parities of its row form an undecodable pattern.
The rank condition makes every erasure of up to w data blocks decodable,
but it says nothing of patterns that mix data and parity blocks.  So a
code that passes validate, such as an unscreened assign_coefficients
draw, can have distance below w+1 and fewer decodable patterns than its
support allows; analysis.minimum_distance and the decodability profile
report the true values.

The rank condition is the census of dependent sets of the rows of P to
depth w, linalg._dependent_counts, the census that analysis runs on the
parity-check columns.  Only a failed rank condition walks row positions,
to name its lexicographically first dependent subset;
assign_coefficients runs the census alone on every draw, and names the
subset once, after its last draw.

Single-block repair touches l or l+1 blocks: each row of the parity-check
matrix H = [P^T | I_r] is a local group, a parity with the data blocks it
covers.  rebuild is the one coding path, for encoding, decoding and
repair, of symbols and of shard streams alike; only the combine step
differs.  It fills in blocks in the order of recovery_steps, which peels
each block it can from a row whose other blocks are available, and
solves only the rest jointly, by recovery_coefficients (one elimination
of the helpers' generator columns beside the erased blocks').  Encoding
is the rebuild of the parities from the data blocks, each parity peeled
from its own row.

Blocks are 1-indexed: 1..k systematic, k+1..n parity.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .gf import GF256, FieldSpec
from .linalg import (
    Basis,
    GfMatrix,
    _dependent_counts,
    _insert,
    _reduction,
    _span_solutions,
)

V = TypeVar("V")

SupportPattern = tuple[tuple[int, ...], ...]
"""Per-row sorted tuples of 0-based parity-column indices (the nonzero
skeleton of P)."""


class ConstructionError(RuntimeError):
    """A code with the requested structure could not be built."""


class UndecodableError(ValueError):
    """The erasure pattern cannot be recovered from the surviving blocks."""

    def __init__(self, pattern: tuple[int, ...]):
        self.pattern = tuple(pattern)
        super().__init__(f"erasure pattern {self.pattern} is not decodable")


@dataclass(frozen=True)
class CodeSpec:
    """Balanced-LRC parameters: length n, dimension k, parity row weight w."""

    n: int
    k: int
    w: int
    field: FieldSpec = GF256

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if not 1 <= self.w <= min(self.k - 1, self.r):
            raise ValueError(
                f"row weight w={self.w} must satisfy 1 <= w <= min(k-1, r)"
                f" = min({self.k - 1}, {self.r})"
            )

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def d(self) -> int:
        """Designed minimum distance w+1, an upper bound on the true one
        (see the module docstring)."""
        return self.w + 1

    @property
    def l(self) -> int:
        """Base locality: floor of the average parity-column weight."""
        return (self.w * self.k) // self.r

    @property
    def heavy_columns(self) -> int:
        """Number of parity columns that must have weight l+1."""
        return self.w * self.k - self.r * self.l


@dataclass(frozen=True)
class SystematicCode:
    """Any systematic linear code, given by its k x r parity matrix."""

    P: GfMatrix

    @property
    def k(self) -> int:
        return self.P.rows

    @property
    def r(self) -> int:
        return self.P.cols

    @property
    def n(self) -> int:
        return self.P.rows + self.P.cols

    @property
    def field(self) -> FieldSpec:
        return self.P.field

    def generator_column(self, block: int) -> list[int]:
        """Column of G = [I_k | P] for a 1-based block index."""
        if not 1 <= block <= self.n:
            raise ValueError(f"block index {block} out of range 1..{self.n}")
        if block <= self.k:
            return [1 if i == block - 1 else 0 for i in range(self.k)]
        return self.P.column(block - self.k - 1)

    def parity_check_column(self, block: int) -> list[int]:
        """Column of H = [P^T | I_r] for a 1-based block index."""
        if block <= self.k:
            return list(self.P.data[block - 1])
        return [1 if j == block - self.k - 1 else 0 for j in range(self.r)]


@dataclass(frozen=True)
class BlrcCode(SystematicCode):
    """A balanced LRC: the parity matrix plus its parameter bookkeeping."""

    spec: CodeSpec
    seed: int | None = None

    def __post_init__(self):
        if (self.P.rows, self.P.cols) != (self.spec.k, self.spec.r):
            raise ValueError(
                f"parity matrix is {self.P.rows}x{self.P.cols},"
                f" spec wants {self.spec.k}x{self.spec.r}"
            )
        if self.P.field != self.spec.field:
            raise ValueError("parity matrix field differs from spec field")


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list[ClauseResult]:
        return [c for c in self.clauses if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.clauses:
            mark = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name}: {mark}{suffix}")
        return "\n".join(lines)


def support_of(P: GfMatrix) -> SupportPattern:
    return tuple(
        tuple(j for j, x in enumerate(row) if x != 0) for row in P.data
    )


def _support_clauses(support: SupportPattern, spec: CodeSpec) -> list[ClauseResult]:
    """The definition's clauses on a support with spec.k rows: row_weights
    (every row marks exactly w distinct columns of range(r)), column_weights
    (every column has l or l + 1 marks) and column_census (exactly
    heavy_columns columns have l + 1)."""
    bad_rows = [
        i + 1
        for i, cols in enumerate(support)
        if len(set(cols)) != spec.w or any(not 0 <= j < spec.r for j in cols)
    ]
    weights = [0] * spec.r
    for cols in support:
        for j in cols:
            if 0 <= j < spec.r:
                weights[j] += 1
    bad_cols = [j + 1 for j, cw in enumerate(weights) if cw not in (spec.l, spec.l + 1)]
    heavy = weights.count(spec.l + 1)
    return [
        ClauseResult(
            "row_weights",
            not bad_rows,
            "" if not bad_rows else f"rows with weight != {spec.w}: {bad_rows}",
        ),
        ClauseResult(
            "column_weights",
            not bad_cols,
            ""
            if not bad_cols
            else f"columns outside {{{spec.l}, {spec.l + 1}}}: {bad_cols}",
        ),
        ClauseResult(
            "column_census",
            not bad_cols and heavy == spec.heavy_columns,
            f"{heavy} columns of weight {spec.l + 1}, expected {spec.heavy_columns}",
        ),
    ]


def _dependent_rows(P: GfMatrix, max_size: int) -> tuple[int, ...] | None:
    """The 1-based rows of the lexicographically first subset of at most
    max_size rows of P whose rows are dependent, or None: the rank
    condition fails exactly when this is not None for max_size = w.

    The census of the rows to depth max_size (linalg._dependent_counts)
    gives the verdict.  Only when it counts a dependent set does a
    depth-first walk name one: every proper prefix of the first dependent
    subset is independent, and a prefix comes before its extensions, so
    the walk over the independent increasing tuples, each growing a copy
    of its prefix's Basis by one row, returns the first tuple whose last
    row lies in its prefix's span.
    """
    if not any(_dependent_counts(P.data, max_size, P.field)):
        return None
    key, reduce = _reduction(P.field)
    rows = [key(row) for row in P.data]

    def first(prefix, basis):
        for b in range(prefix[-1] + 1 if prefix else 0, len(rows)):
            grown = basis.copy()
            if _insert(grown, rows[b], reduce) is None:
                return prefix + (b,)
            if len(prefix) + 1 < max_size:
                found = first(prefix + (b,), grown)
                if found:
                    return found
        return None

    return tuple(i + 1 for i in first((), []))


def validate(P: GfMatrix, spec: CodeSpec) -> ValidationReport:
    """Check every structural clause of the balanced-LRC definition.

    Returns a per-clause report; raises only on dimension mismatch.
    """
    if P.rows != spec.k or P.cols != spec.r:
        raise ValueError(
            f"parity matrix is {P.rows}x{P.cols}, expected {spec.k}x{spec.r}"
        )
    if P.field != spec.field:
        raise ValueError("parity matrix field differs from spec field")
    dep = _dependent_rows(P, spec.w)
    return ValidationReport((
        *_support_clauses(support_of(P), spec),
        ClauseResult(
            "rank_condition",
            dep is None,
            "" if dep is None else f"rows {dep} are linearly dependent",
        ),
    ))


def check_support(support: SupportPattern, spec: CodeSpec) -> list[str]:
    """The failed support clauses of validate as "name: detail" (empty
    when the support is valid)."""
    if len(support) != spec.k:
        return [f"{len(support)} rows, expected {spec.k}"]
    return [
        f"{c.name}: {c.detail}"
        for c in _support_clauses(support, spec)
        if not c.passed
    ]


def assign_coefficients(
    support: SupportPattern,
    spec: CodeSpec,
    seed: int,
    max_attempts: int = 100,
) -> BlrcCode:
    """Fill the support with random nonzero coefficients, redrawing until
    the rank condition holds.  Deterministic for a given seed.

    Raises ConstructionError (naming a dependent row subset) when the retry
    budget runs out, which signals a too-small field or a defective support.
    """
    problems = check_support(support, spec)
    if problems:
        raise ConstructionError("; ".join(problems))
    rng = random.Random(seed)
    q = spec.field.order
    P = None
    for _ in range(max_attempts):
        data = [[0] * spec.r for _ in range(spec.k)]
        for i, cols in enumerate(support):
            for j in cols:
                data[i][j] = rng.randrange(1, q)
        P = GfMatrix(data, spec.field)
        if not any(_dependent_counts(data, spec.w, spec.field)):
            return BlrcCode(P, spec, seed=seed)
    last_dep = None if P is None else _dependent_rows(P, spec.w)
    raise ConstructionError(
        f"rank condition unsatisfied after {max_attempts} coefficient draws;"
        f" last dependent row subset: {last_dep}"
    )


def decodable(code: SystematicCode, erased: tuple[int, ...]) -> bool:
    """True iff the pattern is recoverable: the erased parity-check columns
    are linearly independent.

    The erased parities' columns are units, so they are independent and
    span their rows: the pattern is recoverable exactly when the erased
    data blocks' rows of P, cleared at those parities, are independent.
    """
    k, P = code.k, code.P.data
    cleared = [b - k - 1 for b in erased if b > k]
    if len(set(erased)) < len(erased) or any(j >= code.r for j in cleared):
        return False  # a repeated block, or one past n (a zero column)
    key, reduce = _reduction(code.field)
    basis: Basis = []
    for b in erased:
        if b <= k:
            row = list(P[b - 1])
            for j in cleared:
                row[j] = 0
            if _insert(basis, key(row), reduce) is None:
                return False
    return True


def encode(code: SystematicCode, data: list[int]) -> list[int]:
    """Systematic encoding: the codeword is data followed by data @ P,
    each parity rebuilt from its own row of H over the data blocks."""
    if len(data) != code.k:
        raise ValueError(f"data length {len(data)}, expected k={code.k}")
    fld = code.field
    for x in data:
        if not 0 <= x < fld.order:
            raise ValueError(f"data symbol {x!r} outside GF(2^{fld.m})")
    parities = rebuild(
        code,
        dict(enumerate(data, start=1)),
        range(code.k + 1, code.n + 1),
        symbol_sum(fld),
    )
    return list(data) + list(parities.values())


def recovery_coefficients(
    code: SystematicCode, helpers: Sequence[int], erased: tuple[int, ...]
) -> list[list[int]]:
    """One coefficient list per erased block, aligned with helpers: the
    erased block is the XOR of coefficient * helper over the helpers.

    Each list is the reduced echelon solution, so unique; one elimination
    of the helpers' generator columns beside every erased block's answers
    them all.  Raises UndecodableError(erased) when an erased generator
    column lies outside the span of the helpers' columns.
    """
    cols = [code.generator_column(b) for b in [*helpers, *erased]]
    rows = [list(row) for row in zip(*cols)]
    coeffs = _span_solutions(rows, len(helpers), len(erased), code.field)
    if coeffs is None:
        raise UndecodableError(erased)
    return coeffs


def recovery_steps(
    code: SystematicCode, helpers: Sequence[int], erased: Sequence[int]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """The erased blocks in rebuild order, each with its (coefficient,
    source) terms: the block is the XOR of coefficient * source over them,
    a source being a helper or the block of an earlier step.

    Blocks are peeled first, through the rows of the parity-check matrix
    H = [P^T | I_r], each a local group.  While some erased block e lies
    in a row whose other blocks are all available (the helpers and the
    blocks rebuilt so far), the lightest such row rebuilds it, ties going
    to the earlier block of erased and then to the earlier row: h_e * e is
    the sum of h_b * b over the row's other blocks.  The blocks left are
    solved jointly, once, by recovery_coefficients over the sorted
    available blocks.  A parity whose column of P is zero is peeled with
    no terms, as zeros.

    Raises UndecodableError(erased) exactly when recovery_coefficients
    does: a peeled block lies in the helpers' span, so the available
    blocks span what the helpers span.
    """
    fld, k, P = code.field, code.k, code.P.data
    groups = [  # row j of H as {block: h_b}
        {**{i + 1: P[i][j] for i in range(k) if P[i][j]}, k + 1 + j: 1}
        for j in range(code.r)
    ]
    available, left, steps = set(helpers), list(erased), []
    while left:
        ready = [
            (len(group), pos, j)
            for pos, e in enumerate(left)
            for j, group in enumerate(groups)
            if e in group and all(b in available for b in group if b != e)
        ]
        if not ready:
            pool = sorted(available)
            try:
                coeffs = recovery_coefficients(code, pool, tuple(left))
            except UndecodableError:
                raise UndecodableError(tuple(erased)) from None
            steps += [
                (e, [(c, b) for c, b in zip(row, pool) if c])
                for e, row in zip(left, coeffs)
            ]
            break
        _, pos, j = min(ready)
        e, group = left.pop(pos), groups[j]
        steps.append(
            (e, [(fld.div(h, group[e]), b) for b, h in group.items() if b != e])
        )
        available.add(e)
    return steps


def rebuild(
    code: SystematicCode,
    values: dict[int, V],
    erased: Sequence[int],
    combine: Callable[[list[tuple[int, V]]], V],
) -> dict[int, V]:
    """The erased blocks' values, in the order of erased, rebuilt from
    values (available block -> value) in the order of recovery_steps.

    Each is combine([(coefficient, value), ...]) over its step's terms,
    whose values are those of available or earlier rebuilt blocks; a
    block rebuilt as zeros gets combine([]).  combine is the XOR of the
    products: symbol_sum for symbols, sharding's for streams.  Raises
    UndecodableError as recovery_steps does.
    """
    out = dict(values)
    for e, terms in recovery_steps(code, list(values), erased):
        out[e] = combine([(c, out[b]) for c, b in terms])
    return {e: out[e] for e in erased}


def symbol_sum(field: FieldSpec) -> Callable[[list[tuple[int, int]]], int]:
    """rebuild's combine for symbols of field: the XOR of c * v."""

    def combine(parts):
        acc = 0
        for c, v in parts:
            acc ^= field.mul(c, v)
        return acc

    return combine


def decode_erasure(
    code: SystematicCode,
    received: list[int | None],
    erased: tuple[int, ...],
) -> list[int]:
    """Recover the full codeword from the surviving blocks, rebuilding
    the erased ones.

    `received` has length n with None exactly at the 1-based positions in
    `erased`.  Raises UndecodableError when the surviving generator columns
    do not span the data space.
    """
    if len(received) != code.n:
        raise ValueError(f"received length {len(received)}, expected {code.n}")
    erased_set = set(erased)
    for b in erased_set:
        if not 1 <= b <= code.n:
            raise ValueError(f"erased index {b} out of range")
    for idx, v in enumerate(received, start=1):
        if (v is None) != (idx in erased_set):
            raise ValueError(
                f"received/erased mismatch at block {idx}:"
                f" value {'missing' if v is None else 'present'}"
            )
    values = {b: v for b, v in enumerate(received, start=1) if v is not None}
    values |= rebuild(code, values, sorted(erased_set), symbol_sum(code.field))
    return [values[b] for b in range(1, code.n + 1)]


def gopalan_bound(n: int, k: int, l: int) -> int:
    """Upper bound on minimum distance for a code of locality l >= 1."""
    if l < 1:
        raise ValueError("locality must be at least 1")
    return n - k + 2 - math.ceil(k / l)


def effective_locality(spec: CodeSpec) -> int:
    """Worst-case repair locality: l when every column has weight l,
    otherwise l+1 (a block covered only by heavy columns needs l+1
    helpers).  The distance bound must use this value; with the bare floor
    it fails on mixed-weight codes."""
    return max(1, spec.l + (1 if spec.heavy_columns else 0))


def update_complexity(code: SystematicCode) -> int:
    """Largest number of block writes one data-block update triggers: the
    block itself plus every parity in its row.

    For a balanced LRC every row has weight w, so this is w + 1.
    """
    return 1 + max(sum(1 for x in row if x) for row in code.P.data)
