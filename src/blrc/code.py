"""Balanced locally repairable codes.

A code here is systematic with generator matrix [I_k | P].  It qualifies as
balanced locally repairable when

  * every row of the k x r parity matrix P has Hamming weight exactly w,
  * every column of P has weight l or l+1 where l = floor(w*k / r), with
    exactly w*k - r*l columns of weight l+1,
  * every submatrix formed from v <= w rows of P has rank v.

The row weight bounds the minimum distance by w+1: a data block and the w
parities of its row form an undecodable pattern.  The rank condition makes
every erasure of up to w data blocks decodable, but it says nothing of
patterns that mix data and parity blocks.  So a code that passes validate,
such as an unscreened assign_coefficients draw, can have distance below
w+1 and fewer decodable patterns than its support allows;
minimum_distance and the decodability profile report the true values.

One census of dependent sets, linalg._dependent_counts, answers both:
of the rows of P to depth w for the rank condition of validate and of
every assign_coefficients draw, and of the parity-check columns for
minimum_distance.  Only a failed rank condition walks row positions, to
name its lexicographically first dependent subset.

Single-block repair touches l or l+1 blocks: each row of the parity-check
matrix H = [P^T | I_r] is a local group, a parity with the data blocks it
covers.  recovery_steps is the one recovery path, for decoding and repair,
of symbols and of shard streams alike: it peels each erased block it can
from a row whose other blocks are available, and solves only the rest
jointly, by recovery_coefficients (one elimination of the helpers'
generator columns beside the erased blocks').

Blocks are 1-indexed: 1..k systematic, k+1..n parity.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from .gf import GF256, FieldSpec
from .linalg import (
    Basis,
    GfMatrix,
    _dependent_counts,
    _insert,
    _reduction,
    _span_solutions,
)

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

    @property
    def avg_column_weight(self) -> float:
        return self.w * self.k / self.r


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

    def support(self) -> SupportPattern:
        return support_of(self.P)

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


def _first_dependent_subset(
    P: GfMatrix, max_size: int
) -> tuple[int, ...] | None:
    """The lexicographically first subset of at most max_size rows of P
    whose rows are dependent, or None.

    Every proper prefix of that subset is independent, and a prefix comes
    before its extensions, so a depth-first walk over the independent
    increasing tuples, each growing a copy of its prefix's Basis by one
    row, returns the first tuple whose last row lies in its prefix's span.
    It visits every independent tuple before that one, so it runs only
    once the census (linalg._dependent_counts) has found a dependent set.
    """
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

    return first((), []) if max_size > 0 else None


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

    clauses = []

    bad_rows, bad_cols, heavy = _census(support_of(P), spec)
    clauses.append(
        ClauseResult(
            "row_weights",
            not bad_rows,
            "" if not bad_rows else f"rows with weight != {spec.w}: {bad_rows}",
        )
    )
    clauses.append(
        ClauseResult(
            "column_weights",
            not bad_cols,
            ""
            if not bad_cols
            else f"columns outside {{{spec.l}, {spec.l + 1}}}: {bad_cols}",
        )
    )
    census_ok = not bad_cols and heavy == spec.heavy_columns
    clauses.append(
        ClauseResult(
            "column_census",
            census_ok,
            f"{heavy} columns of weight {spec.l + 1}, expected {spec.heavy_columns}",
        )
    )

    # every v <= w rows have rank v when the census of the rows to depth w
    # counts no dependent set
    dep = None
    if any(_dependent_counts(P.data, spec.w, P.field)):
        dep = _first_dependent_subset(P, spec.w)
    clauses.append(
        ClauseResult(
            "rank_condition",
            dep is None,
            ""
            if dep is None
            else f"rows {tuple(i + 1 for i in dep)} are linearly dependent",
        )
    )

    return ValidationReport(tuple(clauses))


def _census(
    support: SupportPattern, spec: CodeSpec
) -> tuple[list[int], list[int], int]:
    """(bad rows, bad columns, heavy) of a support with spec.k rows: the
    1-based rows not marking exactly w distinct columns of range(r), the
    1-based columns whose marks are not l or l + 1, and the number of
    columns with l + 1 marks."""
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
    heavy = sum(1 for cw in weights if cw == spec.l + 1)
    return bad_rows, bad_cols, heavy


def check_support(support: SupportPattern, spec: CodeSpec) -> list[str]:
    """Return the list of violated support invariants (empty when valid)."""
    if len(support) != spec.k:
        return [f"{len(support)} rows, expected {spec.k}"]
    bad_rows, bad_cols, heavy = _census(support, spec)
    problems = [f"row {i} does not mark exactly {spec.w} columns" for i in bad_rows]
    if bad_cols:
        problems.append(f"columns with weight outside {{l, l+1}}: {bad_cols}")
    elif heavy != spec.heavy_columns:
        problems.append(
            f"{heavy} columns of weight l+1, expected {spec.heavy_columns}"
        )
    return problems


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
    last_dep = None
    if P is not None:
        last_dep = tuple(i + 1 for i in _first_dependent_subset(P, spec.w))
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
    """Systematic encoding: the codeword is data followed by data @ P."""
    if len(data) != code.k:
        raise ValueError(f"data length {len(data)}, expected k={code.k}")
    fld = code.field
    for x in data:
        if not 0 <= x < fld.order:
            raise ValueError(f"data symbol {x!r} outside GF(2^{fld.m})")
    return list(data) + code.P.vec_mul(data)


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


def decode_erasure(
    code: SystematicCode,
    received: list[int | None],
    erased: tuple[int, ...],
) -> list[int]:
    """Recover the full codeword from the surviving blocks, rebuilding
    the erased ones by recovery_steps.

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
    survivors = [b for b in range(1, code.n + 1) if b not in erased_set]
    fld = code.field
    out = list(received)
    for e, terms in recovery_steps(code, survivors, tuple(sorted(erased_set))):
        acc = 0
        for c, b in terms:
            acc ^= fld.mul(c, out[b - 1])
        out[e - 1] = acc
    return out


def gopalan_bound(n: int, k: int, l: int) -> int:
    """Upper bound on minimum distance for a code of locality l >= 1."""
    if l < 1:
        raise ValueError("locality must be at least 1")
    return n - k + 2 - math.ceil(k / l)


def minimum_distance(code: SystematicCode) -> int:
    """Verified minimum distance: the smallest f for which some f blocks
    have dependent parity-check columns (an undecodable erasure pattern),
    read off the census of those columns (linalg._dependent_counts).

    A data block and the parities of its row are dependent, and so are
    any r + 1 columns, so the census runs to depth min(r, 1 + the lightest
    row weight of P) and finds no dependent set only when the distance is
    r + 1.  For balanced LRCs the result is cross-checked against the
    locality distance bound.
    """
    lightest = min(sum(1 for x in row if x) for row in code.P.data)
    depth = min(code.r, 1 + lightest)
    hcols = [code.parity_check_column(b) for b in range(1, code.n + 1)]
    counts = _dependent_counts(hcols, depth, code.field)
    d = next((f for f in range(1, depth + 1) if counts[f]), code.r + 1)
    return _check_distance(code, d)


def _check_distance(code: SystematicCode, d: int) -> int:
    """d, once checked against the locality distance bound when code is
    a balanced LRC."""
    if isinstance(code, BlrcCode):
        bound = gopalan_bound(code.n, code.k, effective_locality(code.spec))
        if d > bound:
            raise AssertionError(
                f"measured distance {d} exceeds locality bound {bound}"
            )
    return d


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
