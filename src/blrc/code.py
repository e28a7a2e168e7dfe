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
Single-block repair touches l or l+1 blocks.  Blocks are 1-indexed: 1..k
systematic, k+1..n parity.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .gf import GF256, FieldSpec
from .linalg import GfMatrix, SingularMatrixError, insert_row, rank, solve

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
    """Lexicographic DFS over row subsets of size <= max_size; returns the
    first subset whose rows are dependent, or None.

    Only independent prefixes are extended, which suffices: every minimal
    dependent subset has all proper prefixes independent.
    """
    k = P.rows

    def dfs(start: int, basis, chosen: tuple[int, ...]) -> tuple[int, ...] | None:
        for i in range(start, k):
            if insert_row(basis, P.data[i], P.field) is None:
                return chosen + (i,)
            if len(chosen) + 1 < max_size:
                hit = dfs(i + 1, basis, chosen + (i,))
                if hit is not None:
                    return hit
            basis.pop()
        return None

    return dfs(0, [], ())


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

    bad_rows = [
        i + 1
        for i, row in enumerate(P.data)
        if sum(1 for x in row if x) != spec.w
    ]
    clauses.append(
        ClauseResult(
            "row_weights",
            not bad_rows,
            "" if not bad_rows else f"rows with weight != {spec.w}: {bad_rows}",
        )
    )

    col_weights = [
        sum(1 for i in range(spec.k) if P.data[i][j]) for j in range(spec.r)
    ]
    bad_cols = [
        j + 1 for j, cw in enumerate(col_weights) if cw not in (spec.l, spec.l + 1)
    ]
    clauses.append(
        ClauseResult(
            "column_weights",
            not bad_cols,
            ""
            if not bad_cols
            else f"columns outside {{{spec.l}, {spec.l + 1}}}: {bad_cols}",
        )
    )

    heavy = sum(1 for cw in col_weights if cw == spec.l + 1)
    census_ok = not bad_cols and heavy == spec.heavy_columns
    clauses.append(
        ClauseResult(
            "column_census",
            census_ok,
            f"{heavy} columns of weight {spec.l + 1}, expected {spec.heavy_columns}",
        )
    )

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


def check_support(support: SupportPattern, spec: CodeSpec) -> list[str]:
    """Return the list of violated support invariants (empty when valid)."""
    problems = []
    if len(support) != spec.k:
        problems.append(f"{len(support)} rows, expected {spec.k}")
        return problems
    for i, cols in enumerate(support):
        if len(set(cols)) != spec.w or any(not 0 <= j < spec.r for j in cols):
            problems.append(f"row {i + 1} does not mark exactly {spec.w} columns")
    weights = [0] * spec.r
    for cols in support:
        for j in cols:
            if 0 <= j < spec.r:
                weights[j] += 1
    bad = [j + 1 for j, cw in enumerate(weights) if cw not in (spec.l, spec.l + 1)]
    if bad:
        problems.append(f"columns with weight outside {{l, l+1}}: {bad}")
    heavy = sum(1 for cw in weights if cw == spec.l + 1)
    if not bad and heavy != spec.heavy_columns:
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
    last_dep: tuple[int, ...] | None = None
    for _ in range(max_attempts):
        data = [[0] * spec.r for _ in range(spec.k)]
        for i, cols in enumerate(support):
            for j in cols:
                data[i][j] = rng.randrange(1, q)
        P = GfMatrix(data, spec.field)
        dep = _first_dependent_subset(P, spec.w)
        if dep is None:
            return BlrcCode(P, spec, seed=seed)
        last_dep = tuple(i + 1 for i in dep)
    raise ConstructionError(
        f"rank condition unsatisfied after {max_attempts} coefficient draws;"
        f" last dependent row subset: {last_dep}"
    )


def decodable(code: SystematicCode, erased: tuple[int, ...]) -> bool:
    """True iff the pattern is recoverable: the erased parity-check columns
    are linearly independent."""
    f = len(erased)
    if f == 0:
        return True
    if f > code.r:
        return False
    cols = [code.parity_check_column(b) for b in erased]
    M = GfMatrix(
        [[cols[j][i] for j in range(f)] for i in range(code.r)], code.field
    )
    return rank(M) == f


def encode(code: SystematicCode, data: list[int]) -> list[int]:
    """Systematic encoding: the codeword is data followed by data @ P."""
    if len(data) != code.k:
        raise ValueError(f"data length {len(data)}, expected k={code.k}")
    fld = code.field
    for x in data:
        if not 0 <= x < fld.order:
            raise ValueError(f"data symbol {x!r} outside GF(2^{fld.m})")
    return list(data) + code.P.vec_mul(data)


def decode_erasure(
    code: SystematicCode,
    received: list[int | None],
    erased: tuple[int, ...],
) -> list[int]:
    """Recover the full codeword from the surviving blocks.

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
    A = GfMatrix([code.generator_column(b) for b in survivors], code.field)
    b_vec = [received[b - 1] for b in survivors]
    try:
        data = solve(A, b_vec)  # rows of A are survivor columns of G
    except SingularMatrixError:
        raise UndecodableError(tuple(sorted(erased_set))) from None
    return encode(code, data)


def gopalan_bound(n: int, k: int, l: int) -> int:
    """Upper bound on minimum distance for a code of locality l >= 1."""
    if l < 1:
        raise ValueError("locality must be at least 1")
    return n - k + 2 - math.ceil(k / l)


def minimum_distance(code: SystematicCode) -> int:
    """Verified minimum distance: the smallest f for which some f-block
    erasure pattern is undecodable, by exhaustive search.

    For balanced LRCs the result is cross-checked against the locality
    distance bound.
    """
    blocks = range(1, code.n + 1)
    d = None
    for f in range(1, code.r + 2):
        for pattern in itertools.combinations(blocks, f):
            if not decodable(code, pattern):
                d = f
                break
        if d is not None:
            break
    assert d is not None  # r+1 erasures are never decodable
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
