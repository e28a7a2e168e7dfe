"""Dense matrices over GF(2^m): rank, solving, column-span membership, and
an echelon basis that grows one row at a time.

Everything here is exact Gaussian elimination with first-nonzero pivoting.
Matrices in this package never exceed a few dozen rows, so no attention is
paid to asymptotics.  Operations never mutate their inputs, except that
insert_row appends to the basis it is given.
"""

from __future__ import annotations

from collections.abc import Sequence

from .gf import FieldMismatchError, FieldSpec


class SingularMatrixError(ValueError):
    """The system has no (unique) solution."""


class GfMatrix:
    """Row-major dense matrix over a FieldSpec."""

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, data: list[list[int]], field: FieldSpec):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if not 0 <= x < field.order:
                    raise FieldMismatchError(f"entry {x!r} outside GF(2^{field.m})")
        self.data = [list(row) for row in data]
        self.field = field

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "GfMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldSpec) -> "GfMatrix":
        return cls([[0] * cols for _ in range(rows)], field)

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "GfMatrix":
        return GfMatrix(
            [[self.data[i][j] for j in col_idx] for i in row_idx], self.field
        )

    def transpose(self) -> "GfMatrix":
        return GfMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.field,
        )

    def mul_vec(self, x: list[int]) -> list[int]:
        """Matrix-vector product M @ x."""
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        f = self.field
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, x):
                if a and b:
                    acc ^= f.mul(a, b)
            out.append(acc)
        return out

    def vec_mul(self, x: list[int]) -> list[int]:
        """Row-vector product x @ M."""
        if len(x) != self.rows:
            raise ValueError("dimension mismatch")
        f = self.field
        out = [0] * self.cols
        for xi, row in zip(x, self.data):
            if xi == 0:
                continue
            for j, a in enumerate(row):
                if a:
                    out[j] ^= f.mul(xi, a)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GfMatrix)
            and other.field == self.field
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"GfMatrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


def _eliminate(rows: list[list[int]], field: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """Row-reduce in place, returning (reduced rows, pivot column list)."""
    exp, log = field._exp, field._log
    q1 = field.order - 1
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv_log = q1 - log[prow[c]]
        for i in range(len(rows)):
            if i == r or not rows[i][c]:
                continue
            row = rows[i]
            scale_log = (log[row[c]] + inv_log) % q1
            for j in range(c, ncols):
                a = prow[j]
                if a:
                    row[j] ^= exp[log[a] + scale_log]
        pivots.append(c)
        r += 1
    return rows, pivots


Basis = list[tuple[int, list[int]]]
"""Echelon rows as (pivot, row) in insertion order.  Each row is zero before
its pivot and at the pivot of every earlier row, and pivots are distinct."""


def insert_row(basis: Basis, row: Sequence[int], field: FieldSpec) -> int | None:
    """Reduce a copy of row against basis, in insertion order, and append
    it when it is independent.

    Returns None when row lies in the span of basis.  Otherwise appends
    (lead, residual) and returns lead, the residual's first nonzero column.
    The span of an echelon basis has a vector whose first nonzero column is
    c exactly when c is one of its pivots, so a test that the span never
    reaches a block of target columns stops at the first lead inside it.
    """
    exp, log = field._exp, field._log
    q1 = field.order - 1
    v = list(row)
    ncols = len(v)
    for pivot, brow in basis:
        a = v[pivot]
        if a:
            s = (log[a] - log[brow[pivot]]) % q1
            for j in range(pivot, ncols):
                b = brow[j]
                if b:
                    v[j] ^= exp[log[b] + s]
    for lead, x in enumerate(v):
        if x:
            basis.append((lead, v))
            return lead
    return None


def rank(M: GfMatrix) -> int:
    """Rank over GF(2^m) by Gaussian elimination."""
    if M.rows == 0 or M.cols == 0:
        return 0
    _, pivots = _eliminate([list(row) for row in M.data], M.field)
    return len(pivots)


def solve(A: GfMatrix, b: list[int]) -> list[int]:
    """Solve A @ x = b for square or overdetermined A of full column rank.

    Raises SingularMatrixError when the system is rank-deficient or
    inconsistent.
    """
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [bv] for row, bv in zip(A.data, b)]
    reduced, pivots = _eliminate(aug, A.field)
    if pivots and pivots[-1] == A.cols:
        raise SingularMatrixError("inconsistent system")
    if len(pivots) < A.cols:
        raise SingularMatrixError("rank-deficient system")
    field = A.field
    x = [0] * A.cols
    for r, c in enumerate(pivots):
        x[c] = field.div(reduced[r][A.cols], reduced[r][c])
    return x


def in_span(target: list[int], columns: GfMatrix) -> bool:
    """True iff target lies in the column span of `columns`."""
    return span_coefficients(columns, target) is not None


def span_coefficients(columns: GfMatrix, target: list[int]) -> list[int] | None:
    """Coefficients x with columns @ x = target, or None if target is
    outside the column span.

    Works for rank-deficient column sets; coefficients of free columns are
    zero.
    """
    if len(target) != columns.rows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [t] for row, t in zip(columns.data, target)]
    reduced, pivots = _eliminate(aug, columns.field)
    if pivots and pivots[-1] == columns.cols:
        return None
    field = columns.field
    x = [0] * columns.cols
    for r, c in enumerate(pivots):
        x[c] = field.div(reduced[r][columns.cols], reduced[r][c])
    return x
