"""Dense matrices over GF(2^m): rank, solving, column-span membership, an
echelon basis that grows one row at a time, a kernel that splits vectors
into proportional classes modulo a span, and two walks in the quotient:
one counting the dependent subsets of a vector list, and one over the
flats of a direction list.

Everything here is exact Gaussian elimination, and every row operation is
one step, _reduction(field): v + a * d scaled to 1 at its first nonzero
entry, on keys: bytes for m <= 8, reduced by two bytes.translate calls
with FieldSpec's tables (file coding uses them too) and an XOR of wide
integers, and tuples above, by log/antilog arithmetic.  insert_row grows
an echelon Basis of keys, rank counts the rows it keeps, and
span_coefficients back-substitutes the basis of [A | t], _span_solutions
that of [A | t_1 ... t_f] for several targets at once.  Matrices in this
package never exceed a few dozen rows, so no attention is paid to
asymptotics.  Operations never mutate their inputs, except that
insert_row appends to the basis it is given.

_classes reduces many keys modulo a span in one call and groups the
residuals by proportionality (the directions of the parity-check
columns, and the classes outside each flat, keys that analysis holds).

_dependent_counts is the walk over the independent sets of a vector list,
in the quotient: each set carries the vectors it may grow by as
proportional classes modulo its span, so growing it by one vector reduces
every later class by that one direction, the walk's only reduction loop.
It counts the dependent sets of every size up to a depth, class by class,
and answers the decodability census, the minimum distance and the rank
condition.

_flats is the same walk over the directions of the parity-check
columns, for the repair averages: a flat found from its first direction
is that direction with a flat of the quotient by it, so it reduces only
the classes that are nonzero at the new direction's pivot, and it hands
back each flat with the directions it chose, an echelon basis of its
span.  At the last level it skips a direction before reducing anything
when no line through it can hold more than the columns asked for: the
classes zero at its pivot never merge with each other, so a line holds
at most one of them besides the classes the direction touches.
"""

from __future__ import annotations

import functools
import math
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

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

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


Basis = list[tuple[int, bytes | tuple]]
"""Echelon rows as (pivot, key) in insertion order: each key is a key of
_reduction(field) scaled to 1 at its pivot, its first nonzero entry, and
zero at the pivot of every earlier row, so the pivots are distinct."""


def _insert(basis: Basis, v, reduce) -> int | None:
    """insert_row on a key v, with reduce the step of _reduction(field)."""
    for pivot, d in basis:
        a = v[pivot]
        if a:
            v = reduce(v, d, a)
    lead = _first_nonzero(v)
    if lead is None:
        return None
    if v[lead] != 1:  # no step touched v, so it is not scaled yet
        v = reduce(v, v, 0)
    basis.append((lead, v))
    return lead


def insert_row(basis: Basis, row: Sequence[int], field: FieldSpec) -> int | None:
    """Reduce row against basis in insertion order.  None when row lies in
    the span of basis; otherwise append (lead, the residual scaled to 1)
    and return lead, the residual's first nonzero column."""
    key, reduce = _reduction(field)
    return _insert(basis, key(row), reduce)


@functools.cache
def _byte_reduce(field: FieldSpec):
    """reduce over bytes: translate d by a, XOR, translate by 1 / lead.
    Kept per field: equal fields share tables, and the step holds no
    state of its own."""
    mul, div, from_bytes = field.mul_tables, field.div_tables, int.from_bytes

    def reduce(v: bytes, d: bytes, a: int) -> bytes:
        x = from_bytes(v, "big") ^ from_bytes(d.translate(mul[a]), "big")
        # a mask below 2^30 is as cheap as 0x7FF8 and keeps keys up to 2^27
        # entries; a zero x shifts to 0, and div[0] keeps it zero
        lead = x >> (x.bit_length() - 1 & 0x3FFFFFF8)
        return x.to_bytes(len(v), "big").translate(div[lead])

    return reduce


def _tuple_reduce(field: FieldSpec):
    """reduce over tuples: log/antilog arithmetic on d's (index, log) pairs."""
    exp, log, q1 = field._exp, field._log, field.order - 1
    forms: dict = {}

    def reduce(v: tuple, d: tuple, a: int) -> tuple:
        if a:
            pairs = forms.get(d)
            if pairs is None:
                pairs = forms[d] = [(j, log[y]) for j, y in enumerate(d) if y]
            s, v = log[a], list(v)
            for j, b in pairs:
                v[j] ^= exp[b + s]
        inv = q1 - log[next(filter(None, v), 0)]
        return tuple([exp[log[y] + inv] if y else 0 for y in v])

    return reduce


def _reduction(field: FieldSpec):
    """(key type, reduce): reduce(v, d, a) is v + a * d, d scaled to 1 at
    its pivot, scaled to 1 at its first nonzero entry (a = 0 only scales)."""
    if field.m <= 8:
        return bytes, _byte_reduce(field)
    return tuple, _tuple_reduce(field)


def _first_nonzero(v) -> int | None:
    x = next(filter(None, v), 0)
    return v.index(x) if x else None


def _classes(span, items, field: FieldSpec) -> dict:
    """Split (vector, row mask) items by their residual modulo the span of
    span, nonzero vectors in echelon order (each zero at the first nonzero
    column of every earlier one, as the rows of a Basis are; empty for the
    zero span): the union of the row masks of each class of proportional
    residuals, keyed by the residual scaled to 1 at its first nonzero
    entry, in order of first appearance.  Items whose residual is zero are
    left out.  Every vector is a key of _reduction(field) scaled to 1 at
    its first nonzero entry, and the classes are keyed alike.
    """
    reduce = _reduction(field)[1]
    reducers = [(_first_nonzero(d), d) for d in span]
    classes: dict = {}
    for v, rows in items:
        for pivot, d in reducers:
            a = v[pivot]
            if a:
                v = reduce(v, d, a)
        if any(v):
            classes[v] = classes.get(v, 0) | rows
    return classes


def _dependent_counts(
    vectors: Sequence[Sequence[int]], depth: int, field: FieldSpec
) -> list[int]:
    """counts[f]: the dependent f-subsets of vectors for f = 0..depth, as
    comb(len(vectors), f) less the independent ones, which a walk in the
    quotient counts.

    A node is an independent set's classes: the vectors it may still grow
    by, split into proportional classes modulo its span, each keyed by its
    residual scaled to 1 at its first nonzero entry, as a key of
    _reduction(field), with its size.  The root is the empty set's, the
    classes of every nonzero vector.  The set grows by a vector of one
    class into the classes after it: modulo the old span the new one adds
    only that class's direction, so reducing every later key by it alone
    gives them (the walk's one step, quotient), and a key that is zero at
    its pivot stays as it is.  Every independent set is reached once, by
    taking at each node the first class that holds one of its vectors, so
    a node stands for as many sets as the product of the sizes of the
    classes taken.  A node's classes count the next three sizes at once:
    a vector from any class, two from two different classes, and three
    from three classes when the last two stay in different classes modulo
    the first one's direction, one step per class, taken only when that
    size is asked for.  So the walk stops three vectors short of depth.
    """
    key, reduce = _reduction(field)
    pivots: dict = {}

    def quotient(items, own) -> list:
        pivot = pivots.get(own)
        if pivot is None:
            pivot = pivots[own] = _first_nonzero(own)
        out: dict = {}
        for v, size in items:
            a = v[pivot]
            if a:  # v is not own's direction, so the residual is not zero
                v = reduce(v, own, a)
            out[v] = out.get(v, 0) + size
        return list(out.items())

    longest = max(depth - 3, 0)
    independent = [0] * (longest + 4)

    def walk(items, level, sets):
        # items: the (key, size) classes of a node standing for sets
        # independent level-sets; later counts the vectors after own's class
        independent[level] += sets
        if level < longest:
            for i, (own, size) in enumerate(items):
                walk(quotient(items[i + 1 :], own), level + 1, sets * size)
            return
        later = total = sum([size for _, size in items])
        pairs = triples = 0
        for i, (own, size) in enumerate(items):
            later -= size
            pairs += size * later
            if level + 3 <= depth and i + 2 < len(items):
                squares = sum([s * s for _, s in quotient(items[i + 1 :], own)])
                triples += size * (later * later - squares)
        independent[level + 1] += sets * total
        independent[level + 2] += sets * pairs
        independent[level + 3] += sets * (triples // 2)

    root: dict = {}
    for v in vectors:
        v = key(v)
        if any(v):
            v = reduce(v, v, 0)
            root[v] = root.get(v, 0) + 1
    walk(list(root.items()), 0, 1)
    return [math.comb(len(vectors), f) - independent[f] for f in range(depth + 1)]


def _flats(dirs, kappa: int, need: int, field: FieldSpec) -> list:
    """(mask, basis) of kappa-flats of dirs that hold more than need
    columns.  dirs are (direction, column mask) pairs of pairwise
    independent directions, each a key of _reduction(field) scaled to 1
    at its first nonzero entry, as _classes keys them.

    A flat is found from its first direction d: the residuals of the later
    directions modulo d, split into proportional classes, are the
    directions of the quotient by d, and the flat is d with the columns of
    a (kappa - 1)-flat of that quotient.  Every mask spans kappa
    dimensions, and basis is the chosen directions as residuals, each zero
    at the first nonzero entry of every earlier one, so the flat's span in
    echelon order.  When dirs span at least kappa dimensions, every set of
    more than need columns spanning at most kappa of them lies in a
    returned mask; so every flat of kappa dimensions with more than need
    columns is itself one, though a mask found from a later direction than
    its flat's first one lacks the earlier directions.  Masks come in walk
    order: by first direction, then by the quotient's own order.

    The walk is _dependent_counts' over directions, keyed the same way:
    a class whose key is zero at the new direction's pivot is already its
    residual and keeps its key, and the lines of the last level are read
    off without recursing.  The kept keys are distinct directions, so they
    never merge with each other: a class of the last level joins at most
    one of them to keys nonzero at the pivot, and the last level skips d
    when those keys' columns plus the largest kept key cannot exceed
    need - |d|.
    """
    if kappa == 1:
        return [(cols, (d,)) for d, cols in dirs if cols.bit_count() > need]
    reduce = _reduction(field)[1]
    pivots: dict = {}
    out = []

    def walk(dirs, kappa, need, held, basis):
        left = 0
        for _, cols in dirs:
            left += cols.bit_count()
        for j, (d, cols) in enumerate(dirs):
            if left <= need or len(dirs) - j < kappa:
                break  # a later flat holds too few columns or directions
            count = cols.bit_count()
            left -= count
            pivot = pivots.get(d)
            if pivot is None:
                pivot = pivots[d] = _first_nonzero(d)
            later = dirs[j + 1 :]
            if kappa == 2:
                # keys zero at the pivot keep their residual, so a class
                # of the quotient joins at most one of them to keys
                # nonzero there
                rest = need - count
                if rest > 0:
                    touched = kept = 0
                    for v, mask in later:
                        size = mask.bit_count()
                        if v[pivot]:
                            touched += size
                        elif size > kept:
                            kept = size
                        if touched + kept > rest:
                            break
                    else:
                        continue  # no line through d holds more than need
            quotient: dict = {}
            for v, mask in later:
                a = v[pivot]
                if a:  # v is not d, so the residual is not zero
                    v = reduce(v, d, a)
                quotient[v] = quotient.get(v, 0) | mask
            if kappa == 2:
                for v, mask in quotient.items():
                    if mask.bit_count() > rest:
                        out.append((held | cols | mask, basis + (d, v)))
            else:
                walk(
                    list(quotient.items()),
                    kappa - 1,
                    need - count,
                    held | cols,
                    basis + (d,),
                )

    walk(dirs, kappa, need, 0, ())
    return out


def rank(M: GfMatrix) -> int:
    """Rank over GF(2^m): the rows insert_row keeps."""
    key, reduce = _reduction(M.field)
    basis: Basis = []
    for row in M.data:
        _insert(basis, key(row), reduce)
    return len(basis)


def solve(A: GfMatrix, b: list[int]) -> list[int]:
    """Solve A @ x = b for square or overdetermined A of full column rank.

    Raises SingularMatrixError when the system is rank-deficient or
    inconsistent.
    """
    x = span_coefficients(A, b)
    if x is None:
        raise SingularMatrixError("inconsistent system")
    if rank(A) < A.cols:
        raise SingularMatrixError("rank-deficient system")
    return x


def span_coefficients(columns: GfMatrix, target: list[int]) -> list[int] | None:
    """Coefficients x with columns @ x = target, or None if target is
    outside the column span.

    Works for rank-deficient column sets; coefficients of free columns are
    zero.  x is read off the reduced echelon form of [columns | target],
    which is unique, so no order of elimination changes it.
    """
    if len(target) != columns.rows:
        raise ValueError("dimension mismatch")
    columns.field._check(*target)
    rows = [row + [t] for row, t in zip(columns.data, target)]
    x = _span_solutions(rows, columns.cols, 1, columns.field)
    return None if x is None else x[0]


def _span_solutions(
    rows, ncols: int, targets: int, field: FieldSpec
) -> list[list[int]] | None:
    """span_coefficients for several targets at once: rows are the rows
    of [A | t_1 ... t_targets], A having ncols columns, and the result is
    x_i with A @ x_i = t_i for each i, or None when any t_i lies outside
    the column span of A.

    One elimination serves every target.  When all of them lie in the
    span, every pivot of [A | T] is a column of A, so the reduced echelon
    form of [A | t_i] is that of [A | T] cut to A and t_i, and each x_i is
    the one span_coefficients returns.
    """
    key, reduce = _reduction(field)
    basis: Basis = []
    for row in rows:
        _insert(basis, key(row), reduce)
    if any(lead >= ncols for lead, _ in basis):  # a row reads 0 = t_i != 0
        return None
    # back-substitute from the last row up: each row is zero at the
    # earlier pivots, and the later rows, already reduced, clear it at
    # theirs and leave its pivot at 1
    xs = [[0] * ncols for _ in range(targets)]
    for i in range(len(basis) - 1, -1, -1):
        lead, v = basis[i]
        for pivot, d in basis[i + 1 :]:
            a = v[pivot]
            if a:
                v = reduce(v, d, a)
        basis[i] = lead, v
        for t, x in enumerate(xs, ncols):
            x[lead] = v[t]
    return xs
