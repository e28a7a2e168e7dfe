"""Independent reference implementations the tests check against.

Everything here deliberately avoids the library's optimized paths and
shares no arithmetic with it: field multiplication is bit-by-bit
carry-less reduction, elimination is a plain Gaussian elimination loop
on those products, decodability is the rank of surviving generator
columns, span membership is a rank comparison, and minimal repair
enumerates every subset of the survivors in size order, or certifies a
claimed plan by the ranks of the subsets that would beat it.  Matrices
are lists of rows.
"""

from __future__ import annotations

import functools
import itertools


def clmul_reduce(a: int, b: int, poly: int, m: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    for bit in range(acc.bit_length() - 1, m - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - m)
    return acc


class _LazyProducts(dict):
    """b -> a * b over a wide field, each product computed on first use."""

    def __init__(self, a: int, poly: int, m: int):
        super().__init__()
        self.a, self.poly, self.m = a, poly, m

    def __missing__(self, b: int) -> int:
        product = self[b] = clmul_reduce(self.a, b, self.poly, self.m)
        return product


class _Arithmetic:
    """Products and inverses of one field by clmul_reduce alone.

    products(a)[b] is a * b: for m <= 8 from a full row of a's products
    built on first use, above that from a lazily filled cache (a full
    row of 2^16 products costs more than every product a test asks).
    Inverses are a^(2^m - 2) by square-and-multiply.
    """

    def __init__(self, m: int, poly: int):
        self.m, self.poly = m, poly
        self._rows: dict = {}
        self._inverses: dict = {}

    def products(self, a: int):
        row = self._rows.get(a)
        if row is None:
            m, poly = self.m, self.poly
            if m <= 8:
                row = [clmul_reduce(a, b, poly, m) for b in range(1 << m)]
            else:
                row = _LazyProducts(a, poly, m)
            self._rows[a] = row
        return row

    def inverse(self, a: int) -> int:
        inv = self._inverses.get(a)
        if inv is None:
            inv, base, e = 1, a, (1 << self.m) - 2
            while e:
                if e & 1:
                    inv = self.products(inv)[base]
                base = self.products(base)[base]
                e >>= 1
            self._inverses[a] = inv
        return inv


@functools.cache
def _arithmetic(m: int, poly: int) -> _Arithmetic:
    return _Arithmetic(m, poly)


def row_reduce(rows, field, reduced: bool = True):
    """Gaussian elimination of a copy of rows: (the rows in echelon form,
    each pivot 1, then the zero rows; the pivot columns).  The form is
    reduced (zero above each pivot too) when reduced is true."""
    arith = _arithmetic(field.m, field.poly)
    products, inverse = arith.products, arith.inverse
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        scale = products(inverse(rows[r][c]))
        prow = rows[r] = [scale[x] for x in rows[r]]
        for i in range(0 if reduced else r + 1, len(rows)):
            row = rows[i]
            if i != r and row[c]:
                times = products(row[c])
                rows[i] = [x ^ times[y] for x, y in zip(row, prow)]
        pivots.append(c)
    return rows, pivots


def oracle_rank(rows, field) -> int:
    return len(row_reduce(rows, field, reduced=False)[1])


def in_column_span(columns, targets, field) -> bool:
    """Whether every target vector lies in the span of the column vectors:
    whether [columns | targets] has the rank of columns.  Elimination
    meets the columns first, so their rank is the number of pivots among
    them, and the targets add rank exactly when one holds a pivot."""
    pivots = row_reduce(list(zip(*columns, *targets)), field, reduced=False)[1]
    return all(c < len(columns) for c in pivots)


def oracle_span_coefficients(rows, target, field) -> list[int] | None:
    """x with rows @ x = target, free columns 0, from the reduced echelon
    form of [rows | target]; None when target is outside the column span,
    that is, when the target column holds a pivot."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [t] for row, t in zip(rows, target)]
    reduced, pivots = row_reduce(aug, field)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[ncols]
    return x


def proportional_classes(span, vectors, field) -> list[list[int]]:
    """The positions of vectors outside the span of span, grouped by
    definition: u and v lie in one class iff rank(span + u + v) =
    rank(span) + 1, classes in order of first appearance."""
    base = oracle_rank(span, field)
    classes: list[list[int]] = []
    for i, v in enumerate(vectors):
        if oracle_rank(span + [v], field) == base:
            continue
        for members in classes:
            if oracle_rank(span + [vectors[members[0]], v], field) == base + 1:
                members.append(i)
                break
        else:
            classes.append([i])
    return classes


def decodable_by_generator(code, erased) -> bool:
    """Direct definition: the surviving columns of G must span the data
    space."""
    survivors = [b for b in range(1, code.n + 1) if b not in erased]
    cols = [code.generator_column(b) for b in survivors]
    return oracle_rank(cols, code.field) == code.k


def minimal_repair_all_subsets(code, erased):
    """Size-ordered search over every survivor subset; first feasible
    subset wins.  Returns (cost, helper tuple) or None."""
    erased = tuple(sorted(erased))
    survivors = [b for b in range(1, code.n + 1) if b not in erased]
    gcols = {b: code.generator_column(b) for b in range(1, code.n + 1)}
    lost = [gcols[e] for e in erased]
    for size in range(len(survivors) + 1):
        for subset in itertools.combinations(survivors, size):
            cols = [gcols[h] for h in subset]
            if in_column_span(cols, lost, code.field):
                return size, subset
    return None


def certify_plan(code, erased, helpers) -> None:
    """Check a claimed plan from the generator side, with no search.

    helpers is the plan's helper tuple, or None when the pattern is claimed
    undecodable.  Feasibility is monotone (a superset of a feasible helper
    set is feasible), so a plan P is the size-ordered, lexicographically
    first feasible subset of the survivors, as minimal_repair_all_subsets
    returns it, exactly when P is feasible, no (|P| - 1)-subset of the
    survivors is, and no lexicographically smaller |P|-subset is.  A
    pattern is undecodable exactly when all survivors together are not
    feasible.
    """
    erased = tuple(sorted(erased))
    survivors = [b for b in range(1, code.n + 1) if b not in erased]
    gcols = {b: code.generator_column(b) for b in range(1, code.n + 1)}

    def feasible(subset) -> bool:
        # the erased columns lie in the span of the subset's columns
        cols = [gcols[h] for h in subset]
        return in_column_span(cols, [gcols[e] for e in erased], code.field)

    if helpers is None:
        assert not feasible(survivors), erased
        return
    helpers = tuple(helpers)
    assert feasible(helpers), (erased, helpers)
    size = len(helpers)
    if size:
        for subset in itertools.combinations(survivors, size - 1):
            assert not feasible(subset), (erased, subset)
    for subset in itertools.combinations(survivors, size):
        if subset == helpers:
            break
        assert not feasible(subset), (erased, subset)
    else:
        raise AssertionError(f"{helpers} is not a set of survivors of {erased}")


def min_distance_by_patterns(code) -> int:
    """Smallest erasure count with an unrecoverable pattern, checked with
    the generator-column rank definition."""
    for f in range(1, code.r + 2):
        for pattern in itertools.combinations(range(1, code.n + 1), f):
            if not decodable_by_generator(code, pattern):
                return f
    raise AssertionError("no undecodable pattern found")


def random_valid_code(rng, n, k, w, field):
    """Rejection-sample a valid balanced LRC, or None if the parameters
    never produce one within a few tries."""
    from blrc.code import CodeSpec, ConstructionError, assign_coefficients
    from blrc.search import random_support

    spec = CodeSpec(n, k, w, field)
    for _ in range(20):
        support = random_support(spec, seed=rng.randrange(2**60))
        try:
            return assign_coefficients(
                support, spec, seed=rng.randrange(2**60)
            )
        except ConstructionError:
            continue
    return None
