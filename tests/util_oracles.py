"""Independent reference implementations the tests check against.

Everything here deliberately avoids the library's optimized paths: field
multiplication is bit-by-bit carry-less reduction, decodability is the rank
of surviving generator columns, and minimal repair enumerates every subset
of the survivors in size order, or certifies a claimed plan by the ranks
of the subsets that would beat it.
"""

from __future__ import annotations

import itertools

from blrc.linalg import GfMatrix, rank, span_coefficients


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


def decodable_by_generator(code, erased) -> bool:
    """Direct definition: the surviving columns of G must span the data
    space."""
    survivors = [b for b in range(1, code.n + 1) if b not in erased]
    M = GfMatrix(
        [code.generator_column(b) for b in survivors], code.field
    ).transpose()
    return rank(M) == code.k


def minimal_repair_all_subsets(code, erased):
    """Size-ordered search over every survivor subset; first feasible
    subset wins.  Returns (cost, helper tuple) or None."""
    erased = tuple(sorted(erased))
    survivors = [b for b in range(1, code.n + 1) if b not in erased]
    gcols = {b: code.generator_column(b) for b in range(1, code.n + 1)}
    for size in range(len(survivors) + 1):
        for subset in itertools.combinations(survivors, size):
            M = GfMatrix(
                [[gcols[h][i] for h in subset] for i in range(code.k)],
                code.field,
            )
            if all(
                span_coefficients(M, gcols[e]) is not None for e in erased
            ):
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
        if not cols:
            return False
        with_erased = cols + [gcols[e] for e in erased]
        return rank(GfMatrix(cols, code.field)) == rank(
            GfMatrix(with_erased, code.field)
        )

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
