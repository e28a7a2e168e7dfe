"""Reference computations the benchmark checks blrc's outputs against.

Nothing here imports blrc or shares its fast paths.  Codes are plain
parity matrices: a k x r list of GF(2^8) rows, so the generator of the
systematic code is [I_k | P] and blocks are numbered 1..k (data) and
k+1..n (parity).

  * Field arithmetic is bit-by-bit carry-less multiplication followed by
    reduction modulo x^8 + x^4 + x^3 + x^2 + 1; the rank routines use a
    product table filled from it, never the library's log/antilog tables.
  * Decodability is the rank of the surviving generator columns.  The
    surviving data blocks contribute unit vectors, so the rank is full
    exactly when the parity columns that survive, restricted to the
    erased data rows, have full row rank.
  * Minimal repair enumerates every survivor subset in size order.
  * The stripe chain is solved as a birth-death chain with killing, by
    exact rational forward elimination of its tridiagonal system.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

POLY = 0x11D


def gf_mul(a: int, b: int, poly: int = POLY, m: int = 8) -> int:
    """Product in GF(2^m) by shift-and-add, then reduction bit by bit."""
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


_MUL: list[list[int]] | None = None
_INV: list[int] | None = None


def _tables() -> tuple[list[list[int]], list[int]]:
    global _MUL, _INV
    if _MUL is None:
        mul = [[gf_mul(a, b) for b in range(256)] for a in range(256)]
        inv = [0] * 256
        for a in range(1, 256):
            inv[a] = mul[a].index(1)
        _MUL, _INV = mul, inv
    return _MUL, _INV


def rank(rows: list[list[int]]) -> int:
    """Rank over GF(2^8) by plain Gaussian elimination on a copy."""
    mul, inv = _tables()
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        scale = mul[inv[prow[c]]]
        prow[:] = [scale[x] for x in prow]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = mul[rows[i][c]]
                rows[i] = [x ^ f[y] for x, y in zip(rows[i], prow)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def _restricted(P, rows, cols) -> list[list[int]]:
    return [[P[i][j] for j in cols] for i in rows]


def decodable(P, erased) -> bool:
    """True iff the surviving generator columns have rank k."""
    k, r = len(P), len(P[0])
    e_data = [b - 1 for b in erased if b <= k]
    if not e_data:
        return True
    live = [j for j in range(r) if k + 1 + j not in erased]
    if len(live) < len(e_data):
        return False
    return rank(_restricted(P, e_data, live)) == len(e_data)


def undecodable_counts(P, f_max: int) -> dict[int, int]:
    """Number of undecodable f-block erasure patterns, f = 1..f_max, by
    testing every pattern."""
    k, r = len(P), len(P[0])
    n = k + r
    return {
        f: sum(
            1
            for pattern in itertools.combinations(range(1, n + 1), f)
            if not decodable(P, pattern)
        )
        for f in range(1, f_max + 1)
    }


def decodability_profile(P, f_max: int) -> dict[int, float]:
    n = len(P) + len(P[0])
    bad = undecodable_counts(P, f_max)
    return {f: 1.0 - bad[f] / math.comb(n, f) for f in bad}


def in_span(vectors: list[list[int]], targets: list[list[int]]) -> bool:
    """True iff every target lies in the span of vectors."""
    mul, inv = _tables()
    basis: list[tuple[int, list[int]]] = []

    def reduce(v):
        v = list(v)
        for p, b in basis:
            if v[p]:
                f = mul[v[p]]
                v = [x ^ f[y] for x, y in zip(v, b)]
        return v

    for vec in vectors:
        v = reduce(vec)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            s = mul[inv[v[p]]]
            basis.append((p, [s[x] for x in v]))
    return all(not any(reduce(t)) for t in targets)


def generator_column(P, block: int) -> list[int]:
    k = len(P)
    if block <= k:
        return [1 if i == block - 1 else 0 for i in range(k)]
    return [row[block - k - 1] for row in P]


def minimal_repair(P, erased) -> tuple[int, tuple[int, ...]]:
    """(cost, helpers) of the first survivor subset, in size order and then
    lexicographic order, whose generator columns span every erased one."""
    n = len(P) + len(P[0])
    erased = tuple(sorted(erased))
    survivors = [b for b in range(1, n + 1) if b not in erased]
    cols = {b: generator_column(P, b) for b in range(1, n + 1)}
    targets = [cols[e] for e in erased]
    for size in range(len(survivors) + 1):
        for subset in itertools.combinations(survivors, size):
            if in_span([cols[h] for h in subset], targets):
                return size, subset
    raise ValueError(f"pattern {erased} is not repairable")


def balanced_lrc_problems(P, w: int) -> list[str]:
    """Violated clauses of the balanced-LRC definition: row weights w,
    column weights l or l+1 with exactly w*k - r*l heavy columns, and
    every set of w rows independent (so every smaller set is too)."""
    k, r = len(P), len(P[0])
    l = (w * k) // r
    problems = []
    rows = [i + 1 for i, row in enumerate(P) if sum(1 for x in row if x) != w]
    if rows:
        problems.append(f"rows {rows} do not have weight {w}")
    weights = [sum(1 for row in P if row[j]) for j in range(r)]
    if any(cw not in (l, l + 1) for cw in weights):
        problems.append(f"column weights {weights} outside {{{l}, {l + 1}}}")
    elif sum(1 for cw in weights if cw == l + 1) != w * k - r * l:
        problems.append(
            f"column weights {weights}: expected {w * k - r * l} of weight {l + 1}"
        )
    for subset in itertools.combinations(range(k), min(w, k)):
        if rank([P[i] for i in subset]) < len(subset):
            problems.append(f"rows {[i + 1 for i in subset]} are dependent")
            break
    return problems


def encode_stripe(P, data: bytes) -> bytes:
    """Codeword of one stripe: the k data bytes, then each parity byte as
    a sum of bit-by-bit products."""
    parities = []
    for j in range(len(P[0])):
        acc = 0
        for i, x in enumerate(data):
            acc ^= gf_mul(P[i][j], x)
        parities.append(acc)
    return bytes(data) + bytes(parities)


def stripe_mttdl(
    profile: dict[int, float],
    b1: float,
    b2: float,
    n: int,
    k: int,
    mttf_days: float,
    repair_bytes_per_day: float,
    block_bytes: float,
) -> Fraction:
    """Mean days to data loss of one stripe, exactly.

    State f counts failed blocks.  A failure arrives at (n - f) / mttf; it
    leads to state f + 1 with probability p_{f+1} and kills the stripe
    otherwise.  From the last state with a decodable successor every
    failure kills.  A repair returns state f to f - 1 at the repair
    bandwidth over the bytes moved: b1 blocks for f = 1, b2 for f = 2 and k
    beyond.  The expected absorption times t_f satisfy
        (a_f + d_f + c_f) t_f = 1 + a_f t_{f+1} + d_f t_{f-1},
    a tridiagonal system solved by forward elimination.
    """
    r = n - k

    def p(f: int) -> Fraction:
        if f > r:
            return Fraction(0)
        return Fraction(profile[f])

    last = 0
    while last < r and p(last + 1) > 0:
        last += 1
    lam = 1 / Fraction(mttf_days)
    births, deaths, kills = [], [], []
    for f in range(last + 1):
        fail = (n - f) * lam
        ahead = p(f + 1) if f < last else Fraction(0)
        births.append(fail * ahead)
        kills.append(fail * (1 - ahead))
        if f == 0:
            deaths.append(Fraction(0))
        else:
            moved = {1: b1, 2: b2}.get(f, k)
            deaths.append(
                Fraction(repair_bytes_per_day) / (Fraction(moved) * Fraction(block_bytes))
            )
    # t_f = x_f + y_f * t_{f+1}, carried down from f = 0
    x, y = Fraction(0), Fraction(0)
    xs, ys = [], []
    for f in range(last + 1):
        a, d, c = births[f], deaths[f], kills[f]
        denom = a + d + c - d * y
        x, y = (1 + d * x) / denom, a / denom
        xs.append(x)
        ys.append(y)
    t = xs[last]
    for f in range(last - 1, -1, -1):
        t = xs[f] + ys[f] * t
    return t
