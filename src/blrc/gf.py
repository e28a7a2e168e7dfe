"""Arithmetic in binary extension fields GF(2^m).

Elements are plain integers in [0, 2^m).  A FieldSpec owns the reduction
polynomial and the log/antilog tables; all element operations go through it.
For m <= 8 it builds, on first use, byte-translation tables that multiply a
vector of one-byte elements by a constant in one bytes.translate call.  No
table changes once built, so a single instance can be shared across threads.
"""

from __future__ import annotations

from functools import cached_property


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


# x^8 + x^4 + x^3 + x^2 + 1, the polynomial used by most erasure-coding
# libraries for GF(2^8).
DEFAULT_POLY = 0x11D


def _clmul_reduce(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less multiply then reduce mod poly.  Reference implementation;
    table construction is checked against it."""
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


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial division of poly by all polynomials of degree
    1 .. deg/2 over GF(2)."""
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for low in range(1 << d):
            divisor = (1 << d) | low
            rem = poly
            while rem.bit_length() >= divisor.bit_length():
                rem ^= divisor << (rem.bit_length() - divisor.bit_length())
            if rem == 0:
                return False
    return True


class FieldSpec:
    """GF(2^m) for 1 <= m <= 16, with log/antilog multiplication tables.

    The reduction polynomial is an integer bitmask with bit m and bit 0 set;
    it must be irreducible over GF(2) (verified at construction).
    """

    def __init__(self, m: int = 8, reduction_polynomial: int = DEFAULT_POLY):
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree must be in [1, 16], got {m}")
        poly = reduction_polynomial
        if not (poly >> m) & 1 or (poly >> (m + 1)):
            raise ValueError(
                f"reduction polynomial 0x{poly:x} does not have degree {m}"
            )
        if not poly & 1:
            raise ValueError(f"reduction polynomial 0x{poly:x} has no constant term")
        if not is_irreducible(poly):
            raise ValueError(f"polynomial 0x{poly:x} is reducible over GF(2)")
        self.m = m
        self.order = 1 << m
        self.poly = poly
        self._build_tables()

    def _build_tables(self) -> None:
        q = self.order
        if q == 2:
            self._exp = [1, 1]
            self._log = [0, 0]
            return
        gen = self._find_generator()
        # exp table doubled so mul never needs a modulo
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = _clmul_reduce(x, gen, self.poly, self.m)
        if x != 1:
            raise AssertionError("generator order mismatch; tables corrupt")
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        q = self.order
        for g in range(2, q):
            x = 1
            order = 0
            while True:
                x = _clmul_reduce(x, g, self.poly, self.m)
                order += 1
                if x == 1:
                    break
            if order == q - 1:
                return g
        raise AssertionError("no multiplicative generator found")

    @cached_property
    def mul_tables(self) -> list[bytes]:
        """For m <= 8: mul_tables[c] translates x to c * x, and bytes past the
        field to 0; c * alpha's table is c's translated by alpha's."""
        exp, log, q = self._exp, self._log, self.order
        alpha = bytes([exp[log[x] + 1] if x else 0 for x in range(q)]).ljust(256, b"\0")
        tables, table = [bytes(256)] * q, bytes(range(q)).ljust(256, b"\0")
        for c in exp[: q - 1]:
            tables[c] = table
            table = table.translate(alpha)
        return tables

    @cached_property
    def div_tables(self) -> list[bytes]:
        """For m <= 8: div_tables[c] translates x to x / c, and [0] to 0."""
        mul, exp, log, q1 = self.mul_tables, self._exp, self._log, self.order - 1
        return [mul[0]] + [mul[exp[q1 - log[c]]] for c in range(1, q1 + 1)]

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not isinstance(a, int) or not 0 <= a < self.order:
                raise FieldMismatchError(
                    f"{a!r} is not an element of GF(2^{self.m})"
                )

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and other.m == self.m
            and other.poly == self.poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def __repr__(self) -> str:
        return f"FieldSpec(m={self.m}, reduction_polynomial=0x{self.poly:x})"


GF256 = FieldSpec(8, DEFAULT_POLY)
