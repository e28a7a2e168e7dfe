import pytest
from hypothesis import given
from hypothesis import strategies as st

from blrc.gf import GF256, DEFAULT_POLY, FieldMismatchError, FieldSpec, is_irreducible
from util_oracles import clmul_reduce

elem = st.integers(min_value=0, max_value=255)


def test_add_identity_and_characteristic_two():
    assert GF256.add(0x57, 0x00) == 0x57
    assert GF256.add(0x57, 0x57) == 0x00


def test_add_is_xor():
    assert GF256.add(0x57, 0x83) == 0xD4


def test_mul_identity_and_annihilator():
    for a in (0x01, 0x53, 0xFF):
        assert GF256.mul(a, 0x01) == a
        assert GF256.mul(a, 0x00) == 0


def test_mul_shift_reduce_example():
    assert GF256.mul(0x02, 0x80) == 0x1D


def test_inv_examples():
    assert GF256.inv(0x01) == 0x01
    assert GF256.inv(0x02) == 0x8E
    assert GF256.mul(0x02, 0x8E) == 0x01


def test_inverses_exhaustive_and_unique():
    seen = set()
    for a in range(1, 256):
        inv = GF256.inv(a)
        assert GF256.mul(a, inv) == 1
        seen.add(inv)
    assert len(seen) == 255


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_mul_table_matches_carryless_reference():
    for a in range(0, 256, 7):
        for b in range(0, 256, 11):
            assert GF256.mul(a, b) == clmul_reduce(a, b, DEFAULT_POLY, 8)


def test_translate_tables_match_field_arithmetic():
    # one table per constant, built once per instance; bytes outside the
    # field map to 0, and so does every byte under div_tables[0]
    for field in (FieldSpec(1, 0b11), FieldSpec(4, 0b10011), GF256):
        q, mul, div = field.order, field.mul_tables, field.div_tables
        assert field.mul_tables is mul and len(mul) == len(div) == q
        for c in range(q):
            assert list(mul[c][:q]) == [field.mul(c, x) for x in range(q)]
            assert not any(mul[c][q:])
            if c:
                assert list(div[c][:q]) == [field.div(x, c) for x in range(q)]
        assert not any(div[0])


@given(a=elem, b=elem, c=elem)
def test_field_axioms(a, b, c):
    f = GF256
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(a=elem)
def test_division_round_trip(a):
    b = 0xB7
    assert GF256.div(GF256.mul(a, b), b) == a


def test_out_of_range_operand_rejected():
    with pytest.raises(FieldMismatchError):
        GF256.add(0x100, 1)
    small = FieldSpec(4, 0b10011)
    with pytest.raises(FieldMismatchError):
        small.mul(200, 1)


@pytest.mark.parametrize("m,poly", [(4, 0b10011), (3, 0b1011), (16, 0x1100B)])
def test_other_degrees_form_fields(m, poly):
    f = FieldSpec(m, poly)
    for a in range(1, min(f.order, 40)):
        assert f.mul(a, f.inv(a)) == 1


def test_reducible_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    assert not is_irreducible(0b10101)
    with pytest.raises(ValueError):
        FieldSpec(4, 0b10101)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        FieldSpec(8, 0b10011)  # degree 4 polynomial for m=8
    with pytest.raises(ValueError):
        FieldSpec(8, 0x11C)  # no constant term


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        FieldSpec(17, (1 << 17) | 0b11)
    with pytest.raises(ValueError):
        FieldSpec(0, 0b1)


def test_field_equality_and_reuse():
    assert FieldSpec(8, DEFAULT_POLY) == GF256
    assert FieldSpec(4, 0b10011) != GF256
