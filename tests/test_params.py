"""Polynomials in the free amplitudes."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmetric.params import ParamPoly, format_poly, parse_poly
from qmetric.rational import GaussianRational

L1, K1 = ParamPoly.symbol("l1"), ParamPoly.symbol("k1")
L2 = ParamPoly.symbol("l2")


def test_constructor_and_constants():
    assert ParamPoly(0).is_zero()
    assert ParamPoly(Fraction(3, 4)).constant_value() == GaussianRational(Fraction(3, 4))
    assert ParamPoly("l1 + 3").substitute({"l1": Fraction(-3)}).is_zero()
    with pytest.raises(ValueError):
        (L1 + 1).constant_value()


def test_substitute_partial_and_full():
    p = L1 * L1 - K1 * 2 + 7
    full = p.substitute({"l1": Fraction(2), "k1": Fraction(1, 2)})
    assert full.constant_value() == GaussianRational(10)
    part = p.substitute({"k1": Fraction(0)})
    assert part == L1 * L1 + 7
    assert p.substitute({}) == p


def test_coefficient_extraction():
    p = L1 * L1 * 3 + L1 * K1 + ParamPoly(5)
    assert p.coefficient({"l1": 2}) == ParamPoly(3)
    assert p.coefficient({"l1": 1, "k1": 1}) == ParamPoly(1)
    assert p.coefficient({}) == p  # unlisted symbols stay formal
    assert p.coefficient({"l2": 1}).is_zero()


def test_reality_and_conjugation():
    i = ParamPoly(GaussianRational(0, 1))
    assert (L1 + 1).is_real()
    q = (L1 + 1) * i
    assert not q.is_real()
    assert q.conjugate() == (L1 + 1) * -i


def test_degree_and_symbols():
    assert ParamPoly(0).degree() == -1
    assert ParamPoly(4).degree() == 0
    assert (L1 * K1 * K1 + L2).degree() == 3
    assert (L1 * K1 + L2).symbols() == ["l1", "k1", "l2"]


scalars = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def polys(draw):
    out = ParamPoly(0)
    for _ in range(draw(st.integers(0, 4))):
        term = ParamPoly(GaussianRational(draw(scalars), draw(scalars)))
        for name in draw(st.sets(st.sampled_from(["l1", "k1", "l2", "k2", "l3"]),
                                 max_size=3)):
            for _ in range(draw(st.integers(1, 3))):
                term = term * ParamPoly.symbol(name)
        out = out + term
    return out


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + (-a) == ParamPoly(0)


@given(polys())
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p
    assert parse_poly(format_poly(p, compact=True)) == p


@given(polys(), polys())
def test_conjugate_is_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_parse_rejects_garbage():
    for text in ("l1 +", "()", "l0", "q1", "1..2"):
        with pytest.raises(ValueError):
            parse_poly(text)


def test_zero_exponent_factor_is_dropped():
    assert parse_poly("l1^0") == ParamPoly(1)
    assert (parse_poly("l1^0") - 1).is_zero()
    assert parse_poly("3*l1^0*k1^2") == parse_poly("3*k1^2")
    assert parse_poly("l1^0*k1^0 + l1") == L1 + 1
