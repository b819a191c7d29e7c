"""Truncated operator power series."""

import pytest

from qmetric.algebra import OperatorExpr, h0, h1
from qmetric.rational import GaussianRational
from qmetric.series import SeriesExpr, series_commutator

X = OperatorExpr.x_power(1)
P = OperatorExpr.p_power(1)


def test_construction_and_access():
    s = SeriesExpr(3, {0: X, 2: P})
    assert s.order == 3
    assert s.indices() == [0, 2]
    assert s.coeff(1).is_zero() and s.coeff(3).is_zero()
    assert not s.is_zero()
    assert SeriesExpr.zero(5).is_zero()
    assert SeriesExpr.of(X, 2, order=4) == SeriesExpr(4, {2: X})
    # zero coefficients are dropped on entry
    assert SeriesExpr(2, {1: OperatorExpr.zero()}).is_zero()


def test_index_validation():
    with pytest.raises(ValueError):
        SeriesExpr(-1)
    for order in (2.5, 2.0, True):
        with pytest.raises(TypeError):
            SeriesExpr(order)
    with pytest.raises(ValueError):
        SeriesExpr(2, {3: X})
    s = SeriesExpr(2, {0: X})
    with pytest.raises(ValueError):
        s.coeff(3)
    with pytest.raises(ValueError):
        s.coeff(-1)


def test_arithmetic_truncates_to_shorter_operand():
    a = SeriesExpr(4, {0: X, 4: P})
    b = SeriesExpr(2, {0: P})
    assert (a + b).order == 2
    assert (a + b).coeff(0) == X + P
    prod = a * b
    assert prod.order == 2
    assert prod.coeff(0) == X * P
    assert prod.coeff(2).is_zero()  # the order-4 term fell off
    assert series_commutator(a, b) == a * b - b * a


def test_multiplication_collects_cross_terms():
    a = SeriesExpr(2, {0: X, 1: P})
    b = SeriesExpr(2, {1: X})
    assert (a * b).coeff(1) == X * X
    assert (a * b).coeff(2) == P * X
    assert (b * a).coeff(2) == X * P
    assert series_commutator(b, a).coeff(2) == X * P - P * X
    assert series_commutator(a, b) == a * b - b * a


def test_truncate_and_adjoint():
    a = SeriesExpr(4, {0: h0(), 1: h1(), 4: P})
    t = a.truncate(1)
    assert t.order == 1 and t.indices() == [0, 1]
    assert a.adjoint() == SeriesExpr(4, {0: h0(), 1: -h1(), 4: P})


def test_scale_and_equality():
    i = GaussianRational(0, 1)
    a = SeriesExpr(2, {1: X})
    assert a.scale(i).coeff(1) == X.scale(i)
    assert a != SeriesExpr(3, {1: X})  # order is part of the value
    assert hash(a) == hash(SeriesExpr(2, {1: X}))
