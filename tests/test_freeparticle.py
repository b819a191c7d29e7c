"""Exact pseudo-Hermitian quantization of the free particle.

Everything here is rational arithmetic: e^kappa enters only through the
ratio n = e^kappa, which turns cosh/sinh into rational pairs, and square
roots are taken exactly or refused.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmetric.algebra import OperatorExpr, commutator
from qmetric.errors import EngineError
from qmetric.freeparticle import (ParityLinear, free_metric, hyperbolic_pair,
                                  inner_product_weights, localized_overlap,
                                  localized_weights, momentum_observable,
                                  position_observable)
from qmetric.rational import GaussianRational

RATIOS = (F(4), F(9, 4), F(1, 4), F(25, 9), F(1))
SQUARE_PAIRS = ((F(4), F(1)), (F(9, 4), F(9, 16)), (F(1, 4), F(1, 4)),
                (F(25, 9), F(25, 36)), (F(1), F(1)))

positive_rationals = st.fractions(min_value=F(1, 40), max_value=F(40))


@given(positive_rationals)
def test_hyperbolic_identity(n):
    c, s = hyperbolic_pair(n)
    assert c * c - s * s == 1
    assert c >= 1
    # kappa and -kappa: inverting the ratio flips sinh only
    ci, si = hyperbolic_pair(1 / n)
    assert (ci, si) == (c, -s)


def test_hyperbolic_pair_rejects_nonpositive():
    with pytest.raises(EngineError):
        hyperbolic_pair(F(0))
    with pytest.raises(EngineError):
        hyperbolic_pair(F(-3, 2))


# -- parity algebra -------------------------------------------------------------

def test_parity_element_algebra():
    par = ParityLinear(F(0), F(1))
    one = ParityLinear(F(1), F(0))
    assert par * par == one
    x = ParityLinear(F(3, 2), F(-2, 3))
    y = ParityLinear(F(-1), F(5))
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y
    assert x * x.inverse() == one
    assert (x - x) == ParityLinear(F(0), F(0))
    with pytest.raises(EngineError):
        ParityLinear(F(1), F(1)).inverse()


def test_positivity_is_an_eigenvalue_statement():
    assert ParityLinear(F(2), F(1)).is_positive()
    assert not ParityLinear(F(1), F(2)).is_positive()
    assert not ParityLinear(F(1), F(-1)).is_positive()  # zero eigenvalue
    assert not ParityLinear(F(-3), F(1)).is_positive()


def test_sqrt_round_trip_exact():
    for ratio, scale in SQUARE_PAIRS:
        eta = free_metric(ratio, scale)
        root = eta.sqrt()
        assert root * root == eta
        assert root.is_positive()


def test_sqrt_pinned_value():
    eta = free_metric(F(9, 4), F(9, 16))
    assert eta == ParityLinear(F(97, 128), F(-65, 128))
    assert eta.sqrt() == ParityLinear(F(13, 16), F(-5, 16))


def test_sqrt_rejections():
    with pytest.raises(EngineError):
        ParityLinear(F(1), F(2)).sqrt()  # not positive
    with pytest.raises(EngineError):
        ParityLinear(F(2), F(0)).sqrt()  # irrational entries


def test_sqrt_float_fallback():
    k = 1.375
    eta = ParityLinear(math.cosh(k), -math.sinh(k))
    root = eta.sqrt()
    prod = root * root
    assert prod.a == pytest.approx(eta.a, rel=1e-12)
    assert prod.b == pytest.approx(eta.b, rel=1e-12)
    with pytest.raises(EngineError):
        eta.as_operator()


@pytest.mark.parametrize("kappa", [-2, -1, 0, 1, 2])
def test_metric_positivity_float(kappa):
    eta = ParityLinear(math.cosh(kappa), -math.sinh(kappa))
    assert eta.is_positive()


# -- observables ------------------------------------------------------------------

@pytest.mark.parametrize("ratio", RATIOS)
def test_canonical_pair(ratio):
    got = commutator(position_observable(ratio), momentum_observable(ratio))
    assert got == OperatorExpr.one().scale(GaussianRational(0, 1))


@pytest.mark.parametrize("ratio", RATIOS)
def test_squares_are_undressed(ratio):
    x_obs, p_obs = position_observable(ratio), momentum_observable(ratio)
    assert x_obs * x_obs == OperatorExpr.x_power(2)
    assert p_obs * p_obs == OperatorExpr.p_power(2)


@pytest.mark.parametrize("ratio", RATIOS)
def test_observables_are_metric_hermitian(ratio):
    eta = free_metric(ratio, F(9, 16)).as_operator()
    for obs in (position_observable(ratio), momentum_observable(ratio)):
        assert eta * obs == obs.adjoint() * eta


def test_metric_guards():
    with pytest.raises(EngineError):
        free_metric(F(-1))
    with pytest.raises(EngineError):
        free_metric(F(2), F(0))


# -- inner products ----------------------------------------------------------------

def test_pinned_weights():
    assert inner_product_weights(F(9, 4), F(9, 16)) == (F(97, 96), F(-65, 96))
    assert localized_weights(F(9, 4), F(9, 16)) == (F(13, 9), F(5, 9))


def test_weights_need_exact_roots():
    with pytest.raises(EngineError):
        inner_product_weights(F(9, 4), F(2))
    with pytest.raises(EngineError):
        localized_weights(F(2), F(1))


@pytest.mark.parametrize("ratio,scale", SQUARE_PAIRS)
def test_localized_states_are_orthonormal(ratio, scale):
    assert localized_overlap(ratio, scale) == (F(1), F(0))


@given(positive_rationals, positive_rationals)
def test_localized_overlap_exact_for_all_squares(n, m):
    assert localized_overlap(n * n, m * m) == (F(1), F(0))


@pytest.mark.parametrize("bad", [True, 0.1, "9/4"])
@pytest.mark.parametrize("func, slot", [
    (hyperbolic_pair, 0), (free_metric, 0), (free_metric, 1),
    (inner_product_weights, 0), (inner_product_weights, 1),
    (localized_weights, 0), (localized_weights, 1),
    (localized_overlap, 0), (localized_overlap, 1),
    (position_observable, 0), (momentum_observable, 0),
])
def test_entry_points_refuse_inexact_values(func, slot, bad):
    args = [F(4), F(1)][:slot + 1]
    args[slot] = bad
    with pytest.raises(TypeError):
        func(*args)


@pytest.mark.parametrize("call", [inner_product_weights, localized_weights,
                                  localized_overlap])
def test_zero_scale_is_an_engine_error(call):
    with pytest.raises(EngineError):
        call(4, 0)
