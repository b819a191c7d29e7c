"""Normal-ordered operator algebra.

The independent oracle is the momentum representation: x acts as
i d/dp, p multiplies, the parity factor reflects p -> -p.  A product is
correct iff applying it to a test function equals sequential
application, which pins the reordering rules without reusing them.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qmetric.algebra import (Monomial, OperatorExpr, anticommutator, commutator,
                             from_symmetric_form, h0, h1, scaling_degree,
                             symmetric_form)
from qmetric.params import ParamPoly
from qmetric.rational import GaussianRational

from momentum import LaurentPoly, PFunction, momentum_rep_apply

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def exprs(draw):
    out = OperatorExpr.zero()
    for _ in range(draw(st.integers(0, 3))):
        c = GaussianRational(draw(fracs), draw(fracs))
        out = out + OperatorExpr.monomial(
            c, draw(st.integers(0, 3)), draw(st.integers(-3, 3)),
            draw(st.booleans()))
    return out


@st.composite
def pfuncs(draw):
    coeffs = {k: GaussianRational(draw(fracs), draw(fracs))
              for k in draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))}
    return PFunction(LaurentPoly(coeffs))


@given(exprs(), exprs(), pfuncs())
@settings(max_examples=200)
def test_product_matches_sequential_application(a, b, f):
    lhs = momentum_rep_apply(a * b, f)
    rhs = momentum_rep_apply(a, momentum_rep_apply(b, f))
    assert lhs == rhs


@given(exprs(), exprs(), pfuncs())
def test_sum_acts_linearly(a, b, f):
    assert momentum_rep_apply(a + b, f) == (
        momentum_rep_apply(a, f) + momentum_rep_apply(b, f))


@given(exprs(), exprs(), exprs())
def test_associativity_and_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exprs(), exprs())
def test_adjoint_is_an_antiinvolution(a, b):
    assert a.adjoint().adjoint() == a
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()
    assert (a + b).adjoint() == a.adjoint() + b.adjoint()
    assert (a + a.adjoint()).is_hermitian()
    assert (a * a.adjoint()).is_hermitian()


@given(exprs())
def test_antihermitian_check_and_negation(a):
    # is_antihermitian compares A+ with -A; the verdict must be that of
    # the sum A + A+, and -A must equal the scaled copy, reduced alike.
    assert a.is_antihermitian() == (a + a.adjoint()).is_zero()
    assert (a - a.adjoint()).is_antihermitian()
    assert (-a).raw == a.scale(-1).raw


def test_antihermitian_examples():
    i = GaussianRational(0, 1)
    x, p = OperatorExpr.x_power(1), OperatorExpr.p_power(1)
    cases = ((x.scale(i), True), ((x * p + p * x).scale(i), True), (h1(), True),
             (OperatorExpr.zero(), True), (x * p, False), (h0(), False),
             ((x * p).scale(i), False))
    for expr, anti in cases:
        assert expr.is_antihermitian() is anti, expr
        assert (expr + expr.adjoint()).is_zero() is anti, expr


@given(exprs(), exprs(), exprs())
def test_commutator_identities(a, b, c):
    assert commutator(a, b) == -(commutator(b, a))
    jac = (commutator(commutator(a, b), c) + commutator(commutator(b, c), a)
           + commutator(commutator(c, a), b))
    assert jac.is_zero()
    assert anticommutator(a, b) == anticommutator(b, a)


def test_parity_conjugation_flips_signs():
    P = OperatorExpr.parity_op()
    x, p = OperatorExpr.x_power(1), OperatorExpr.p_power(1)
    assert P * x * P == -x
    assert P * p * P == -p
    assert P * P == OperatorExpr.one()


def test_canonical_pair():
    x, p = OperatorExpr.x_power(1), OperatorExpr.p_power(1)
    assert commutator(x, p) == OperatorExpr.one().scale(GaussianRational(0, 1))
    # x moves right past p^b by repeated single exchanges
    assert x * p - p * x == OperatorExpr.one().scale(GaussianRational(0, 1))


def test_model_hamiltonian_pieces():
    assert h0() == OperatorExpr.monomial(Fraction(1, 2), pPow=2)
    assert h1() == OperatorExpr.monomial(GaussianRational(0, 1), xPow=3)
    assert h0().is_hermitian()
    assert not (h0() + h1()).is_hermitian()
    assert (h0() + h1()).adjoint() == h0() - h1()


@given(exprs())
def test_symmetric_form_round_trip(a):
    assert from_symmetric_form(symmetric_form(a)) == a


def test_symmetric_form_of_anticommutator():
    items = symmetric_form(anticommutator(OperatorExpr.x_power(4),
                                          OperatorExpr.p_power(-1)))
    assert items == [(4, -1, False, ParamPoly(1))]


def test_scaling_degree():
    assert scaling_degree(h0()) == 2
    assert scaling_degree(h1()) == -3
    assert scaling_degree(OperatorExpr.zero()) == 0
    mixed = h0() + OperatorExpr.x_power(1)
    assert scaling_degree(mixed) == [-1, 2]


def test_negative_x_power_rejected():
    import pytest
    with pytest.raises(ValueError):
        OperatorExpr.monomial(1, xPow=-1)


def test_non_int_powers_rejected():
    import pytest
    for bad in (lambda: OperatorExpr.monomial(1, 1, -1.5),
                lambda: OperatorExpr.x_power(2.7),
                lambda: OperatorExpr.p_power(Fraction(1)),
                lambda: OperatorExpr.monomial(1, True),
                lambda: OperatorExpr.monomial(1, 0, False),
                lambda: OperatorExpr.monomial(0, 2.0),
                lambda: Monomial(1.5, 0),
                lambda: Monomial(1, True)):
        with pytest.raises(TypeError):
            bad()
    assert OperatorExpr("(l1^0)*x") == OperatorExpr.x_power(1)
