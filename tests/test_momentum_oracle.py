"""Laurent test functions and the momentum-representation action."""

from hypothesis import given, strategies as st

from qmetric.algebra import OperatorExpr, commutator
from qmetric.rational import GaussianRational

from momentum import LaurentPoly, PFunction, momentum_rep_apply

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=8)


@st.composite
def laurents(draw):
    coeffs = {k: GaussianRational(draw(fracs), draw(fracs))
              for k in draw(st.sets(st.integers(-4, 4), max_size=4))}
    return LaurentPoly(coeffs)


@given(laurents(), laurents())
def test_laurent_ring(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()


@given(laurents(), laurents())
def test_derivative_product_rule(a, b):
    assert (a * b).deriv() == a.deriv() * b + a * b.deriv()


@given(laurents())
def test_reflection_is_involutive(a):
    assert a.reflect().reflect() == a
    assert a.reflect().deriv() == -(a.deriv().reflect())


def test_unit_and_shift():
    u = LaurentPoly.unit(-5)
    assert u.shift(5) == LaurentPoly.unit(0)
    assert u.deriv() == LaurentPoly.unit(-6, -5)


def test_position_convention():
    # x = i d/dp: [x, p^n] applied to 1 gives i n p^(n-1)
    x = OperatorExpr.x_power(1)
    one = PFunction(LaurentPoly.unit(0))
    for n in (-3, -1, 1, 2, 5):
        pn = OperatorExpr.p_power(n)
        got = momentum_rep_apply(commutator(x, pn), one)
        want = PFunction(LaurentPoly.unit(n - 1, GaussianRational(0, n)))
        assert got == want


def test_parity_action():
    P = OperatorExpr.parity_op()
    f = PFunction(LaurentPoly({1: GaussianRational(1), 2: GaussianRational(3)}))
    g = momentum_rep_apply(P, f)
    assert g == PFunction(LaurentPoly({1: GaussianRational(-1),
                                       2: GaussianRational(3)}))


def test_symbolic_coefficients_are_rejected():
    import pytest
    from qmetric.params import ParamPoly
    expr = OperatorExpr.monomial(ParamPoly.symbol("l1"), 0, 1, False)
    with pytest.raises(ValueError):
        momentum_rep_apply(expr, PFunction(LaurentPoly.unit(0)))
