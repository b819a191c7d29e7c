"""Position-representation kernels and distribution bookkeeping.

The oracle for the wave operator is the operator algebra itself:
<x|[p^2, A]|y> must equal (-d_x^2 + d_y^2)<x|A|y>, so mapping a
commutator computed in normal order has to agree with differentiating
the mapped kernel.  Delta reduction is pinned by textbook identities
like (x-y) d'(x-y) = -d(x-y), and by property tests against the
repeated-product substitution the closed form replaced; the core-backed
XYPoly product is checked against a term-by-term product.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmetric import backend as _b
from qmetric.algebra import OperatorExpr, commutator
from qmetric.errors import EngineError
from qmetric.kernels import (Kernel, XYPoly, _delta_reduce,
                             apply_wave_operator, delta_kernel,
                             is_hermitian_kernel, sign_kernel, to_kernel)
from qmetric.params import ParamPoly
from qmetric.rational import GaussianRational

I = GaussianRational(0, 1)
ONE = XYPoly.monomial(1, 0, 0)
X = XYPoly.monomial(1, 1, 0)
Y = XYPoly.monomial(1, 0, 1)


# -- distribution identities ---------------------------------------------------

def test_delta_annihilates_its_argument():
    assert delta_kernel(X - Y).is_zero()
    assert delta_kernel((X - Y) * (X + Y)).is_zero()
    assert delta_kernel(X + Y, plus=True).is_zero()


def test_delta_prime_transfer():
    # (x-y) d'(x-y) = -d(x-y)
    assert delta_kernel(X - Y, k=1) == delta_kernel(-ONE)
    # (x-y)^2 d''(x-y) = 2 d(x-y)
    assert delta_kernel((X - Y) * (X - Y), k=2) == delta_kernel(ONE.scale(2))
    # same mechanics on the x+y support
    assert delta_kernel(X + Y, k=1, plus=True) == delta_kernel(-ONE, plus=True)


def test_delta_support_substitution():
    # y = x on the x-y support: x*d(x-y) and y*d(x-y) agree
    assert delta_kernel(X) == delta_kernel(Y)
    assert delta_kernel(X, plus=True) == delta_kernel(-Y, plus=True)


# -- operator -> kernel map ----------------------------------------------------

def test_elementary_kernels():
    assert to_kernel(OperatorExpr.one()) == delta_kernel(ONE)
    assert to_kernel(OperatorExpr.p_power(1)) == delta_kernel(
        XYPoly.monomial(-I, 0, 0), k=1)
    assert to_kernel(OperatorExpr.p_power(-1)) == sign_kernel(
        XYPoly.monomial(I * Fraction(1, 2), 0, 0))
    assert to_kernel(OperatorExpr.x_power(2)) == delta_kernel(X * X)


def test_parity_flips_the_support():
    k = to_kernel(OperatorExpr.monomial(1, 0, -1, True))
    assert k == sign_kernel(XYPoly.monomial(I * Fraction(1, 2), 0, 0),
                            plus=True)
    k2 = to_kernel(OperatorExpr.parity_op())
    assert k2 == delta_kernel(ONE, plus=True)


def test_parameters_are_rejected():
    sym = OperatorExpr.monomial(ParamPoly.symbol("l1"), 0, -5, False)
    with pytest.raises(EngineError):
        to_kernel(sym)


# -- wave operator -------------------------------------------------------------

def test_wave_on_plain_sign_vanishes():
    assert apply_wave_operator(sign_kernel(ONE)).is_zero()


def test_wave_on_linear_sign_by_hand():
    # (-d_x^2 + d_y^2) [x sign(x-y)] = -4 d(x-y)
    got = apply_wave_operator(sign_kernel(X))
    assert got == delta_kernel(ONE.scale(-4))


@pytest.mark.parametrize("expr", [
    OperatorExpr.monomial(Fraction(1, 2), 4, -3, False),
    OperatorExpr.monomial(1, 2, -1, False),
    OperatorExpr.monomial(GaussianRational(0, 1), 3, -2, True),
    OperatorExpr.monomial(GaussianRational(2, -3), 1, -5, True),
    (OperatorExpr.monomial(1, 4, -1, False)
     + OperatorExpr.monomial(GaussianRational(0, 1), 3, -2, False)
     + OperatorExpr.monomial(Fraction(-3, 2), 2, -3, False)),
])
def test_wave_equals_mapped_commutator(expr):
    p2 = OperatorExpr.p_power(2)
    assert apply_wave_operator(to_kernel(expr)) == to_kernel(
        commutator(p2, expr))


# -- Hermiticity bridge ---------------------------------------------------------

def test_hermitian_operator_gives_hermitian_kernel():
    t = OperatorExpr.monomial(GaussianRational(1, 2), 3, -4, False)
    assert is_hermitian_kernel(to_kernel(t + t.adjoint()))
    assert not is_hermitian_kernel(to_kernel(
        t + t.adjoint() + OperatorExpr.monomial(I, 2, -1, False)))


def test_conjugate_swap_is_involutive():
    k = to_kernel(OperatorExpr.monomial(GaussianRational(1, 1), 2, -3, True)
                  + OperatorExpr.monomial(Fraction(5), 1, -2, False))
    assert k.conjugate_swap().conjugate_swap() == k


# -- XYPoly basics ---------------------------------------------------------------

def test_xypoly_binomials():
    assert XYPoly.x_minus_y_power(2) == X * X - X * Y.scale(2) + Y * Y
    assert XYPoly.x_plus_y_power(2) == X * X + X * Y.scale(2) + Y * Y


@pytest.mark.parametrize("bad", [1.5, True])
def test_xypoly_rejects_non_int_exponents(bad):
    for key in ((bad, 0), (0, bad)):
        with pytest.raises(TypeError, match="exponent must be an int"):
            XYPoly({key: 1})


@pytest.mark.parametrize("bad", [1.5, True])
def test_delta_order_must_be_an_int(bad):
    with pytest.raises(TypeError, match="derivative order must be an int"):
        delta_kernel(ONE, k=bad)


def test_xypoly_calculus():
    f = X * X * Y
    assert f.deriv_x() == X * Y.scale(2)
    assert f.deriv_y() == X * X
    assert f.swap() == Y * Y * X


# -- core-backed product and closed-form delta reduction against the old loops --

def _termwise_product(a, b):
    """The product as a term-by-term loop over the (i, j) view."""
    out = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            k = (i1 + i2, j1 + j2)
            c = _b.q_mul(c1, c2)
            out[k] = c if k not in out else _b.q_add(out[k], c)
    return XYPoly({k: GaussianRational.from_tuple(c) for k, c in out.items()})


def _substitution_reduce(k, s, poly):
    """poly * delta^(k)(x - s*y) reduced by substituting y = s*x - s*u,
    expanding in u by repeated products, and lowering the delta order by
    u^m delta^(k)(u) = (-1)^m k!/(k-m)! delta^(k-m)(u) term by term."""
    sub = XYPoly({(1, 0): s, (0, 1): -s})
    expanded = XYPoly.zero()
    for (i, j), c in poly.terms.items():
        term = XYPoly({(i, 0): GaussianRational.from_tuple(c)})
        for _ in range(j):
            term = _termwise_product(term, sub)
        expanded = expanded + term
    out = {}
    for (i, m), c in expanded.terms.items():
        if m <= k:
            factor = (-1) ** m * math.factorial(k) // math.factorial(k - m)
            key = ("delta", k - m, s)
            add = XYPoly.monomial(GaussianRational.from_tuple(c) * factor, i)
            out[key] = out.get(key, XYPoly.zero()) + add
    return {key: p for key, p in out.items() if not p.is_zero()}


_parts = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
xypolys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          st.builds(GaussianRational, _parts, _parts),
                          max_size=4).map(XYPoly)


@settings(deadline=None)
@given(xypolys, xypolys)
def test_product_equals_termwise_product(a, b):
    assert a * b == _termwise_product(a, b)


@settings(deadline=None)
@given(xypolys, st.integers(0, 4), st.sampled_from((1, -1)))
def test_delta_reduce_equals_substitution(poly, k, s):
    assert _delta_reduce(k, s, poly) == _substitution_reduce(k, s, poly)
