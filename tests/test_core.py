"""The commutator kernel and the grouped adjoint against the product-built
forms they replace."""

from hypothesis import given, strategies as st

from qmetric import _core_py as core
from qmetric.algebra import OperatorExpr

ints = st.integers(-999, 999)
dens = st.integers(1, 99)


@st.composite
def scalars(draw):
    return core.q_make(draw(ints), draw(dens), draw(ints), draw(dens))


@st.composite
def polys(draw):
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        ev = tuple(sorted({draw(st.integers(0, 5)): draw(st.integers(1, 3))
                           for _ in range(draw(st.integers(0, 2)))}.items()))
        c = draw(scalars())
        if not core.q_is_zero(c):
            out[ev] = c
    return out


@st.composite
def op_tables(draw):
    """Exprs with parity flags and negative p powers."""
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        key = (draw(st.integers(0, 4)), draw(st.integers(-4, 4)),
               draw(st.integers(0, 1)))
        p = draw(polys())
        if p:
            out[key] = p
    return out


def _minus(t1, t2):
    return core.expr_add(t1, core.expr_scale(t2, (-1, 1, 0, 1)))


@given(op_tables(), op_tables())
def test_commutator_matches_two_products(a, b):
    assert core.expr_commutator(a, b) == _minus(core.expr_mul(a, b),
                                                core.expr_mul(b, a))


def _adjoint_by_monomial(t):
    """The adjoint as one product and one sum per monomial."""
    out = {}
    for (a, b, e), p in t.items():
        cp = core.poly_conj(p)
        if e and (b & 1):
            cp = core.poly_neg(cp)
        out = core.expr_add(out, core.expr_mul({(0, b, e): cp},
                                               {(a, 0, 0): {(): core.Q_ONE}}))
    return out


@given(op_tables())
def test_adjoint_matches_per_monomial_products(a):
    assert OperatorExpr.from_raw(a).adjoint().raw == _adjoint_by_monomial(a)
