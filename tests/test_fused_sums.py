"""The one-call sums of commutators and products against the per-pair
loops they replaced: series_commutator, the nested-commutator entries
E[k][m] of the derivation's and the dressing's tables, and the adjoint.
Exact arithmetic makes regrouping a sum exact, so the results must be
equal.  The Weyl symbols the derivation keeps for its own table and
lends to the X and P tables must equal a fresh conversion of each Q_s."""

import math
from fractions import Fraction

import pytest

from qmetric import _core_py as core
from qmetric.algebra import OperatorExpr, commutator
from qmetric.observables import equivalent_hermitian, observable_p, observable_x
from qmetric.perturbation import MetricParams, QSeries, derive_metric_series
from qmetric.series import NestedCommutators, SeriesExpr, series_commutator


def looped_series_commutator(a, b):
    """[a, b] with one commutator and one rational sum per pair."""
    n = min(a.order, b.order)
    out = {}
    for j1 in a.indices():
        for j2 in b.indices():
            j = j1 + j2
            if j > n:
                continue
            c = commutator(a.coeff(j1), b.coeff(j2))
            out[j] = out[j] + c if j in out else c
    return SeriesExpr(n, out)


def normal(symbol):
    """A table entry, a Weyl symbol, as a normal-ordered OperatorExpr."""
    return OperatorExpr.from_raw(core.to_normal(symbol))


def looped_entry(table, k, m):
    """E[k][m] as a rational sum of one normal-ordered commutator per pair."""
    return sum((commutator(normal(table.entry(k - 1, m - s)), table.q[s - 1])
                for s in range(1, m - k - table.lo + 2)), OperatorExpr.zero())


def looped_adjoint(expr):
    """The adjoint as one product per x-power group, merged with expr_add."""
    by_x = {}
    for (a, b, e), p in expr.raw.items():
        cp = core.poly_conj(p)
        if e and (b & 1):
            cp = core.poly_neg(cp)
        by_x.setdefault(a, {})[(0, b, e)] = cp
    out = {}
    for a, left in by_x.items():
        out = core.expr_add(out, core.expr_mul([(left, {(a, 0, 0): {(): core.Q_ONE}})]))
    return OperatorExpr.from_raw(out)


SERIES = {
    "formal5": MetricParams.formal(5),
    # odd-order kappa_j give coefficients with both a real and an imaginary part
    "numeric5-odd-kappa": MetricParams.numeric(5, lam=[Fraction(3, 7)] * 5,
                                               kap=[Fraction(-2, 5)] * 5),
}


@pytest.fixture(scope="module", params=list(SERIES), ids=list(SERIES))
def derived(request):
    qs = derive_metric_series(SERIES[request.param])
    return qs, observable_x(qs), observable_p(qs)


def test_series_commutator_matches_per_pair_loop(derived):
    qs, x, p = derived
    q = qs.series()
    for a, b in ((q, x), (x, p), (p, q), (q, q), (x.truncate(3), q)):
        assert series_commutator(a, b) == looped_series_commutator(a, b)


def _assert_kept_entries(table, top):
    """The memo holds every entry of columns 0..top, each equal to its loop
    once normal-ordered."""
    lo = table.lo
    assert set(table.memo) == {(k, m) for m in range(top + 1) for k in range(1, m - lo + 1)}
    for (k, m), entry in table.memo.items():
        assert normal(entry) == looped_entry(table, k, m), (k, m)


def test_kept_column_entries_match_per_pair_loop(derived):
    qs = derived[0]
    equivalent_hermitian(qs)  # forms every entry of columns 1..n
    _assert_kept_entries(qs.table(), qs.order)


@pytest.mark.parametrize("seed", ["x", "p + eps^2 x"])
def test_dressing_table_entries_match_per_pair_loop(derived, seed):
    # Filled as conjugate_by_sqrt_metric fills it: columns 0..n-1 formed,
    # order n streamed.
    qs = derived[0]
    x, p = OperatorExpr.x_power(1), OperatorExpr.p_power(1)
    table = NestedCommutators({0: x} if seed == "x" else {0: p, 2: x}, qs.q_list())

    def weight(k):
        return Fraction(1, 2 ** k * math.factorial(k))

    for m in range(qs.order + 1):
        table.total(m, weight, streamed=m == qs.order)
    _assert_kept_entries(table, qs.order - 1)


def test_adjoint_matches_per_group_loop(derived):
    qs, x, p = derived
    exprs = [e for rec in qs.orders for e in (rec.q, rec.r, rec.particular)]
    exprs += [s.coeff(j) for s in (x, p) for j in s.indices()]
    exprs += [qs.q(1) * x.coeff(1), p.coeff(2) * qs.q(2)]  # neither Hermitian
    for e in exprs:
        assert e.adjoint() == looped_adjoint(e)


_TABLE_PARAMS = pytest.mark.parametrize("params", [
    MetricParams.formal(8),
    MetricParams.numeric(8, lam=[Fraction(3, 7)], kap=[Fraction(-2, 5)]),
], ids=["formal8", "numeric8-odd-kappa"])


@_TABLE_PARAMS
def test_table_symbols_are_those_of_the_records(params):
    # Each symbol is the solver's, corrected by the x-free terms in which
    # Q_s differs from the particular solution; no Q_s is converted.
    qs = derive_metric_series(params)
    assert len(qs.table().qw) == params.order
    for s in range(1, params.order + 1):
        assert qs.table().qw[s - 1] == core.to_weyl(qs.q(s).raw), s


@_TABLE_PARAMS
def test_a_hand_built_series_forms_the_same_table(params):
    # A derived series hands out its derivation's own table; a copy built
    # from its records forms a fresh one on each call, whose converted
    # symbols are the solver's.
    derived = derive_metric_series(params)
    assert derived.table() is derived._table
    rebuilt = QSeries(derived.params, derived.weight, derived.orders, derived.h1_op)
    table = rebuilt.table()
    assert table is not rebuilt.table()
    assert table.q == derived.q_list()
    assert table.qw == derived.table().qw


def test_dressing_matches_a_hand_built_series(derived):
    # X and P of a derived series read its table's symbols; a series
    # rebuilt from the same records has no table, and the one it forms
    # converts its Q_s.
    qs, x, p = derived
    rebuilt = QSeries(qs.params, qs.weight, qs.orders, qs.h1_op)
    assert rebuilt._table is None
    assert observable_x(rebuilt) == x
    assert observable_p(rebuilt) == p
