"""Dressed observables, the equivalent Hermitian Hamiltonian, and the
classical limit."""

import dataclasses
import math
from fractions import Fraction as F

import pytest

from qmetric import observables
from qmetric import reference as ref
from qmetric.algebra import (OperatorExpr, commutator, from_symmetric_form,
                             h0, h1)
from qmetric.errors import EngineError
from qmetric.observables import (_hermitian_weight, classical_limit,
                                 conjugate_by_sqrt_metric, equivalent_hermitian,
                                 observable_p, observable_x)
from qmetric.params import ParamPoly
from qmetric.perturbation import (MetricParams, QSeries, _source_weight,
                                  derive_metric_series, extend_one_order,
                                  q_coefficient)
from qmetric.rational import GaussianRational
from qmetric.series import SeriesExpr, series_commutator

L1, K1 = ParamPoly.symbol("l1"), ParamPoly.symbol("k1")
L2, K2 = ParamPoly.symbol("l2"), ParamPoly.symbol("k2")
I = GaussianRational(0, 1)


# -- building-block commutators -------------------------------------------------

def test_first_order_commutators(formal3):
    q1 = formal3.q(1)
    x1, x3 = OperatorExpr.x_power(1), OperatorExpr.x_power(3)
    p1 = OperatorExpr.p_power(1)
    assert commutator(x1, q1) == from_symmetric_form(ref.comm_x_q1_items(L1, K1))
    assert commutator(p1, q1) == from_symmetric_form(ref.comm_p_q1_items(L1, K1))
    assert commutator(x3, q1) == from_symmetric_form(ref.comm_x3_q1_items(L1, K1))
    assert commutator(x3, formal3.q(2)) == from_symmetric_form(
        ref.comm_x3_q2_items(L2, K2))


# -- dressed position and momentum ----------------------------------------------

def test_position_dressing(formal3):
    x = observable_x(formal3)
    assert x.coeff(0) == OperatorExpr.x_power(1)
    assert x.coeff(1) == from_symmetric_form(ref.x_order1_items(L1, K1))


def test_momentum_dressing(formal3):
    p = observable_p(formal3)
    assert p.coeff(0) == OperatorExpr.p_power(1)
    assert p.coeff(1) == from_symmetric_form(ref.p_order1_items(L1, K1))


def test_canonical_pair(formal3):
    got = series_commutator(observable_x(formal3), observable_p(formal3))
    assert got == SeriesExpr.of(OperatorExpr.one().scale(I), order=3)


def test_canonical_pair_numeric_fourth_order():
    params = MetricParams.numeric(4, lam=[2, F(-1, 3), 0, 1],
                                  kap=[F(1, 2), 0, 5, F(-2, 7)])
    qs = derive_metric_series(params)
    got = series_commutator(observable_x(qs), observable_p(qs))
    assert got == SeriesExpr.of(OperatorExpr.one().scale(I), order=4)


def test_dressing_round_trip(formal3):
    q = SeriesExpr(3, {j: formal3.q(j) for j in (1, 2, 3)})
    for seed in (OperatorExpr.x_power(1), OperatorExpr.p_power(1),
                 h0() + h1()):
        a = SeriesExpr.of(seed, order=3)
        dressed = conjugate_by_sqrt_metric(a, q, sign=1)
        assert conjugate_by_sqrt_metric(dressed, q, sign=-1) == a


def test_sign_validation(formal3):
    q = SeriesExpr(3, {j: formal3.q(j) for j in (1, 2, 3)})
    with pytest.raises(ValueError):
        conjugate_by_sqrt_metric(SeriesExpr.of(h0(), order=3), q, sign=2)
    with pytest.raises(ValueError, match="order 0"):
        conjugate_by_sqrt_metric(SeriesExpr.of(h0(), order=3),
                                 q + SeriesExpr.of(OperatorExpr.x_power(1), order=3))


def termwise_conjugation(a, q, sign):
    """sum_k (sign/2)^k / k! ad_Q^k(A), one series commutator per k."""
    out = term = a
    for k in range(1, a.order + 1):
        term = series_commutator(q, term)
        coeff = GaussianRational(F(sign ** k, 2 ** k * math.factorial(k)))
        out = out + term.scale(coeff)
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_conjugation_matches_termwise_loop(formal3, formal4, sign):
    # The top order is regrouped into one commutator per Q_s; it must agree
    # with the per-k sum, also for two-part (odd kappa) coefficients.
    numeric = derive_metric_series(MetricParams.numeric(
        4, lam=[F(3, 7)] * 4, kap=[F(-2, 5)] * 4))
    x, p = OperatorExpr.x_power(1), OperatorExpr.p_power(1)
    cases = [
        SeriesExpr.of(x, order=4),
        SeriesExpr(4, {0: h0(), 1: h1(), 3: (x * p + p * x).scale(F(1, 3))}),
        SeriesExpr.of(p, order=0),
        SeriesExpr(2, {0: p, 2: x}),
        SeriesExpr(6, {0: x, 2: p, 5: h1()}),
    ]
    for qs in (formal3, formal4, numeric):
        q = qs.series()
        for a in cases:
            got = conjugate_by_sqrt_metric(a, q, sign)
            assert got.order == min(a.order, q.order)
            assert got == termwise_conjugation(a, q, sign), (qs.order, a)


# -- equivalent Hermitian Hamiltonian --------------------------------------------

def test_hermitian_hamiltonian(formal3):
    h = equivalent_hermitian(formal3)
    assert h.order == 4
    assert h.coeff(0) == h0()
    assert h.coeff(1).is_zero()
    assert h.coeff(2) == from_symmetric_form(ref.h_order2_items(L1, K1))
    assert h.coeff(3) == from_symmetric_form(ref.h_order3_items(L2, K2))
    for j in range(5):
        assert h.coeff(j).is_hermitian()


@pytest.mark.parametrize("j", [2, 4])
def test_hermiticity_guard_reads_each_symbol(formal3, monkeypatch, j):
    # h_j's symbol turned by i: every coefficient gets the wrong reality.
    def turned(qs, weight=None):
        stripped, hw = extension(qs, weight)
        hw[j] = {k: {ev: (-c[1], c[0], c[2]) for ev, c in p.items()} for k, p in hw[j].items()}
        return stripped, hw

    extension = observables._extension
    monkeypatch.setattr(observables, "_extension", turned)
    with pytest.raises(EngineError, match=f"dressed Hamiltonian not Hermitian at order {j}"):
        equivalent_hermitian(formal3)


DEGREE = 12


def power_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(DEGREE + 1)]


def test_sech_and_tanh_coefficients():
    # As power series in y through y^12: sech y = 1 / cosh y by long
    # division, tanh y = sinh y sech y.
    exp_plus = [F(1, math.factorial(k)) for k in range(DEGREE + 1)]
    exp_minus = [c * (-1) ** k for k, c in enumerate(exp_plus)]
    cosh = [(a + b) / 2 for a, b in zip(exp_plus, exp_minus)]
    sinh = [(a - b) / 2 for a, b in zip(exp_plus, exp_minus)]
    sech = []
    for k in range(DEGREE + 1):
        sech.append((int(k == 0) - sum(cosh[i] * sech[k - i] for i in range(1, k + 1))) / cosh[0])
    assert sech[:7] == [1, 0, F(-1, 2), 0, F(5, 24), 0, F(-61, 720)]
    assert power_product(sech, cosh) == [1] + [0] * DEGREE
    tanh = power_product(sinh, sech)
    tanh_half = [c / 2 ** k for k, c in enumerate(tanh)]
    sech_half = [c / 2 ** k for k, c in enumerate(sech)]
    # R = L H0 = -L coth(L/2) eps H1: with the weight -2 at k = 0
    # (R_1 = -2 H1), the source weights times tanh(y/2) give -y.
    source = [_source_weight(k) for k in range(DEGREE + 1)]
    assert source[0] == -2
    assert power_product(source, tanh_half) == [0, -1] + [0] * (DEGREE - 1)
    # h = sech(L/2) H0 = H0 + tanh(L/4) eps H1, since
    # tanh(y/4) tanh(y/2) = 1 - sech(y/2).
    weights = [_hermitian_weight(k) for k in range(DEGREE + 1)]
    assert power_product(weights, tanh_half) == [int(k == 0) - c for k, c in enumerate(sech_half)]
    # The composition-sum form R_j = sum_k q_k D[k][j], D[k] = L^k H0, is
    # eps H1 = -tanh(L/2) H0 solved for its k = 1 term:
    # q_k = -2 tanh_k / 2^k (and R_1 = -2 H1).
    for k in range(1, DEGREE + 1):
        assert q_coefficient(k) == -2 * tanh[k] / 2 ** k, k


def test_hermitian_hamiltonian_undresses_back(formal3):
    # e^{Q/2} h e^{-Q/2} reproduces H through the derived order
    h = equivalent_hermitian(formal3)
    q = SeriesExpr(3, {j: formal3.q(j) for j in (1, 2, 3)})
    truncated = SeriesExpr(3, {j: h.coeff(j) for j in range(4)})
    assert conjugate_by_sqrt_metric(truncated, q, sign=1) == SeriesExpr(
        3, {0: h0(), 1: h1()})


def conjugated_hamiltonian(qs):
    """The former formula: all of H0 + eps H1 conjugated, same checks."""
    n = qs.order
    q = SeriesExpr(n + 1, {**{j: qs.q(j) for j in range(1, n + 1)},
                           n + 1: extend_one_order(qs)})
    h = conjugate_by_sqrt_metric(SeriesExpr(n + 1, {0: h0(), 1: h1()}), q, sign=-1)
    if not h.coeff(1).is_zero():
        raise EngineError("first-order term of the dressed Hamiltonian must vanish")
    for j in range(n + 2):
        if not h.coeff(j).is_hermitian():
            raise EngineError(f"dressed Hamiltonian not Hermitian at order {j}")
    return h


NUMERIC4 = MetricParams.numeric(4, lam=[2, F(-1, 3), 0, 1], kap=[F(1, 2), 0, 5, F(-2, 7)])


@pytest.mark.parametrize("params", [MetricParams.formal(n) for n in range(1, 6)] + [NUMERIC4],
                         ids=[f"formal{n}" for n in range(1, 6)] + ["numeric4"])
def test_hermitian_hamiltonian_matches_full_conjugation(params):
    qs = derive_metric_series(params)
    want = conjugated_hamiltonian(qs)
    assert equivalent_hermitian(qs) == want
    # a series built by hand carries no table and rebuilds one
    assert equivalent_hermitian(QSeries(qs.params, qs.weight, qs.orders)) == want


def test_repeated_dressing_is_stable(formal4):
    first = equivalent_hermitian(formal4), extend_one_order(formal4)
    second = equivalent_hermitian(formal4), extend_one_order(formal4)
    assert first == second


def outcome(fn, qs):
    try:
        return fn(qs)
    except EngineError as exc:
        return str(exc)


def tampered(qs, index, shift=OperatorExpr.x_power(1)):
    """qs with Q at `index` shifted by `shift`, its records otherwise kept."""
    orders = list(qs.orders)
    orders[index] = dataclasses.replace(orders[index], q=orders[index].q + shift)
    return QSeries(qs.params, qs.weight, orders)


@pytest.mark.parametrize("index", [0, -1])
def test_tampered_series_reads_its_own_records(formal3, index):
    bad = tampered(formal3, index)
    got = outcome(equivalent_hermitian, bad)
    if index == 0:
        assert got == outcome(conjugated_hamiltonian, bad)
    else:
        # The former formula found h not Hermitian at order 3; the
        # relation check now names the order whose Q was shifted.
        with pytest.raises(EngineError):
            conjugated_hamiltonian(bad)
        with pytest.raises(EngineError, match="^order 3: "):
            equivalent_hermitian(bad)
    assert got != equivalent_hermitian(formal3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_relation_check_names_the_broken_order(formal3, m):
    # A Hermitian shift of Q_m's own scaling degree that does not commute
    # with H0 passes the extension's degree checks (a shift by x at m = 1
    # or 2 is stopped there, at order 4), so only [H0, Q_m] = R_m sees it.
    x, pb = OperatorExpr.x_power(1), OperatorExpr.p_power(1 - 5 * m)
    bad = tampered(formal3, m - 1, x * pb + pb * x)
    with pytest.raises(EngineError):
        conjugated_hamiltonian(bad)
    with pytest.raises(EngineError, match=f"^order {m}: "):
        equivalent_hermitian(bad)
    extend_one_order(bad)  # the extension alone does not need the relation
    with pytest.raises(EngineError, match=f"^order {3 if m == 3 else 4}: "):
        equivalent_hermitian(tampered(formal3, m - 1))
    rebuilt = QSeries(formal3.params, formal3.weight, formal3.orders)
    assert equivalent_hermitian(rebuilt) == equivalent_hermitian(formal3)


def test_series_records_its_perturbation(formal3):
    assert formal3.h1_op == h1()
    h1_op = h1().scale(3)
    qs = derive_metric_series(MetricParams.formal(3), h1_op=h1_op)
    assert qs.h1_op == h1_op
    h = equivalent_hermitian(qs)
    q = SeriesExpr(3, {j: qs.q(j) for j in (1, 2, 3)})
    truncated = SeriesExpr(3, {j: h.coeff(j) for j in range(4)})
    assert conjugate_by_sqrt_metric(truncated, q, sign=1) == SeriesExpr(
        3, {0: h0(), 1: h1_op})
    # a hand-built copy is checked against the H1 it is given
    assert equivalent_hermitian(QSeries(qs.params, qs.weight, qs.orders, h1_op)) == h
    with pytest.raises(EngineError, match="^order 1: "):
        equivalent_hermitian(QSeries(qs.params, qs.weight, qs.orders))


# -- classical limit --------------------------------------------------------------

def test_classical_hamiltonian_second_order():
    qs = derive_metric_series(MetricParams.formal(2))
    hc = classical_limit(equivalent_hermitian(qs), mass=F(1))
    assert sorted(hc.terms) == sorted(tuple(t) for t in ref.CLASSICAL_TERMS)
    assert all(isinstance(c, F) for _, _, _, c, _ in hc.terms)
    assert hc.term_map() == {(0, 0, 2): (F(1, 2), -1), (2, 6, -2): (F(3, 8), 1)}


def test_classical_hamiltonian_next_correction(formal3):
    hc = classical_limit(equivalent_hermitian(formal3), mass=F(1))
    extra = set(hc.terms) - {tuple(t) for t in ref.CLASSICAL_TERMS}
    assert extra == {(4, 12, -6, F(31, 256), 3)}


def test_classical_evaluation():
    qs = derive_metric_series(MetricParams.formal(2))
    hc = classical_limit(equivalent_hermitian(qs), mass=F(2))
    x, p, eps = 1.5, 0.7, 0.1
    want = p * p / 4 + 0.375 * 2 * eps ** 2 * x ** 6 / p ** 2
    assert hc.evaluate(x, p, eps) == pytest.approx(want, rel=1e-14)
    assert hc.d_dx(x, p, eps) == pytest.approx(
        6 * 0.375 * 2 * eps ** 2 * x ** 5 / p ** 2, rel=1e-14)
    assert hc.d_dp(x, p, eps) == pytest.approx(
        p / 2 - 2 * 0.375 * 2 * eps ** 2 * x ** 6 / p ** 3, rel=1e-14)


def test_classical_rejects_non_limits():
    parity = SeriesExpr(1, {1: OperatorExpr.monomial(1, 3, 0, True)})
    with pytest.raises(EngineError):
        classical_limit(parity)
    free = SeriesExpr(0, {0: OperatorExpr.monomial(ParamPoly.symbol("l1"),
                                                   0, 2, False)})
    with pytest.raises(EngineError):
        classical_limit(free)
    heavy = SeriesExpr(0, {0: OperatorExpr.p_power(4)})
    with pytest.raises(EngineError):
        classical_limit(heavy)
