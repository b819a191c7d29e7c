"""Order-by-order construction of the metric generator.

Three independent oracles pin the pipeline:

* the mixing weights q_k must be the Taylor coefficients of -2 tanh(x/2),
  computed here by exact long division of the sinh/cosh series;
* the finished series must satisfy the defining relation
  e^(-Q) H e^(Q) = H^dagger order by order, evaluated directly with
  nested commutators formed from plain products and factorials,
  bypassing every internal of the derivation, the commutator kernel
  included;
* each source R_j must equal the sum over the ordered compositions of j
  of the nested commutators, again formed from plain products.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmetric import backend
from qmetric._core_py import to_normal
from qmetric.algebra import OperatorExpr, commutator, h0, h1
from qmetric.errors import EngineError
from qmetric.observables import _hermitian_weight
from qmetric.params import ParamPoly
from qmetric.perturbation import (MetricParams, QSeries, _source_weight,
                                  bbj_compare, bbj_expansion, build_r, derive_metric_series,
                                  extend_one_order, homogeneous_q,
                                  q_coefficient, solve_commutator_equation,
                                  strip_x_free)
from qmetric.rational import I_POWERS, GaussianRational
from qmetric.series import NestedCommutators, SeriesExpr


# -- q_k: Taylor coefficients of -2 tanh(x/2) --------------------------------

def tanh_half_series(n: int) -> list[Fraction]:
    """Coefficients of -2*tanh(x/2) up to x^n by series long division."""
    sinh = [Fraction(0)] * (n + 1)
    cosh = [Fraction(0)] * (n + 1)
    for k in range(0, n + 1):
        if k % 2:
            sinh[k] = Fraction(1, math.factorial(k) * 2**k)
        else:
            cosh[k] = Fraction(1, math.factorial(k) * 2**k)
    quot = [Fraction(0)] * (n + 1)
    rem = sinh[:]
    for k in range(n + 1):
        quot[k] = rem[k] / cosh[0]
        for m in range(k, n + 1):
            rem[m] -= quot[k] * cosh[m - k]
    return [-2 * c for c in quot]


def test_mixing_weights_match_tanh_series():
    oracle = tanh_half_series(9)
    for k in range(1, 10):
        assert q_coefficient(k) == oracle[k], k


def test_mixing_weight_values():
    assert [q_coefficient(k) for k in range(1, 6)] == [
        Fraction(-1), Fraction(0), Fraction(1, 12), Fraction(0),
        Fraction(-1, 120)]
    with pytest.raises(ValueError):
        q_coefficient(0)


def compositions(j: int, k: int) -> list[tuple[int, ...]]:
    """All ordered k-tuples of positive integers summing to j, lexicographic."""
    if not (1 <= k <= j):
        raise ValueError("need 1 <= k <= j")
    if k == 1:
        return [(j,)]
    out: list[tuple[int, ...]] = []
    for first in range(1, j - k + 2):
        for rest in compositions(j - first, k - 1):
            out.append((first,) + rest)
    return out


def test_compositions_against_brute_force():
    for j in range(1, 7):
        for k in range(1, j + 1):
            brute = [t for t in itertools.product(range(1, j + 1), repeat=k)
                     if sum(t) == j]
            assert compositions(j, k) == brute  # itertools.product is lex
    with pytest.raises(ValueError):
        compositions(3, 4)


# -- defining relation oracle -------------------------------------------------

def pseudo_hermiticity_residual(qs) -> SeriesExpr:
    n = qs.order
    ham = SeriesExpr(n, {0: h0(), 1: h1()})
    q = qs.series()
    out = SeriesExpr.zero(n)
    nested = ham
    for k in range(n + 1):
        out = out + nested.scale(Fraction(1, math.factorial(k)))
        nested = nested * q - q * nested
    return out - ham.adjoint()


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_defining_relation_formal(order):
    qs = derive_metric_series(MetricParams.formal(order))
    assert pseudo_hermiticity_residual(qs).is_zero()


def test_defining_relation_numeric():
    params = MetricParams.numeric(3, lam=[Fraction(2), Fraction(-1, 3), 0],
                                  kap=[Fraction(1, 2), 0, Fraction(5)])
    qs = derive_metric_series(params)
    assert pseudo_hermiticity_residual(qs).is_zero()


# -- pipeline pieces ----------------------------------------------------------

def test_first_source_term():
    assert build_r(1, []) == h1().scale(-2)


def test_sources_match_composition_sum():
    prior = derive_metric_series(MetricParams.formal(5)).q_list()
    for j in range(2, 7):
        expected = OperatorExpr.zero()
        for k in range(2, j + 1):
            for comp in compositions(j, k):
                term = h0()
                for s in comp:
                    q = prior[s - 1]
                    term = term * q - q * term
                expected = expected + term.scale(q_coefficient(k))
        assert build_r(j, prior) == expected, j


def test_sources_are_antihermitian_and_graded(formal4):
    for j in range(1, 5):
        r = formal4.record(j).r
        assert r.is_antihermitian()
        assert commutator(h0(), formal4.q(j)) == r


def test_even_orders_vanish_without_free_amplitudes():
    qs = derive_metric_series(MetricParams.numeric(4))
    assert qs.q(2).is_zero()
    assert qs.q(4).is_zero()
    assert not qs.q(1).is_zero()
    assert not qs.q(3).is_zero()


def test_solver_round_trip_on_constructed_input():
    t = OperatorExpr.monomial(Fraction(3, 7), 4, -3, False)
    t = t + t.adjoint()  # Hermitian by construction
    r = commutator(h0(), t)
    sol = solve_commutator_equation(r)
    assert sol.is_hermitian()
    assert commutator(h0(), sol) == r


def test_solver_rejects_hermitian_input():
    with pytest.raises(EngineError):
        solve_commutator_equation(OperatorExpr.x_power(1))


def test_strip_returns_real_amplitudes(formal4):
    for j in range(1, 5):
        raw = solve_commutator_equation(formal4.record(j).r)
        stripped, plain, parity = strip_x_free(raw, j)
        assert plain.is_real()
        assert parity.is_real()
        assert stripped.is_hermitian()
        # removed piece reassembles the raw solution
        assert stripped + homogeneous_q(j, plain, parity) == raw


def test_order4_reordering_shadow(formal4):
    # the x-free content of the canonical order-4 solution is purely
    # imaginary in normal order: it is the reordering shadow of the
    # x-carrying terms, not a free direction, and must survive the strip
    part = formal4.record(4).particular
    plain = part.coefficient(0, -20, False)
    par = part.coefficient(0, -20, True)
    assert not plain.is_zero()
    assert not par.is_zero()
    assert (plain + plain.conjugate()).is_zero()   # no real plain part
    assert (par + par.conjugate()).is_zero()       # i^4 = 1: same reality
    assert part.is_hermitian()


def _strip_oracle(particular, j, weight=5):
    """strip_x_free's former ParamPoly formulas: plain = (c + c*)/2 and
    parity = (d i^-j + (d i^-j)*)/2 for the x-free coefficients c and d
    of p^(-weight j) and p^(-weight j) P, the differences kept."""
    stripped = {}
    raw_plain = raw_parity = ParamPoly(0)
    for (a, b, e), p in particular.raw.items():
        if a:
            stripped[a, b, e] = p
        elif e:
            raw_parity = ParamPoly.from_terms(p)
        else:
            raw_plain = ParamPoly.from_terms(p)
    half = ParamPoly(Fraction(1, 2))
    plain = (raw_plain + raw_plain.conjugate()) * half
    rotated = raw_parity * ParamPoly(I_POWERS[-j % 4])
    parity = (rotated + rotated.conjugate()) * half
    left_plain = raw_plain + plain * ParamPoly(-1)
    left_parity = raw_parity + parity * ParamPoly(-I_POWERS[j % 4])
    if not left_plain.is_zero():
        stripped[0, -weight * j, 0] = left_plain.terms
    if not left_parity.is_zero():
        stripped[0, -weight * j, 1] = left_parity.terms
    return OperatorExpr.from_raw(stripped), plain, parity


def _assert_strip_matches_oracle(particular, j):
    got, want = strip_x_free(particular, j), _strip_oracle(particular, j)
    assert got == want
    # The same key order too, in the operator and in every poly.
    assert [repr(got[0].raw), repr(got[1].terms), repr(got[2].terms)] == [
        repr(want[0].raw), repr(want[1].terms), repr(want[2].terms)]
    return got


# Parts drawn from a set with many zeros, so real, imaginary and mixed
# coefficients all come up.
_parts = st.sampled_from([0, 0, 1, -1]) | st.integers(-99, 99)
_coeff_polys = st.dictionaries(
    st.dictionaries(st.integers(0, 3), st.integers(1, 2), max_size=2).map(
        lambda powers: tuple(sorted(powers.items()))),
    st.builds(lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)).tuple,
              _parts, _parts, st.integers(1, 30)).filter(lambda c: c[0] or c[1]),
    min_size=1, max_size=4)


@st.composite
def particulars(draw):
    """(an expr with x-carrying terms and x-free terms at p^(-5j) of both
    parities, in a drawn key order, j) for j in 1..8."""
    j = draw(st.integers(1, 8))
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(-45, 5), st.integers(0, 1)),
                         max_size=4, unique=True))
    keys += draw(st.lists(st.sampled_from([(0, -5 * j, 0), (0, -5 * j, 1)]),
                          max_size=2, unique=True))
    keys = draw(st.permutations(keys))
    return OperatorExpr.from_raw({key: draw(_coeff_polys) for key in keys}), j


@settings(deadline=None)
@given(particulars())
def test_strip_matches_the_param_poly_oracle(case):
    _assert_strip_matches_oracle(*case)


def test_strip_matches_the_oracle_on_derived_solutions():
    qs = derive_metric_series(MetricParams.formal(8))
    for rec in qs.orders:
        stripped, _, _ = _assert_strip_matches_oracle(solve_commutator_equation(rec.r), rec.j)
        # The complementary-reality remainder appears from order 4 on.
        assert any(not a for a, _, _ in stripped.raw) == (rec.j >= 4), rec.j


def test_solver_round_trip_guard(monkeypatch):
    # A solver output with one coefficient off must trip the closed-form
    # round trip before anything else reads the solution.
    solve = backend.weyl_solve_h0

    def off_by_one(t):
        out = solve(t)
        key = next(iter(out))
        ev = next(iter(out[key]))
        out[key][ev] = backend.q_add(out[key][ev], backend.Q_ONE)
        return out

    monkeypatch.setattr(backend, "weyl_solve_h0", off_by_one)
    with pytest.raises(EngineError, match="^commutator equation round trip failed$"):
        derive_metric_series(MetricParams.formal(3))


def test_homogeneous_directions_are_hermitian():
    lam, kap = ParamPoly.symbol("l2"), ParamPoly.symbol("k2")
    for j in (1, 2, 3, 4):
        hom = homogeneous_q(j, lam, kap)
        assert hom.is_hermitian()
        assert commutator(h0(), hom).is_zero()


def test_extension_matches_full_derivation(formal3, formal4):
    ext = extend_one_order(formal3)
    assert ext == formal4.record(4).particular


def test_hand_built_series_extends_alike(formal4):
    rebuilt = QSeries(formal4.params, formal4.weight, formal4.orders)
    assert extend_one_order(rebuilt) == extend_one_order(formal4)


@pytest.mark.parametrize("index", [0, -1])
def test_tampered_series_extends_from_its_own_records(formal3, index):
    orders = list(formal3.orders)
    orders[index] = dataclasses.replace(orders[index], q=orders[index].q + OperatorExpr.x_power(1))
    bad = QSeries(formal3.params, formal3.weight, orders)

    def fresh(qs):
        r = build_r(qs.order + 1, qs.q_list())
        return strip_x_free(solve_commutator_equation(r), qs.order + 1)[0]

    outcomes = []
    for extend in (extend_one_order, fresh):
        try:
            outcomes.append(extend(bad))
        except EngineError as exc:
            outcomes.append(str(exc))
    # Q_N enters R_{N+1} only with the weight q_2 = 0, so shifting the last
    # record leaves the extension as it was; shifting the first breaks it.
    assert outcomes[0] == outcomes[1]


def test_corrupted_lower_order_fails_the_source_check(formal3):
    # The solver's own anti-Hermiticity check is not run on the derive and
    # extension path, so the source check must catch a non-Hermitian Q_1.
    orders = list(formal3.orders)
    shift = OperatorExpr.x_power(1).scale(GaussianRational(0, 1))
    orders[0] = dataclasses.replace(orders[0], q=orders[0].q + shift)
    bad = QSeries(formal3.params, formal3.weight, orders)
    message = "order 4: R_j is not anti-Hermitian"
    with pytest.raises(EngineError, match=message):
        build_r(4, bad.q_list())
    with pytest.raises(EngineError, match=message):
        extend_one_order(bad)


def test_recorded_sources_match_standalone_build_r():
    qs = derive_metric_series(MetricParams.formal(6))
    prior = qs.q_list()
    for j in range(1, 7):
        assert qs.record(j).r == build_r(j, prior[:j - 1]), j


def test_streamed_column_matches_weighted_entries():
    # A streamed sum is regrouped into one commutator per Q_s without
    # forming the column's entries; it must equal the entries E[k][m]
    # (Weyl symbols, normal-ordered here) weighted term by term, through
    # the column past the derived order.
    # The dressing's table is seeded with x at order 0 and read with the
    # weights (-1/2)^k / k! of e^{-L/2}, for orders 0..N.
    def conjugation(k):
        return Fraction((-1) ** k, 2 ** k * math.factorial(k))

    odd_kappa = MetricParams.numeric(6, lam=[Fraction(3, 7)] * 6, kap=[Fraction(-2, 5)] * 6)
    for params in (MetricParams.formal(6), odd_kappa):
        table = derive_metric_series(params)._table
        dressing = NestedCommutators({0: OperatorExpr.x_power(1)}, table.q)
        cases = [(table, m, weight) for m in range(2, params.order + 2)
                 for weight in (_source_weight, _hermitian_weight)]
        cases += [(dressing, m, conjugation) for m in range(params.order + 1)]
        for t, m, weight in cases:
            streamed = t.total(m, weight, streamed=True)
            want = OperatorExpr.zero()
            for k in range(m - t.lo + 1):
                if weight(k):
                    want = want + OperatorExpr.from_raw(to_normal(t.entry(k, m))).scale(weight(k))
            assert streamed == want, (m, weight.__name__)


def test_derive_leaves_the_unread_entries_unformed():
    # R_{N-1} and R_N are streamed, and no order reads the even entries
    # of column N-1, so an order-8 derive never forms its three largest.
    memo = derive_metric_series(MetricParams.formal(8))._table.memo
    assert not {(2, 7), (4, 7), (6, 7)} & set(memo)
    assert {(1, 7), (3, 7), (5, 7)} <= set(memo)
    assert not any(m == 8 for _, m in memo)


def test_streamed_orders_reuse_kept_column_sums():
    # R_{N-1} and R_N sum the same weighted entries over columns 1..N-2,
    # and the extension's R_{N+1} over columns 1..N: each sum is formed
    # once, kept on the table and read again.
    qs = derive_metric_series(MetricParams.formal(6))
    sums = qs._table.sums
    assert {m for m, _, shift in sums if shift == 1} == set(range(1, 6))
    kept = dict(sums)
    extend_one_order(qs)
    assert {m for m, _, shift in sums if shift == 1} == set(range(1, 7))
    assert all(sums[key] is f for key, f in kept.items())


def test_params_validation():
    with pytest.raises(ValueError):
        MetricParams.numeric(0)
    with pytest.raises(ValueError):
        MetricParams.numeric(1, lam=[GaussianRational(0, 1)])


def test_quartic_expansion_report():
    rep = bbj_compare()
    assert rep.matches
    assert rep.shift == ParamPoly(Fraction(15, 4))
    gen = bbj_expansion(Fraction(0))
    assert gen.is_hermitian()
    assert commutator(h0(), gen) == build_r(1, [])
