"""Acceptance battery: one test per shipping criterion.

Run with -v to get a single pass/fail line per criterion.  Every check is
exact unless a float tolerance is stated inline; the cells where the
engine supersedes a tabulated value are pinned to the recomputed numbers,
so both kinds of regression (breaking the engine, or silently agreeing
with the superseded entry again) fail loudly.
"""

from fractions import Fraction as F

from qmetric import reference as ref
from qmetric.algebra import (OperatorExpr, commutator, from_symmetric_form,
                             h0, parse_expr, scaling_degree, serialize_expr)
from qmetric.freeparticle import (ParityLinear, free_metric,
                                  localized_overlap, momentum_observable,
                                  position_observable)
from qmetric.flow import integrate_orbit
from qmetric.kernels import apply_wave_operator, is_hermitian_kernel, to_kernel
from qmetric.observables import (classical_limit, equivalent_hermitian,
                                 observable_p, observable_x)
from qmetric.params import ParamPoly
from qmetric.perturbation import (MetricParams, bbj_compare,
                                  derive_metric_series, q_coefficient)
from qmetric.rational import GaussianRational
from qmetric.series import SeriesExpr, series_commutator
from qmetric.verify import run_verification

L1, K1 = ParamPoly.symbol("l1"), ParamPoly.symbol("k1")
L2, K2 = ParamPoly.symbol("l2"), ParamPoly.symbol("k2")
L3, K3 = ParamPoly.symbol("l3"), ParamPoly.symbol("k3")


def test_c01_universal_expansion_coefficients():
    got = [q_coefficient(k) for k in range(1, 6)]
    assert got == [F(-1), F(0), F(1, 12), F(0), F(-1, 120)]


def test_c02_first_order_generator_and_quartic_shift(formal3):
    assert formal3.q(1) == ref.q1_general(L1, K1)
    assert formal3.q(1) == from_symmetric_form(ref.q1_symmetric_items(L1, K1))
    rep = bbj_compare()
    assert rep.matches
    assert rep.shift == ParamPoly(ref.bbj_alpha_shift())  # 15/4


def test_c03_second_order_generator(formal3):
    assert formal3.q(2) == ref.q2_general(L2, K2)


def test_c04_third_order_generator(formal3):
    q3 = formal3.q(3)
    # engine output equals the recomputed combination table ...
    assert q3 == ref.q3_final(L1, K1, L3, K3, table=ref.TRUE_C)
    # ... which supersedes the tabulated one in exactly these checks
    assert q3 != ref.q3_final(L1, K1, L3, K3)
    documented = {k for k in ref.EXPECTED_FINDINGS if k.startswith("q3.")
                  or k.startswith("table.")}
    assert documented == {"table.a.01", "table.a.02", "table.c.00",
                          "table.c.01", "table.c.02", "q3.d.coeffs",
                          "q3.d.02.printed", "q3.lambda3", "q3.kappa3"}
    assert q3.is_hermitian()
    assert parse_expr(serialize_expr(q3)) == q3


def test_c05_third_order_sector_tables(formal3):
    source = formal3.record(3).r.param_split(("l1", "k1"))
    target = formal3.record(3).particular.param_split(("l1", "k1"))
    for mu, nu in ref.SECTORS:
        assert to_kernel(source[(mu, nu)]) == ref.true_s_kernel(mu, nu)
        assert target[(mu, nu)] == ref.t_normal(mu, nu, ref.TRUE_A)
        assert target[(mu, nu)] == ref.t_symmetric(mu, nu, ref.TRUE_C)
        assert to_kernel(target[(mu, nu)]) == ref.true_t_kernel(mu, nu)
        got = apply_wave_operator(to_kernel(target[(mu, nu)]))
        assert got == to_kernel(source[(mu, nu)]).scale(GaussianRational(2))


def test_c06_first_order_kernel_round_trip(formal3):
    k = to_kernel(formal3.record(1).particular)
    assert k == ref.q1_kernel()
    assert apply_wave_operator(k) == ref.q1_wave_rhs()  # -4i x^3 delta


def test_c07_dressed_observables(formal3):
    x_obs, p_obs = observable_x(formal3), observable_p(formal3)
    assert x_obs.coeff(0) == OperatorExpr.x_power(1)
    assert x_obs.coeff(1) == from_symmetric_form(ref.x_order1_items(L1, K1))
    assert p_obs.coeff(0) == OperatorExpr.p_power(1)
    assert p_obs.coeff(1) == from_symmetric_form(ref.p_order1_items(L1, K1))
    assert series_commutator(x_obs, p_obs) == SeriesExpr.of(
        OperatorExpr.one().scale(GaussianRational(0, 1)), order=3)
    h = equivalent_hermitian(formal3)
    assert h.coeff(0) == h0()
    assert h.coeff(1).is_zero()
    assert h.coeff(2) == from_symmetric_form(ref.h_order2_items(L1, K1))
    assert h.coeff(3) == from_symmetric_form(ref.h_order3_items(L2, K2))
    assert all(h.coeff(j).is_hermitian() for j in range(4))


def test_c08_classical_limit():
    qs = derive_metric_series(MetricParams.formal(2))
    hc = classical_limit(equivalent_hermitian(qs), mass=F(1))
    assert sorted(hc.terms) == sorted(tuple(t) for t in ref.CLASSICAL_TERMS)
    assert all(isinstance(c, F) for *_, c, _ in hc.terms)


def test_c09_structure_of_each_order(formal3):
    for j in (1, 2, 3):
        rec = formal3.record(j)
        assert rec.q.is_hermitian()
        assert rec.r.is_antihermitian()
        assert scaling_degree(rec.q) == -5 * j
        assert commutator(h0(), rec.q) == rec.r


def test_c10_free_particle_quantization():
    for ratio, scale in ((F(4), F(1)), (F(9, 4), F(9, 16)),
                         (F(1, 4), F(1, 4)), (F(25, 9), F(25, 36)),
                         (F(1), F(1))):
        x_obs = position_observable(ratio)
        p_obs = momentum_observable(ratio)
        assert commutator(x_obs, p_obs) == OperatorExpr.one().scale(
            GaussianRational(0, 1))
        assert x_obs * x_obs == OperatorExpr.x_power(2)
        assert p_obs * p_obs == OperatorExpr.p_power(2)
        eta = free_metric(ratio, scale)
        assert eta.is_positive()
        assert eta.sqrt() * eta.sqrt() == eta
        assert localized_overlap(ratio, scale) == (F(1), F(0))
    import math
    for kappa in (-2, -1, 0, 1, 2):
        assert ParityLinear(math.cosh(kappa), -math.sinh(kappa)).is_positive()


def test_c11_orbit_integration():
    qs = derive_metric_series(MetricParams.formal(2))
    hc = classical_limit(equivalent_hermitian(qs), mass=F(1))
    fine = integrate_orbit(hc, 0.1)  # default dt = 1e-3
    assert fine.period is not None
    assert fine.energy_drift < 1e-8
    assert fine.closure < 1e-6
    coarse = integrate_orbit(hc, 0.1, dt=2e-3)
    ratio = coarse.energy_drift / fine.energy_drift
    assert 8.0 <= ratio <= 32.0  # dt^4 within a factor of two


def test_c12_verification_battery_is_deterministic():
    a = run_verification()
    b = run_verification()
    assert a.render() == b.render()
    assert not a.failed
    np, ng, nf = a.counts()
    assert nf == 0
    assert ng == 12
