"""Cross-check battery comparing engine output against tabulated forms.

Every check derives its objects from scratch through the engine and
compares them with the independently coded closed forms in `reference`.
Statuses:

  PASS  engine output equals the tabulated form exactly
  FLAG  engine output is internally consistent (round trips, Hermiticity
        and scaling all hold) and matches the recomputation pinned in
        reference.EXPECTED_FINDINGS, but the tabulated entry disagrees;
        the message records both values
  FAIL  an internal invariant is broken, or the engine deviates from the
        pinned recomputation

The report renders deterministically -- fixed check order, exact
rational values, no timestamps or environment content -- so two runs on
any machine are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import reference as ref
from .algebra import (OperatorExpr, commutator, from_symmetric_form, h0, h1,
                      scaling_degree)
from .freeparticle import (ParityLinear, free_metric, localized_overlap,
                           momentum_observable, position_observable)
from .kernels import apply_wave_operator, is_hermitian_kernel, to_kernel
from .observables import (classical_limit, equivalent_hermitian,
                          observable_p, observable_x)
from .params import ParamPoly
from .perturbation import (MetricParams, _source, bbj_compare,
                           derive_metric_series, q_coefficient)
from .rational import GaussianRational
from .series import SeriesExpr, series_commutator

__all__ = ["CheckResult", "VerificationReport", "run_verification"]

PASS, FLAG, FAIL = "PASS", "FLAG", "FAIL"

_L1, _K1 = ParamPoly.symbol("l1"), ParamPoly.symbol("k1")
_L2, _K2 = ParamPoly.symbol("l2"), ParamPoly.symbol("k2")
_L3, _K3 = ParamPoly.symbol("l3"), ParamPoly.symbol("k3")

_FREE_RATIOS = (Fraction(4), Fraction(9, 4), Fraction(1, 4), Fraction(25, 9),
                Fraction(1))
_FREE_SCALE = Fraction(9, 16)


@dataclass(frozen=True)
class CheckResult:
    key: str
    status: str
    message: str

    def line(self) -> str:
        return f"{self.status} {self.key:<20} {self.message}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    def counts(self) -> tuple[int, int, int]:
        n = {PASS: 0, FLAG: 0, FAIL: 0}
        for c in self.checks:
            n[c.status] += 1
        return n[PASS], n[FLAG], n[FAIL]

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks]
        np, ng, nf = self.counts()
        lines.append(f"{len(self.checks)} checks: {np} passed, {ng} flagged, "
                     f"{nf} failed")
        return "\n".join(lines) + "\n"


def _eq(key: str, got, want, message: str) -> CheckResult:
    if got == want:
        return CheckResult(key, PASS, message)
    return CheckResult(key, FAIL, "engine output deviates from the expected form")


def _cond(key: str, ok: bool, message: str, fail_message: str) -> CheckResult:
    return CheckResult(key, PASS if ok else FAIL,
                       message if ok else fail_message)


def _finding_text(key: str) -> str:
    pairs = ref.EXPECTED_FINDINGS[key]
    parts = [f"{label}: printed {p}, recomputed {r}"
             for label, (p, r) in pairs.items()]
    return ("engine matches the recomputation; tabulated entry differs -- "
            + "; ".join(parts))


def _flagged(key: str, engine, recomputed, printed) -> CheckResult:
    """FLAG when the engine equals the recomputation and the tabulated
    entry deviates exactly as documented; anything else is FAIL."""
    if engine != recomputed:
        return CheckResult(key, FAIL,
                           "engine output deviates from the pinned recomputation")
    if engine == printed:
        return CheckResult(key, FAIL,
                           "documented deviation not observed; revisit the finding")
    return CheckResult(key, FLAG, _finding_text(key))


def _scale(expr: OperatorExpr, c: Fraction) -> OperatorExpr:
    return expr.scale(GaussianRational(c))


# -- check groups ------------------------------------------------------------

def _check_coefficients() -> list[CheckResult]:
    out = []
    for k in range(1, 6):
        got = q_coefficient(k)
        out.append(_eq(f"q.coeff.k{k}", got, ref.Q_COEFFICIENTS[k],
                       f"q_{k} = {got}"))
    return out


def _check_series_sources() -> list[CheckResult]:
    qs = derive_metric_series(MetricParams.formal(4))
    q1, q2, q3 = qs.q(1), qs.q(2), qs.q(3)
    r3, r4 = qs.record(3).r, qs.record(4).r
    # R_5 is the series' own table's next column, streamed as in the extension.
    r5 = _source(5, qs.table(), qs.weight, streamed=True)[0]

    e3 = (r3 == _scale(commutator(h0(), q1, 3), Fraction(1, 12))
          and r3 == _scale(commutator(h1(), q1, 2), Fraction(-1, 6)))
    e4 = r4 == _scale(commutator(commutator(h1(), q1), q2)
                      + commutator(commutator(h1(), q2), q1), Fraction(-1, 6))
    e5 = r5 == (_scale(commutator(h1(), q1, 4), Fraction(1, 360))
                + _scale(commutator(h1(), q2, 2)
                         + commutator(commutator(h1(), q1), q3)
                         + commutator(commutator(h1(), q3), q1),
                         Fraction(-1, 6)))
    fail = "source term deviates from the printed rewriting"
    return [
        _cond("r.series.e3", e3,
              "equals (1/12)[H0,Q1]^(3) and -(1/6)[H1,Q1]^(2)", fail),
        _cond("r.series.e4", e4,
              "equals -(1/6)([[H1,Q1],Q2] + [[H1,Q2],Q1])", fail),
        _cond("r.series.e5", e5,
              "equals (1/360)[H1,Q1]^(4) - (1/6)([H1,Q2]^(2) + [[H1,Q1],Q3]"
              " + [[H1,Q3],Q1])", fail),
    ]


def _check_low_orders(qs) -> list[CheckResult]:
    out = []
    q1k = to_kernel(qs.record(1).particular)
    out.append(_eq("q1.normal", qs.q(1), ref.q1_general(_L1, _K1),
                   "matches (1/2)x^4 p^-1 + i x^3 p^-2 - (3/2)x^2 p^-3"
                   " - (3/2)i x p^-4 + l1 p^-5 + i k1 p^-5 P"))
    out.append(_eq("q1.symmetric", qs.q(1),
                   from_symmetric_form(ref.q1_symmetric_items(_L1, _K1)),
                   "matches (1/4){x^4,p^-1} + (3/4){x^2,p^-3} + (l1+3) p^-5"
                   " + i k1 p^-5 P"))
    out.append(_eq("q1.kernel", q1k, ref.q1_kernel(),
                   "position kernel is (i/8) x y (x^2+y^2) sign(x-y)"))
    out.append(_eq("q1.wave", apply_wave_operator(q1k), ref.q1_wave_rhs(),
                   "wave operator returns -4i x^3 delta(x-y)"))
    out.append(_eq("q2.form", qs.q(2), ref.q2_general(_L2, _K2),
                   "matches l2 p^-10 - k2 p^-10 P"))

    lhs_a = ref.identity_lhs_a()
    out.append(_flagged("identity.sym.a", lhs_a,
                        from_symmetric_form(ref.identity_rhs_a_recomputed()),
                        from_symmetric_form(ref.identity_rhs_a_tabulated())))
    out.append(_eq("identity.sym.b", ref.identity_lhs_b(),
                   from_symmetric_form(ref.identity_rhs_b()),
                   "x^2 p^-1 x^2 = (1/2){x^4,p^-1} + 2{x^2,p^-3} + 12 p^-5"))

    rep = bbj_compare()
    out.append(_cond("bbj.expand", rep.matches,
                     "symmetrized quartic form expands onto the canonical"
                     " generator",
                     "symmetrized quartic form does not reduce to the"
                     " canonical generator"))
    out.append(_eq("bbj.match", rep.shift, ParamPoly(ref.bbj_alpha_shift()),
                   "plain amplitude shift is 15/4"))

    for j in (1, 2, 3):
        rec = qs.record(j)
        out.append(_cond(f"roundtrip.q{j}",
                         commutator(h0(), rec.q) == rec.r,
                         f"[H0, Q_{j}] reproduces the order-{j} source",
                         f"[H0, Q_{j}] does not reproduce the source"))
        out.append(_cond(f"herm.q{j}", rec.q.is_hermitian(),
                         f"Q_{j} is Hermitian", f"Q_{j} is not Hermitian"))
        out.append(_cond(f"antiherm.q{j}", rec.r.is_antihermitian(),
                         f"R_{j} is anti-Hermitian",
                         f"R_{j} is not anti-Hermitian"))
        out.append(_cond(f"scaling.q{j}", scaling_degree(rec.q) == -5 * j,
                         f"scaling degree is {-5 * j}",
                         f"scaling degree differs from {-5 * j}"))
    return out


def _tabulated(key: str, got, printed, recomputed, message: str) -> CheckResult:
    """PASS when `got` equals the tabulated `printed` form; for a documented
    finding, FLAG against `recomputed()`, which is built only then."""
    if key in ref.EXPECTED_FINDINGS:
        return _flagged(key, got, recomputed(), printed)
    return _eq(key, got, printed, message)


def _check_sectors(qs) -> list[CheckResult]:
    source = qs.record(3).r.param_split(("l1", "k1"))
    target = qs.record(3).particular.param_split(("l1", "k1"))
    # Each sector's kernels are read by several checks; form them once.
    source_k = {s: to_kernel(source[s]) for s in ref.SECTORS}
    target_k = {s: to_kernel(target[s]) for s in ref.SECTORS}
    out = [_tabulated(f"kernel.s.{mu}{nu}", source_k[(mu, nu)],
                      ref.s_kernel(mu, nu), lambda: ref.true_s_kernel(mu, nu),
                      "matches the tabulated closed form") for mu, nu in ref.SECTORS]
    out += [_tabulated(f"table.a.{mu}{nu}", target[(mu, nu)], ref.t_normal(mu, nu),
                       lambda: ref.t_normal(mu, nu, ref.TRUE_A),
                       f"all {len(ref.TABLE_A[(mu, nu)])} amplitudes match")
            for mu, nu in ref.SECTORS]
    out += [_tabulated(f"kernel.t.{mu}{nu}", target_k[(mu, nu)],
                       ref.t_kernel(mu, nu), lambda: ref.true_t_kernel(mu, nu),
                       "matches the tabulated closed form") for mu, nu in ref.SECTORS]
    out += [_tabulated(f"table.c.{mu}{nu}", target[(mu, nu)], ref.t_symmetric(mu, nu),
                       lambda: ref.t_symmetric(mu, nu, ref.TRUE_C),
                       f"all {sum(v is not None for v in ref.TABLE_C[(mu, nu)])}"
                       " combination cells match")
            for mu, nu in ref.SECTORS]

    wave_ok = all(apply_wave_operator(target_k[s]) == source_k[s].scale(GaussianRational(2))
                  for s in ref.SECTORS)
    herm_ok = all(is_hermitian_kernel(target_k[s]) for s in ref.SECTORS)
    out.append(_cond("q3.t.wave", wave_ok,
                     "wave operator returns twice the source kernel in"
                     " every sector",
                     "wave round trip broken in at least one sector"))
    out.append(_cond("q3.t.hermitian", herm_ok,
                     "every sector kernel is Hermitian",
                     "at least one sector kernel is not Hermitian"))

    structural = ref.q3_final(_L1, _K1, _L3, _K3, table=ref.TRUE_C)
    printed = ref.q3_final(_L1, _K1, _L3, _K3, structural_d02=False)
    out.append(_flagged("q3.d.coeffs", qs.q(3), structural, printed))
    if qs.q(3) == structural:
        out.append(CheckResult("q3.d.02.printed", FLAG,
                               _finding_text("q3.d.02.printed")))
        out.append(CheckResult("q3.lambda3", FLAG, _finding_text("q3.lambda3")))
        out.append(CheckResult("q3.kappa3", FLAG, _finding_text("q3.kappa3")))
    else:
        for key in ("q3.d.02.printed", "q3.lambda3", "q3.kappa3"):
            out.append(CheckResult(key, FAIL,
                                   "third-order assembly deviates from the"
                                   " recomputed combination"))
    return out


def _check_observables(qs) -> list[CheckResult]:
    out = []
    x1, x3 = OperatorExpr.x_power(1), OperatorExpr.x_power(3)
    p1 = OperatorExpr.p_power(1)
    pairs = [
        ("obs.comm.x.q1", commutator(x1, qs.q(1)),
         ref.comm_x_q1_items(_L1, _K1), "[x, Q_1]"),
        ("obs.comm.p.q1", commutator(p1, qs.q(1)),
         ref.comm_p_q1_items(_L1, _K1), "[p, Q_1]"),
        ("obs.comm.x3.q1", commutator(x3, qs.q(1)),
         ref.comm_x3_q1_items(_L1, _K1), "[x^3, Q_1]"),
        ("obs.comm.x3.q2", commutator(x3, qs.q(2)),
         ref.comm_x3_q2_items(_L2, _K2), "[x^3, Q_2]"),
    ]
    for key, got, items, label in pairs:
        out.append(_eq(key, got, from_symmetric_form(items),
                       f"{label} matches the tabulated form"))

    xobs, pobs = observable_x(qs), observable_p(qs)
    out.append(_cond("obs.x",
                     xobs.coeff(0) == x1
                     and xobs.coeff(1) == from_symmetric_form(
                         ref.x_order1_items(_L1, _K1)),
                     "position dressing matches through first order",
                     "position dressing deviates"))
    out.append(_cond("obs.p",
                     pobs.coeff(0) == p1
                     and pobs.coeff(1) == from_symmetric_form(
                         ref.p_order1_items(_L1, _K1)),
                     "momentum dressing matches through first order",
                     "momentum dressing deviates"))
    ccr = series_commutator(xobs, pobs) == SeriesExpr.of(
        OperatorExpr.one().scale(GaussianRational(0, 1)), order=qs.order)
    out.append(_cond("obs.ccr", ccr, "[X, P] = i through third order",
                     "[X, P] deviates from i"))

    h = equivalent_hermitian(qs)
    out.append(_eq("obs.h2", h.coeff(2),
                   from_symmetric_form(ref.h_order2_items(_L1, _K1)),
                   "order-2 coefficient matches the tabulated form"))
    out.append(_eq("obs.h3", h.coeff(3),
                   from_symmetric_form(ref.h_order3_items(_L2, _K2)),
                   "order-3 coefficient matches the tabulated form"))
    out.append(_cond("herm.h.2", h.coeff(2).is_hermitian(),
                     "order-2 coefficient is Hermitian",
                     "order-2 coefficient is not Hermitian"))
    out.append(_cond("herm.h.3", h.coeff(3).is_hermitian(),
                     "order-3 coefficient is Hermitian",
                     "order-3 coefficient is not Hermitian"))
    return out


def _check_classical() -> list[CheckResult]:
    qs = derive_metric_series(MetricParams.formal(2))
    hc = classical_limit(equivalent_hermitian(qs), mass=Fraction(1))
    got = sorted(hc.terms)
    want = sorted(tuple(t) for t in ref.CLASSICAL_TERMS)
    out = [_eq("classical.hc", got, want,
               "H = p^2/2m + (3/8) m eps^2 x^6 p^-2")]
    paramfree = all(isinstance(c, Fraction) for _, _, _, c, _ in hc.terms)
    out.append(_cond("classical.paramfree", paramfree,
                     "free amplitudes decouple from the limit",
                     "a free amplitude survives the limit"))
    return out


def _check_free() -> list[CheckResult]:
    import math

    one = OperatorExpr.one()
    i_unit = GaussianRational(0, 1)
    x2 = OperatorExpr.monomial(GaussianRational(1), 2, 0, False)
    xp = OperatorExpr.monomial(GaussianRational(1), 1, 1, False)
    p2 = OperatorExpr.monomial(GaussianRational(1), 0, 2, False)

    metric_ok = ccr_ok = squares_ok = pos_ok = sqrt_ok = loc_ok = True
    for n in _FREE_RATIOS:
        eta = free_metric(n, _FREE_SCALE)
        eta_op = eta.as_operator()
        xo, po = position_observable(n), momentum_observable(n)
        metric_ok &= (eta_op * xo == xo.adjoint() * eta_op
                      and eta_op * po == po.adjoint() * eta_op)
        ccr_ok &= commutator(xo, po) == one.scale(i_unit)
        squares_ok &= (xo * xo == x2 and xo * po == xp and po * po == p2)
        pos_ok &= eta.is_positive()
        root = eta.sqrt()
        sqrt_ok &= root * root == eta and root.is_positive()
        loc_ok &= localized_overlap(n, _FREE_SCALE) == (1, 0)
    for kappa in (-2, -1, 0, 1, 2):
        pos_ok &= ParityLinear(math.cosh(kappa), -math.sinh(kappa)).is_positive()

    return [
        _cond("free.metric", metric_ok,
              "X and P are metric-Hermitian for every ratio",
              "metric Hermiticity broken"),
        _cond("free.ccr", ccr_ok, "[X, P] = i exactly",
              "[X, P] deviates from i"),
        _cond("free.squares", squares_ok,
              "X^2 = x^2, XP = xp, P^2 = p^2 exactly",
              "a squared observable deviates"),
        _cond("free.positivity", pos_ok,
              "metric positive for rational ratios and kappa in -2..2",
              "metric positivity broken"),
        _cond("free.sqrt", sqrt_ok,
              "square root round-trips for every square ratio",
              "square root round trip broken"),
        _cond("free.localized", loc_ok,
              "localized overlap is delta(x-y) exactly",
              "localized overlap deviates from delta(x-y)"),
    ]


def run_verification() -> VerificationReport:
    """Run every check group in its fixed order and assemble the report."""
    qs = derive_metric_series(MetricParams.formal(3))
    checks = (_check_coefficients() + _check_series_sources()
              + _check_low_orders(qs) + _check_sectors(qs)
              + _check_observables(qs) + _check_classical() + _check_free())
    return VerificationReport(tuple(checks))
