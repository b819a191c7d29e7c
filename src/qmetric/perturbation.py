"""Order-by-order construction of the metric generator Q.

The generator is built as a finite series Q = sum_j Q_j e^j with every
Q_j Hermitian.  Order j is obtained in three steps:

1. ``build_r``: assemble the right-hand side R_j of [H0, Q_j] = R_j from
   the already-solved lower orders.  With L X = [X, Q] the defining
   relation reads tanh(L/2) H0 = -eps H1, so R = L H0 = -L coth(L/2) eps H1
   is a Bernoulli-weighted sum of the entries E[k][j] of the table
   ``series.NestedCommutators`` seeded with eps H1.  The table holds
   Weyl symbols; R_j is checked anti-Hermitian on its symbol and
   normal-ordered for the record.  The derived series keeps its table
   for the extension and ``equivalent_hermitian``; the columns no later
   order reads (R_{N-1}, R_N, and R_{N+1}, h_{N+1} in the extension) are
   streamed.
2. ``solve_commutator_equation``: on Weyl symbols [H0, .] is -i p d/dx,
   so one particular solution is read off R_j's symbol term by term; it
   is Hermitian because R_j is anti-Hermitian, and its normal-ordered
   form is checked by the round trip [H0, S] = R_j in normal order, on
   the closed form of [p^2/2, .], apart from the Weyl conversions.
3. ``strip_x_free`` and ``homogeneous_q``: move the real x-free parts of
   the particular solution into the free parameters and attach the
   homogeneous terms lambda_j p^(-5j) + i^j kappa_j p^(-5j) P; the sum
   Q_j is checked Hermitian and joins the table with its Weyl symbol:
   the solver's symbol, corrected by the x-free terms in which Q_j
   differs from the particular solution.

The x^3 perturbation makes every order scaling-homogeneous: counting
deg(x) = -1, deg(p) = +1, order j carries degree -5j (the 5 is the
``weight`` argument; it is 2 plus the x-degree of the perturbing term,
and only enters through bookkeeping assertions and the homogeneous
p-power).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import backend as _b
from .algebra import OperatorExpr, h1, require_int, scaling_degree
from .errors import EngineError
from .params import ParamPoly
from .rational import I_POWERS
from .series import NestedCommutators, SeriesExpr

DEFAULT_WEIGHT = 5


# ---------------------------------------------------------------------------
# universal coefficients


def q_coefficient(k: int) -> Fraction:
    """Weight of the k-fold nested commutator in the order mixing rule.

    q_k = sum_{m=1..k} sum_{n=1..m} (-1)^n n^k / (k! 2^(m-1)) * C(m, n);
    vanishes for even k >= 2.
    """
    if k < 1:
        raise ValueError("k must be positive")
    kfact = math.factorial(k)
    total = Fraction(0)
    for m in range(1, k + 1):
        for n in range(1, m + 1):
            total += Fraction((-1) ** n * n**k * math.comb(m, n), kfact * 2 ** (m - 1))
    return total


@functools.cache
def _bernoulli(k: int) -> Fraction:
    """B_k, from sum_{j=0..k} C(k+1, j) B_j = 0 for k >= 1 (so B_1 = -1/2)."""
    if k == 0:
        return Fraction(1)
    return -sum(math.comb(k + 1, j) * _bernoulli(j) for j in range(k)) / (k + 1)


def _source_weight(k: int) -> Fraction:
    """Weight of E[k] in R = -L coth(L/2) eps H1: -2 B_k / k!, the y^k
    coefficient of -y coth(y/2), zero for odd k."""
    return Fraction(0) if k % 2 else -2 * _bernoulli(k) / math.factorial(k)


# ---------------------------------------------------------------------------
# parameters


def _as_param(value, name: str) -> ParamPoly:
    if value == "formal":
        return ParamPoly.symbol(name)
    if isinstance(value, ParamPoly):
        return value
    return ParamPoly(value)


@dataclass(frozen=True)
class MetricParams:
    """Free homogeneous amplitudes lambda_j, kappa_j for orders 1..N.

    Entries are exact rationals or formal symbols; they are real by
    construction (a complex constant is rejected), which keeps every
    homogeneous term Hermitian.
    """

    order: int
    lam: tuple[ParamPoly, ...]
    kap: tuple[ParamPoly, ...]

    def __post_init__(self):
        if require_int("order", self.order) < 1:
            raise ValueError("order must be >= 1")
        if len(self.lam) != self.order or len(self.kap) != self.order:
            raise ValueError("parameter lists must have one entry per order")
        for poly in (*self.lam, *self.kap):
            if not poly.is_real():
                raise ValueError(f"metric parameters must be real, got {poly}")

    @classmethod
    def formal(cls, order: int) -> "MetricParams":
        require_int("order", order)
        lam = tuple(ParamPoly.symbol(f"l{j}") for j in range(1, order + 1))
        kap = tuple(ParamPoly.symbol(f"k{j}") for j in range(1, order + 1))
        return cls(order, lam, kap)

    @classmethod
    def numeric(cls, order: int, lam: Sequence | None = None, kap: Sequence | None = None) -> "MetricParams":
        require_int("order", order)
        lam = list(lam or [])
        kap = list(kap or [])
        lam += [Fraction(0)] * (order - len(lam))
        kap += [Fraction(0)] * (order - len(kap))
        lam_p = tuple(_as_param(v, f"l{j + 1}") for j, v in enumerate(lam))
        kap_p = tuple(_as_param(v, f"k{j + 1}") for j, v in enumerate(kap))
        return cls(order, lam_p, kap_p)

    def lam_at(self, j: int) -> ParamPoly:
        return self.lam[j - 1]

    def kap_at(self, j: int) -> ParamPoly:
        return self.kap[j - 1]


# ---------------------------------------------------------------------------
# the three pipeline stages


def _source(j, table, weight, streamed):
    """(R_j, its Weyl symbol), R_j = sum_k source_weight(k) E[k][j], checked."""
    rw = table.symbol(j, _source_weight, streamed)
    if not _b.weyl_is_antihermitian(rw):
        raise EngineError(f"order {j}: R_j is not anti-Hermitian (corrupted lower orders?)")
    r = OperatorExpr.from_raw(_b.to_normal(rw))
    deg = scaling_degree(r)
    expected = 2 - weight * j
    if not (r.is_zero() or deg == expected):
        raise EngineError(f"order {j}: R_j has scaling degree {deg}, expected {expected}")
    return r, rw


def build_r(j: int, prior_q: Sequence[OperatorExpr], h1_op: OperatorExpr | None = None,
            weight: int = DEFAULT_WEIGHT) -> OperatorExpr:
    """Right-hand side R_j of the order-j commutator equation.

    R_1 = -2 H_1; for j >= 2, R_j = sum_{n>=1} -2 B_2n/(2n)! E[2n][j], the
    eps^j coefficient of -L coth(L/2) eps H1 (see ``_source_weight``),
    from a nested-commutator table built here from Q_1..Q_{j-1}.  When
    those solve the lower orders for `h1_op` (i x^3 unless given), this
    equals sum_{k=2..j} q_k * sum_{s_1+...+s_k=j} [[..[H0, Q_{s_1}].., Q_{s_k}]].
    ``derive_metric_series`` runs the same code on its growing table.
    """
    if require_int("order", j) < 1:
        raise ValueError("order must be >= 1")
    if len(prior_q) < j - 1:
        raise ValueError(f"order {j} needs all lower orders, got {len(prior_q)}")
    table = NestedCommutators({1: h1() if h1_op is None else h1_op}, prior_q[:j - 1])
    return _source(j, table, weight, streamed=True)[0]


def solve_commutator_equation(r: OperatorExpr) -> OperatorExpr:
    """One particular Hermitian solution of [p^2/2, Q] = R.

    On Weyl symbols [p^2/2, .] is -i p d/dx, so each term r W(x^a p^b) P^e
    of R is produced by (i r / (a+1)) W(x^(a+1) p^(b-1)) P^e
    (``_core_py.weyl_solve_h0``).  That solution is Hermitian because R is
    anti-Hermitian; it is returned normal-ordered.
    """
    if not r.is_antihermitian():
        raise EngineError("solve_commutator_equation requires an anti-Hermitian input")
    return _solve(r, _b.to_weyl(r.raw))[0]


def _solve(r: OperatorExpr, rw: dict) -> tuple[OperatorExpr, dict]:
    """The solver's body, for an R already checked to be anti-Hermitian
    and its Weyl symbol rw: (the solution normal-ordered, its symbol).
    The round trip runs in normal order, on the closed form of [p^2/2, .]
    (``_core_py.h0_commutator_equals``)."""
    sw = _b.weyl_solve_h0(rw)
    sol = OperatorExpr.from_raw(_b.to_normal(sw))
    if not _b.h0_commutator_equals(sol.raw, r.raw):
        raise EngineError("commutator equation round trip failed")
    return sol, sw


def strip_x_free(particular: OperatorExpr, j: int, weight: int = DEFAULT_WEIGHT
                 ) -> tuple[OperatorExpr, ParamPoly, ParamPoly]:
    """Split off the free-parameter directions of a particular solution.

    Returns (stripped, plain, parity) where the removed piece is
    plain * p^(-weight j) + parity * i^j p^(-weight j) P with both
    amplitudes real, i.e. exactly the two Hermitian directions a free
    parameter can shift: plain is the real part of the x-free coefficient
    of p^(-weight j), parity that of the x-free parity coefficient turned
    by i^(-j).  The rest, of the complementary reality (it appears from
    order 4 on), is kept: the adjoint of x-carrying terms reorders into
    x-free ones, so it is part of a Hermitian whole, not a free
    parameter.  Any x-free term commutes with H0, so either way the
    result solves the same equation.
    """
    b_expected = -weight * j
    stripped = {}
    free = {}
    for (a, b, e), p in particular.raw.items():
        if a:
            stripped[a, b, e] = p
        elif b != b_expected:
            raise EngineError(f"order {j}: x-free term carries p^{b}, expected p^{b_expected}")
        else:
            free[e] = p
    amplitudes = []
    for e in (0, 1):
        amplitude, left = _b.poly_real_split(free.get(e, {}), j * e)
        if left:
            stripped[0, b_expected, e] = left
        amplitudes.append(ParamPoly.from_terms(amplitude))
    return OperatorExpr.from_raw(stripped), *amplitudes


def homogeneous_q(j: int, lam: ParamPoly, kap: ParamPoly, weight: int = DEFAULT_WEIGHT) -> OperatorExpr:
    """lambda_j p^(-wj) + i^j kappa_j p^(-wj) P (both Hermitian for real amplitudes)."""
    out = OperatorExpr.monomial(lam, 0, -weight * j, False)
    return out + OperatorExpr.monomial(kap * ParamPoly(I_POWERS[j % 4]), 0, -weight * j, True)


def _canonical_parts(j: int, particular: OperatorExpr, params: MetricParams,
                     weight: int) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """(stripped particular, homogeneous part, their sum Q_j), Q_j checked."""
    stripped, _, _ = strip_x_free(particular, j, weight)
    hom = homogeneous_q(j, params.lam_at(j), params.kap_at(j), weight)
    q = stripped + hom
    if not q.is_hermitian():
        raise EngineError(f"order {j}: canonical Q_j is not Hermitian")
    deg = scaling_degree(q)
    if not (q.is_zero() or deg == -weight * j):
        raise EngineError(f"order {j}: Q_j has scaling degree {deg}, expected {-weight * j}")
    return stripped, hom, q


def _q_symbol(q: OperatorExpr, particular: OperatorExpr, sw: dict) -> dict:
    """The Weyl symbol of Q_j, from the solver's symbol sw of `particular`.

    The two operators differ only in x-free terms, and an x-free term
    x^0 p^b P^e is its own symbol, so the symbol of Q_j is sw plus that
    difference; sw itself has no x-free term (the solver raises every
    x-power by one).
    """
    qw = dict(sw)
    for key in dict.fromkeys(k for raw in (particular.raw, q.raw) for k in raw if not k[0]):
        if p := _b.poly_add(q.raw.get(key, {}), _b.poly_neg(particular.raw.get(key, {}))):
            qw[key] = p
    return qw


# ---------------------------------------------------------------------------
# the assembled series


@dataclass(frozen=True)
class OrderRecord:
    j: int
    r: OperatorExpr
    particular: OperatorExpr   # canonical (x-free part stripped)
    homogeneous: OperatorExpr  # lambda_j p^(-wj) + i^j kappa_j p^(-wj) P
    q: OperatorExpr            # particular + homogeneous


class QSeries:
    """Per-order records of the generator plus the assembled series.

    ``h1_op`` is the perturbation H1 the series solves for, the paper's
    i x^3 unless given.  ``derive_metric_series`` attaches its
    nested-commutator table, which the extension reuses; a series built
    by hand has none and is extended from a fresh table over its records.
    """

    __slots__ = ("params", "weight", "orders", "h1_op", "_table")

    def __init__(self, params: MetricParams, weight: int, orders: Sequence[OrderRecord],
                 h1_op: OperatorExpr | None = None):
        self.params = params
        self.weight = weight
        self.orders = tuple(orders)
        self.h1_op = h1() if h1_op is None else h1_op
        self._table = None

    @property
    def order(self) -> int:
        return self.params.order

    def record(self, j: int) -> OrderRecord:
        if not (1 <= j <= len(self.orders)):
            raise ValueError(f"no record for order {j}")
        return self.orders[j - 1]

    def q(self, j: int) -> OperatorExpr:
        return self.record(j).q

    def series(self) -> SeriesExpr:
        return SeriesExpr(self.order, {rec.j: rec.q for rec in self.orders})

    def q_list(self) -> list[OperatorExpr]:
        return [rec.q for rec in self.orders]


def derive_metric_series(params: MetricParams, h1_op: OperatorExpr | None = None,
                         weight: int = DEFAULT_WEIGHT) -> QSeries:
    """Run the full pipeline for orders 1..params.order."""
    records: list[OrderRecord] = []
    table = NestedCommutators({1: h1() if h1_op is None else h1_op})
    for j in range(1, params.order + 1):
        try:
            # No later order reads the even entries of columns N-1 and N.
            r, rw = _source(j, table, weight, streamed=j >= params.order - 1)
            particular, sw = _solve(r, rw)
            stripped, hom, q = _canonical_parts(j, particular, params, weight)
        except EngineError:
            raise
        except Exception as exc:  # pragma: no cover - defensive context wrapper
            raise EngineError(f"order {j}: {exc}") from exc
        records.append(OrderRecord(j, r, stripped, hom, q))
        table.add(q, _q_symbol(q, particular, sw))
    qs = QSeries(params, weight, records, h1_op)
    qs._table = table
    return qs


def _extension(qs, weight=None):
    """(canonical particular Q_{N+1}, {m: the Weyl symbol of sum_k weight(k)
    E[k][m] for m = 1..N+1} or {} without `weight`), from the series' table,
    or from a fresh one checked against [H0, Q_m] = R_m for a series built
    by hand; column N+1 is streamed."""
    j = qs.order + 1
    table = qs._table if qs._table is not None else NestedCommutators({1: qs.h1_op}, qs.q_list())
    stripped = strip_x_free(_solve(*_source(j, table, qs.weight, streamed=True))[0], j, qs.weight)[0]
    if weight is None:
        return stripped, {}
    if qs._table is None:
        for m, q in enumerate(table.q, start=1):
            if not _b.h0_commutator_equals(q.raw, table.total(m, _source_weight).raw):
                raise EngineError(f"order {m}: [H0, Q_m] differs from R_m")
    return stripped, {m: table.symbol(m, weight, streamed=m == j) for m in range(1, j + 1)}


def extend_one_order(qs: QSeries) -> OperatorExpr:
    """Canonical particular solution at order N+1 with zero free parameters.

    The order-(N+1) equation is fully determined by Q_1..Q_N; the free
    amplitudes first affect observables one order higher, so they are
    pinned to zero here.
    """
    return _extension(qs)[0]


# ---------------------------------------------------------------------------
# cross-check against the symmetrized fourth-power form


@dataclass(frozen=True)
class BbjReport:
    alpha: ParamPoly
    expansion: OperatorExpr
    canonical: OperatorExpr
    matches: bool
    lambda_tilde: ParamPoly
    shift: ParamPoly  # lambda_tilde - alpha; constant 15/4 when the forms agree


def bbj_expansion(alpha: ParamPoly | Fraction | int | str = "alpha") -> OperatorExpr:
    """(1/32)(x^4 p^-1 + 4 x^3 p^-1 x + 6 x^2 p^-1 x^2 + 4 x p^-1 x^3 + p^-1 x^4) + alpha p^-5."""
    alpha_p = _as_param(alpha, "alpha")
    x = OperatorExpr.x_power(1)
    pinv = OperatorExpr.p_power(-1)
    total = OperatorExpr.zero()
    for k in range(5):
        c = Fraction(math.comb(4, k), 32)
        term = (OperatorExpr.x_power(4 - k) * pinv * OperatorExpr.x_power(k)).scale(c)
        total = total + term
    return total + OperatorExpr.p_power(-5).scale(alpha_p)


def bbj_compare(alpha: ParamPoly | Fraction | int | str = "alpha") -> BbjReport:
    """Expand the symmetrized form and match it against the canonical Q_1.

    The two agree exactly when lambda_1 = alpha + 3/4, i.e. the plain
    p^-5 amplitudes differ by the constant 15/4 once the stripped
    constant 3 is accounted for.
    """
    alpha_p = _as_param(alpha, "alpha")
    expansion = bbj_expansion(alpha_p)
    lam1 = alpha_p + ParamPoly(Fraction(3, 4))
    params = MetricParams(1, (lam1,), (ParamPoly(0),))
    qs = derive_metric_series(params)
    canonical = qs.q(1)
    lambda_tilde = lam1 + ParamPoly(3)
    return BbjReport(
        alpha=alpha_p,
        expansion=expansion,
        canonical=canonical,
        matches=(expansion == canonical),
        lambda_tilde=lambda_tilde,
        shift=lambda_tilde - alpha_p,
    )
