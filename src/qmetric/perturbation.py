"""Order-by-order construction of the metric generator Q.

The generator is built as a finite series Q = sum_j Q_j e^j with every
Q_j Hermitian.  Order j is obtained in three steps:

1. ``build_r``: assemble the right-hand side R_j of [H0, Q_j] = R_j from
   the already-solved lower orders, via the universal rational weights
   ``q_coefficient(k)`` and the order-j coefficients D[k][j] of the
   k-fold nested commutators [..[H0, Q].., Q].  Column j of that table
   reads only the columns before it, so ``derive_metric_series`` grows
   it one column per order and computes each nested commutator once;
   ``extend_one_order`` and ``equivalent_hermitian`` reuse it.  A column
   no later order reads (R_N, and R_{N+1} and h_{N+1} in the extension)
   is summed before it is commuted: sum_k c_k D[k][m] =
   sum_i [sum_k c_k D[k-1][i], Q_{m-i}], one commutator per Q_{m-i}.
   Every such sum of commutators, and each entry D[k][m], is one call of
   the commutator kernel over the list of its pairs.
2. ``solve_commutator_equation``: produce one particular Hermitian
   solution by descending-x-degree elimination.
3. ``canonical_q``: move every x-free piece of the particular solution
   into the free parameters and attach the homogeneous terms
   lambda_j p^(-5j) + i^j kappa_j p^(-5j) P.

The x^3 perturbation makes every order scaling-homogeneous: counting
deg(x) = -1, deg(p) = +1, order j carries degree -5j (the 5 is the
``weight`` argument; it is 2 plus the x-degree of the perturbing term,
and only enters through bookkeeping assertions and the homogeneous
p-power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import OperatorExpr, commutator, commutator_sum, h0, h1, scaling_degree
from .errors import EngineError
from .params import ParamPoly
from .rational import I_POWERS, GaussianRational
from .series import SeriesExpr

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
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.lam) != self.order or len(self.kap) != self.order:
            raise ValueError("parameter lists must have one entry per order")
        for poly in (*self.lam, *self.kap):
            if not poly.is_real():
                raise ValueError(f"metric parameters must be real, got {poly}")

    @classmethod
    def formal(cls, order: int) -> "MetricParams":
        lam = tuple(ParamPoly.symbol(f"l{j}") for j in range(1, order + 1))
        kap = tuple(ParamPoly.symbol(f"k{j}") for j in range(1, order + 1))
        return cls(order, lam, kap)

    @classmethod
    def numeric(cls, order: int, lam: Sequence | None = None, kap: Sequence | None = None) -> "MetricParams":
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


class _NestedCommutators:
    """Columns of D[k][m], the eps^m coefficient of [..[H0, Q].., Q] (k-fold).

    For k >= 2, D[k][m] = sum_{s=1..m-k+1} [D[k-1][m-s], Q_s] reads only
    earlier columns and Q_1..Q_{m-1}, so the table grows one column per
    order.  D[1][m] = [H0, Q_m] is R_m for a derived Q_m: the solver's
    round trip checks [H0, particular] = R_m, and the x-free terms that
    canonical_q strips or adds commute with H0.
    """

    __slots__ = ("q", "cols")

    def __init__(self, q=(), cols=()):
        self.q = q        # Q_1, Q_2, ...
        self.cols = cols  # cols[m - 1][k - 1] = D[k][m]

    @classmethod
    def of(cls, j, prior_q):
        """Columns 1..j-1 from Q_1..Q_{j-1} alone, D[1][m] = [H0, Q_m]."""
        if len(prior_q) < j - 1:
            raise ValueError(f"order {j} needs all lower orders, got {len(prior_q)}")
        table = cls()
        for m, q in enumerate(prior_q[:j - 1], start=1):
            table = table.add(q, commutator(h0(), q), table.column(m, (), True)[1])
        return table

    def add(self, q, d1, entries):
        """This table with Q_m and column m = (D[1][m], *entries) appended."""
        return _NestedCommutators(self.q + (q,), self.cols + ((d1, *entries),))

    def column(self, m, coeffs, keep):
        """([sum_{k>=2} c(k) D[k][m] for c in coeffs], D[2..m][m] if `keep`).

        With `keep` every D[k][m] is formed, since later columns read them.
        Without it no later column needs the entries, so each sum is
        regrouped by linearity into one commutator per Q_{m-i}:
        sum_k c(k) D[k][m] = sum_{i=1..m-1} [sum_{k=2..i+1} c(k) D[k-1][i], Q_{m-i}].
        Each D[k][m], and each regrouped sum, is one kernel call over its
        pairs, so its terms are summed in integers and reduced once.
        """
        if not keep:
            return [self._streamed(m, c) for c in coeffs], []
        sums = [OperatorExpr.zero() for _ in coeffs]
        entries = []
        for k in range(2, m + 1):
            d = commutator_sum((self.cols[i - 1][k - 2], self.q[m - i - 1])
                               for i in range(k - 1, m))
            entries.append(d)
            sums = [acc + d.scale(ck) if (ck := c(k)) else acc for acc, c in zip(sums, coeffs)]
        return sums, entries

    def _streamed(self, m, c):
        """sum_{k>=2} c(k) D[k][m] as sum_i [F_i, Q_{m-i}] with the weighted
        sums F_i = sum_k c(k) D[k-1][i], in one kernel call."""
        weights = [c(k) for k in range(2, m + 1)]
        pairs = []
        for i in range(1, m):
            f = sum((d.scale(w) for d, w in zip(self.cols[i - 1], weights) if w and d),
                    OperatorExpr.zero())
            pairs.append((f, self.q[m - i - 1]))
        return commutator_sum(pairs)

    def check_relation(self, h1_op):
        """Raise at the first m with D[1][m] = [H0, Q_m] != R_m from this
        table, R_1 = -2 h1_op."""
        for m, col in enumerate(self.cols, start=1):
            terms = (d.scale(q_coefficient(k)) for k, d in enumerate(col[1:], start=2) if k % 2)
            if col[0] != (h1_op.scale(-2) if m == 1 else sum(terms, OperatorExpr.zero())):
                raise EngineError(f"order {m}: [H0, Q_m] differs from R_m")


def _source(j, table, h1_op, weight, coeffs=(), keep=False):
    """(R_j, checked; the column's sums for `coeffs`; its entries if `keep`)."""
    (r, *sums), entries = table.column(j, (q_coefficient, *coeffs), keep)
    if j == 1:
        r = (h1() if h1_op is None else h1_op).scale(-2)
    if not r.is_antihermitian():
        raise EngineError(f"order {j}: R_j is not anti-Hermitian (corrupted lower orders?)")
    deg = scaling_degree(r)
    expected = 2 - weight * j
    if not (r.is_zero() or deg == expected):
        raise EngineError(f"order {j}: R_j has scaling degree {deg}, expected {expected}")
    return r, sums, entries


def build_r(j: int, prior_q: Sequence[OperatorExpr], h1_op: OperatorExpr | None = None,
            weight: int = DEFAULT_WEIGHT) -> OperatorExpr:
    """Right-hand side R_j of the order-j commutator equation.

    R_1 = -2 H_1; for j >= 2 the lower orders mix through
    R_j = sum_{k=2..j} q_k * sum_{s_1+...+s_k=j} [[..[H0, Q_{s_1}].., Q_{s_k}]].
    The inner sum is D[k][j] of a nested-commutator table built here
    from Q_1..Q_{j-1} alone, so any list of lower orders may be passed;
    ``derive_metric_series`` runs the same code on its growing table.
    """
    if j < 1:
        raise ValueError("order must be >= 1")
    return _source(j, _NestedCommutators.of(j, prior_q), h1_op, weight)[0]


def solve_commutator_equation(r: OperatorExpr) -> OperatorExpr:
    """One particular Hermitian solution of [p^2/2, Q] = R.

    Works by strictly descending x-degree: the target term c x^a p^b is
    produced by (i c / (a+1)) x^(a+1) p^(b-1), whose commutator with H0
    leaves a remainder of x-degree a-1 that is folded back into the
    work list.  The raw solution is then projected onto its Hermitian
    part, which is still a solution because R is anti-Hermitian.
    """
    if not r.is_antihermitian():
        raise EngineError("solve_commutator_equation requires an anti-Hermitian input")
    return _solve(r)


def _solve(r: OperatorExpr) -> OperatorExpr:
    """The solver's body, for an R already checked to be anti-Hermitian."""
    work: dict[tuple[int, int, int], ParamPoly] = {
        m.key: c for m, c in r.terms()
    }
    sol = OperatorExpr.zero()
    while work:
        a = max(key[0] for key in work)
        for key in [k for k in work if k[0] == a]:
            _, b, e = key
            c = work.pop(key)
            gamma = c * ParamPoly(GaussianRational(0, Fraction(1, a + 1)))
            sol = sol + OperatorExpr.monomial(gamma, a + 1, b - 1, bool(e))
            if a >= 1:
                rem_key = (a - 1, b - 1, e)
                rem = gamma * ParamPoly(Fraction(a * (a + 1), 2))
                prev = work.get(rem_key, ParamPoly(0))
                nxt = prev + rem
                if nxt.is_zero():
                    work.pop(rem_key, None)
                else:
                    work[rem_key] = nxt
    sol = sol.hermitian_part()
    if commutator(h0(), sol) != r:
        raise EngineError("commutator equation round trip failed")
    return sol


def strip_x_free(particular: OperatorExpr, j: int, weight: int = DEFAULT_WEIGHT
                 ) -> tuple[OperatorExpr, ParamPoly, ParamPoly]:
    """Split off the free-parameter directions of a particular solution.

    Returns (stripped, plain, parity) where the removed piece is
    plain * p^(-weight j) + parity * i^j p^(-weight j) P with both
    amplitudes real, i.e. exactly the two Hermitian directions a free
    parameter can shift.  An x-free normal-ordered remainder with the
    complementary reality (it appears from order 4 on) is kept: the
    adjoint of x-carrying terms reorders into x-free ones, so that
    remainder is part of a Hermitian whole, not a free parameter.  Any
    x-free term commutes with H0, so either way the result solves the
    same equation.
    """
    b_expected = -weight * j
    rest = OperatorExpr.zero()
    raw_plain = ParamPoly(0)
    raw_parity = ParamPoly(0)
    for mono, coeff in particular.terms():
        if mono.xPow != 0:
            rest = rest + OperatorExpr.monomial(coeff, mono.xPow, mono.pPow, mono.parity)
            continue
        if mono.pPow != b_expected:
            raise EngineError(
                f"order {j}: x-free term carries p^{mono.pPow}, expected p^{b_expected}")
        if mono.parity:
            raw_parity = raw_parity + coeff
        else:
            raw_plain = raw_plain + coeff
    half = ParamPoly(Fraction(1, 2))
    i_pow = I_POWERS[j % 4]
    plain = (raw_plain + raw_plain.conjugate()) * half
    rotated = raw_parity * ParamPoly(I_POWERS[-j % 4])
    parity = (rotated + rotated.conjugate()) * half
    stripped = rest
    left_plain = raw_plain + plain * ParamPoly(-1)
    left_parity = raw_parity + parity * ParamPoly(-i_pow)
    if not left_plain.is_zero():
        stripped = stripped + OperatorExpr.monomial(left_plain, 0, b_expected, False)
    if not left_parity.is_zero():
        stripped = stripped + OperatorExpr.monomial(left_parity, 0, b_expected, True)
    return stripped, plain, parity


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


def canonical_q(j: int, particular: OperatorExpr, params: MetricParams,
                weight: int = DEFAULT_WEIGHT) -> OperatorExpr:
    """Canonical order-j generator: stripped particular plus homogeneous part."""
    return _canonical_parts(j, particular, params, weight)[2]


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
    nested-commutator table (columns 1..N-1); a series built by hand has
    none, and the next order is then computed from its own records.
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
    table = _NestedCommutators()
    for j in range(1, params.order + 1):
        keep = j < params.order
        try:
            r, _, entries = _source(j, table, h1_op, weight, keep=keep)
            particular = _solve(r)
            stripped, hom, q = _canonical_parts(j, particular, params, weight)
        except EngineError:
            raise
        except Exception as exc:  # pragma: no cover - defensive context wrapper
            raise EngineError(f"order {j}: {exc}") from exc
        records.append(OrderRecord(j, r, stripped, hom, q))
        if keep:
            table = table.add(q, r, entries)
    qs = QSeries(params, weight, records, h1_op)
    qs._table = table
    return qs


def _extension(qs, coeff=None):
    """(canonical particular Q_{N+1}, {m: sum_k coeff(k) D[k][m] for m = 1..N+1}
    or {} without `coeff`).  Completes column N of the series' table, then
    streams column N+1 into R_{N+1} and the sum (see ``check_relation``)."""
    n, j = qs.order, qs.order + 1
    if qs._table is None:
        table = _NestedCommutators.of(j, qs.q_list())
    else:
        table = qs._table.add(qs.q(n), qs.record(n).r, qs._table.column(n, (), True)[1])
    r, sums, _ = _source(j, table, None, qs.weight, () if coeff is None else (coeff,))
    stripped = strip_x_free(_solve(r), j, qs.weight)[0]
    if coeff is None:
        return stripped, {}
    if qs._table is None:
        table.check_relation(qs.h1_op)
    by_order = {m: sum((d.scale(c) for k, d in enumerate(col, start=1) if (c := coeff(k))),
                       OperatorExpr.zero()) for m, col in enumerate(table.cols, start=1)}
    by_order[j] = r.scale(coeff(1)) + sums[0] if coeff(1) else sums[0]
    return stripped, by_order


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
