"""Physical observables, the equivalent Hermitian Hamiltonian, and the
classical limit.

With L X = [X, Q], the dressed observables e^{Q/2} A e^{-Q/2} = e^{-L/2} A
and the Hermitian Hamiltonian H0 + tanh(L/4) eps H1 are weighted sums of
the nested commutators of ``series.NestedCommutators``: X and P from a
table seeded with x and p, which shares the Weyl symbols of the Q_s in
the series' table (``QSeries.table``), h from that table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import backend as _b
from .algebra import OperatorExpr, h0, require_int, symmetric_form
from .errors import EngineError
from .perturbation import QSeries, _extension, _source_weight
from .series import NestedCommutators, SeriesExpr


def conjugate_by_sqrt_metric(a: SeriesExpr, q: SeriesExpr, sign: int = 1) -> SeriesExpr:
    """e^{sign*Q/2} A e^{-sign*Q/2} truncated to n = min(a.order, q.order).

    sign=+1 dresses a bare operator into its physical counterpart, -1 undresses.
    Q must vanish at order 0.  The result is e^{-sign*L/2} A: the weights
    (-sign/2)^k / k! on a table seeded with A, order n streamed.
    """
    if require_int("sign", sign) not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not q.coeff(0).is_zero():
        raise ValueError("Q must vanish at order 0")
    n = min(a.order, q.order)
    return _conjugated(a, [q.coeff(s) for s in range(1, n + 1)], None, sign)


def _conjugated(a: SeriesExpr, q: list, qw: list | None, sign: int) -> SeriesExpr:
    """e^{-sign*L/2} A through order len(q), from Q_1..Q_n and their Weyl
    symbols qw (converted here when None)."""
    n = len(q)
    table = NestedCommutators({j: a.coeff(j) for j in a.indices()}, q, qw)

    def weight(k):
        return Fraction((-sign) ** k, 2 ** k * math.factorial(k))

    return SeriesExpr(n, {m: table.total(m, weight, streamed=m == n) for m in range(n + 1)})


def _dressed(op: OperatorExpr, qs: QSeries) -> SeriesExpr:
    """e^{Q/2} op e^{-Q/2} through the derived order, on the Q_s and
    their Weyl symbols in the series' table."""
    table = qs.table()
    return _conjugated(SeriesExpr.of(op, order=qs.order), table.q, table.qw, 1)


def observable_x(qs: QSeries) -> SeriesExpr:
    """Physical position through the derived order."""
    return _dressed(OperatorExpr.x_power(1), qs)


def observable_p(qs: QSeries) -> SeriesExpr:
    """Physical momentum through the derived order."""
    return _dressed(OperatorExpr.p_power(1), qs)


def _hermitian_weight(k: int) -> Fraction:
    """Weight of E[k] in h: the y^k coefficient of tanh(y/4) =
    2 coth(y/2) - coth(y/4), read off those of -y coth(y/2)."""
    return 2 * _source_weight(k + 1) * (Fraction(1, 2 ** (k + 1)) - 1)


def equivalent_hermitian(qs: QSeries) -> SeriesExpr:
    """Hermitian counterpart of H, one order beyond the derived metric.

    With L X = [X, Q], the defining relation e^{L}(H0 + eps H1) =
    H0 - eps H1 gives tanh(L/2) H0 = -eps H1, so h = e^{-Q/2} H e^{Q/2} =
    sech(L/2) H0 = H0 + tanh(L/4) eps H1 (tanh(y/4) tanh(y/2) =
    1 - sech(y/2)), a sum over the odd nested commutators E[k] of H1.
    That needs [H0, Q_m] = R_m, which a hand-built series is checked
    for.  Q_{N+1} is solved with zero free parameters, which checks that
    R_{N+1} has a solution; h must vanish at first order and be
    Hermitian throughout.  The table hands out h_1..h_{N+1} as Weyl
    symbols, and x-free h_0 = p^2/2 is its own symbol, so every order's
    Hermiticity reads off the coefficients
    (``_core_py.weyl_is_hermitian``); h is normal-ordered only after
    these checks.
    """
    hw = {0: h0().raw, **_extension(qs, _hermitian_weight)[1]}
    if hw[1]:
        raise EngineError("first-order term of the dressed Hamiltonian must vanish")
    for j, w in hw.items():
        if not _b.weyl_is_hermitian(w):
            raise EngineError(f"dressed Hamiltonian not Hermitian at order {j}")
    return SeriesExpr(qs.order + 1,
                      {j: OperatorExpr.from_raw(_b.to_normal(w)) for j, w in hw.items()})


@dataclass(frozen=True)
class ClassicalHamiltonian:
    """Polynomial classical Hamiltonian sum of c * eps^j * m^mpow * x^a p^b.

    `evaluate`, `d_dx` and `d_dp` sum from 0.0, in term order, each
    term's product (times its exponent, for a derivative) formed left
    to right, so `flow` can fold the constant part of each product once
    per orbit and keep every bit.
    """

    mass: Fraction
    terms: tuple  # of (order j, x power a, p power b, Fraction coeff, mass power)

    def evaluate(self, x: float, p: float, epsilon: float) -> float:
        m, total = float(self.mass), 0.0
        for j, a, b, c, mpow in self.terms:
            total += float(c) * epsilon ** j * m ** mpow * x ** a * p ** b
        return total

    def d_dx(self, x: float, p: float, epsilon: float) -> float:
        m, total = float(self.mass), 0.0
        for j, a, b, c, mpow in self.terms:
            if a:
                total += float(c) * a * epsilon ** j * m ** mpow * x ** (a - 1) * p ** b
        return total

    def d_dp(self, x: float, p: float, epsilon: float) -> float:
        m, total = float(self.mass), 0.0
        for j, a, b, c, mpow in self.terms:
            if b:
                total += float(c) * b * epsilon ** j * m ** mpow * x ** a * p ** (b - 1)
        return total

    def term_map(self) -> dict:
        return {(j, a, b): (c, mpow) for j, a, b, c, mpow in self.terms}


def classical_limit(h: SeriesExpr, mass: Fraction = Fraction(1)) -> ClassicalHamiltonian:
    """hbar -> 0 limit of the dressed Hamiltonian with units restored.

    Restoring dimensions sends the coefficient of x^a p^b eps^j to
    m^(j-1) hbar^w with w = 2 - b - 2j; scale homogeneity (a - b = 5j - 2)
    cancels the arbitrary length.  Only w = 0 terms survive; w < 0 would
    diverge and is rejected as an internal error, as is any surviving
    free parameter or parity term.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    collected = []
    for j in range(h.order + 1):
        expr = h.coeff(j)
        if expr.is_zero():
            continue
        for g, b, parity, poly in symmetric_form(expr):
            w = 2 - b - 2 * j
            if w > 0:
                continue
            if w < 0:
                raise EngineError(f"negative hbar weight at order {j}")
            if parity:
                raise EngineError(f"parity term survives the classical limit at order {j}")
            if not poly.is_constant():
                raise EngineError(f"free parameter survives the classical limit at order {j}")
            c = poly.constant_value()
            if not c.is_real():
                raise EngineError(f"imaginary classical coefficient at order {j}")
            val = c.re * (2 if g >= 1 else 1)  # anticommutator halves collapse
            collected.append((j, g, b, val, j - 1))
    return ClassicalHamiltonian(mass=Fraction(mass), terms=tuple(collected))
