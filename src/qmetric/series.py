"""Truncated power series in the perturbation strength, and their nested
commutators with the metric generator.

Coefficients are :class:`~qmetric.algebra.OperatorExpr`; the grading index
is the power of the (real) expansion parameter.  All binary operations
truncate to the smaller of the two orders, which is exactly the behaviour
needed when composing perturbative conjugations.
"""

from __future__ import annotations

from typing import Mapping

from . import backend as _b
from .algebra import OperatorExpr, commutator_sum, require_int


class SeriesExpr:
    __slots__ = ("_order", "_c")

    def __init__(self, order: int, coeffs: Mapping[int, OperatorExpr] | None = None):
        if require_int("series order", order) < 0:
            raise ValueError("series order must be non-negative")
        self._order = order
        c: dict[int, OperatorExpr] = {}
        for j, expr in (coeffs or {}).items():
            if not (0 <= j <= order):
                raise ValueError(f"coefficient index {j} outside series order {order}")
            if not expr.is_zero():
                c[j] = expr
        self._c = c

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "SeriesExpr":
        return cls(order, {})

    @classmethod
    def of(cls, expr: OperatorExpr, j: int = 0, *, order: int) -> "SeriesExpr":
        return cls(order, {j: expr})

    # -- basic access --------------------------------------------------
    @property
    def order(self) -> int:
        return self._order

    def coeff(self, j: int) -> OperatorExpr:
        if not (0 <= j <= self._order):
            raise ValueError(f"coefficient index {j} outside series order {self._order}")
        return self._c.get(j, OperatorExpr.zero())

    def indices(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def truncate(self, order: int) -> "SeriesExpr":
        return SeriesExpr(order, {j: e for j, e in self._c.items() if j <= order})

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "SeriesExpr") -> "SeriesExpr":
        n = min(self._order, other._order)
        out = {j: self.coeff(j) + other.coeff(j)
               for j in range(n + 1)
               if j in self._c or j in other._c}
        return SeriesExpr(n, out)

    def __neg__(self) -> "SeriesExpr":
        return SeriesExpr(self._order, {j: -e for j, e in self._c.items()})

    def __sub__(self, other: "SeriesExpr") -> "SeriesExpr":
        return self + (-other)

    def scale(self, s) -> "SeriesExpr":
        return SeriesExpr(self._order, {j: e.scale(s) for j, e in self._c.items()})

    def __mul__(self, other: "SeriesExpr") -> "SeriesExpr":
        n = min(self._order, other._order)
        out: dict[int, OperatorExpr] = {}
        for j1, e1 in self._c.items():
            if j1 > n:
                continue
            for j2, e2 in other._c.items():
                j = j1 + j2
                if j > n:
                    continue
                prod = e1 * e2
                out[j] = out[j] + prod if j in out else prod
        return SeriesExpr(n, out)

    def adjoint(self) -> "SeriesExpr":
        return SeriesExpr(self._order, {j: e.adjoint() for j, e in self._c.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesExpr):
            return NotImplemented
        if self._order != other._order:
            return False
        return all(self.coeff(j) == other.coeff(j)
                   for j in set(self._c) | set(other._c))

    def __hash__(self) -> int:
        return hash((self._order, frozenset((j, e) for j, e in self._c.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {e!r}" for j, e in sorted(self._c.items()))
        return f"SeriesExpr(order={self._order}, {{{body}}})"


def series_commutator(a: SeriesExpr, b: SeriesExpr) -> SeriesExpr:
    """[a, b], truncated to the smaller order; one kernel call per output
    order j, over the pairs of coefficients whose orders add up to j."""
    n = min(a._order, b._order)
    by_order: dict[int, list] = {}
    for j1, e1 in a._c.items():
        for j2, e2 in b._c.items():
            if j1 + j2 <= n:
                by_order.setdefault(j1 + j2, []).append((e1, e2))
    return SeriesExpr(n, {j: commutator_sum(pairs) for j, pairs in by_order.items()})


class NestedCommutators:
    """Entries E[k][m], the eps^m coefficient of L^k(A), L X = [X, Q].

    The seed A = {m: A_m} has lowest order lo: 1 for eps H1 (the source R
    and h), 0 for a bare operator (X and P).  E[0][m] = A_m and E[k][m] =
    sum_{s=1..m-k-lo+1} [E[k-1][m-s], Q_s], zero unless m >= k + lo.  An
    entry is kept in `memo` and a weighted column sum (weight: k -> weight
    of E[k], a Fraction) in `sums`, each formed when first read, the sum
    in one integer pass (``_core_py.expr_lincomb``); the Q_s only grow at
    the end of `q`, so both stay valid as the table grows.

    The entries and sums are kept as raw Weyl symbols, whose commutators
    need far fewer reordering terms than normal-ordered ones (see
    ``_core_py``).  The seed is converted once, and each Q_s joins the
    table (``add``) with its symbol: the derivation has it from the
    solver, and the tables of X and P share the derivation's symbols
    (``qw``); given only the Q_s, the constructor converts them.
    ``symbol`` hands out a column sum as it is kept (the equivalent
    Hermitian Hamiltonian checks these symbols before normal-ordering
    them), and ``total`` normal-orders it.
    """

    __slots__ = ("seed", "lo", "q", "qw", "memo", "sums")

    def __init__(self, seed, q=(), qw=None):
        self.seed = {m: _b.to_weyl(a.raw) for m, a in seed.items()}
        self.lo = min(self.seed, default=0)
        self.q = []       # Q_1, Q_2, ...
        self.qw = []      # their Weyl symbols
        self.memo = {}    # (k, m) -> E[k][m]
        self.sums = {}    # (m, weight, shift) -> sum_k weight(k + shift) E[k][m]
        for s, qs in enumerate(q):
            self.add(qs, _b.to_weyl(qs.raw) if qw is None else qw[s])

    def add(self, q, qw):
        """Append the next order's generator Q_s and its Weyl symbol qw."""
        self.q.append(q)
        self.qw.append(qw)

    def entry(self, k, m):
        if k == 0:
            return self.seed.get(m, {})
        e = self.memo.get((k, m))
        if e is None:
            e = self.memo[k, m] = _b.weyl_commutator(
                [(self.entry(k - 1, m - s), self.qw[s - 1]) for s in range(1, m - k - self.lo + 2)])
        return e

    def _formed(self, m, weight, shift=0):
        """sum_k weight(k + shift) E[k][m], over the entries of nonzero weight."""
        key = (m, weight, shift)
        f = self.sums.get(key)
        if f is None:
            f = self.sums[key] = _b.expr_lincomb(
                [(w, self.entry(k, m)) for k in range(m - self.lo + 1) if (w := weight(k + shift))])
        return f

    def symbol(self, m, weight, streamed=False):
        """The Weyl symbol of sum_k weight(k) E[k][m].  Streamed, for a
        column no later order reads, it is weight(0) A_m + sum_{s=1..m-lo}
        [F_s, Q_s] with F_s = sum_k weight(k + 1) E[k][m-s], one kernel call
        that forms no E[k][m]; the seed term is added only where the seed
        has that order."""
        if not streamed:
            return self._formed(m, weight)
        out = _b.weyl_commutator(
            [(self._formed(m - s, weight, 1), self.qw[s - 1]) for s in range(1, m - self.lo + 1)])
        if seed := self.entry(0, m):
            out = _b.expr_lincomb([(weight(0), seed), (1, out)])
        return out

    def total(self, m, weight, streamed=False):
        """sum_k weight(k) E[k][m], normal-ordered."""
        return OperatorExpr.from_raw(_b.to_normal(self.symbol(m, weight, streamed)))
