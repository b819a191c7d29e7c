"""Momentum-representation oracle.

On wavefunctions of p:  x acts as i d/dp,  p^b as multiplication,  P as
p -> -p, with operator words applied right to left.  This evaluates any
OperatorExpr on rational test functions completely independently of the
normal-ordering rules in qmetric.algebra, which is what makes it useful
as an oracle: the two layers share no code path for products.

Test functions are quotients of Laurent polynomials in p with
GaussianRational coefficients; equality is decided by cross-multiplication,
so no gcd reduction is ever needed.
"""

from __future__ import annotations

from fractions import Fraction

from qmetric.algebra import OperatorExpr
from qmetric.rational import GaussianRational

_I = GaussianRational(0, 1)


def _coerce(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise TypeError(f"bad coefficient {c!r}")


class LaurentPoly:
    """Finite sum of c_k p^k, k any integer."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c: dict[int, GaussianRational] = {}
        if coeffs:
            for k, v in dict(coeffs).items():
                v = _coerce(v)
                if not v.is_zero():
                    self._c[int(k)] = v

    @classmethod
    def unit(cls, k: int = 0, c=1) -> "LaurentPoly":
        return cls({k: c})

    @property
    def coeffs(self) -> dict:
        return self._c

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        out = dict(self._c)
        for k, v in other._c.items():
            s = out.get(k, GaussianRational(0)) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        out: dict[int, GaussianRational] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                s = out.get(k, GaussianRational(0)) + v1 * v2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return LaurentPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _coerce(c)
        if c.is_zero():
            return LaurentPoly()
        return LaurentPoly({k: v * c for k, v in self._c.items()})

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by p^n."""
        return LaurentPoly({k + n: v for k, v in self._c.items()})

    def deriv(self) -> "LaurentPoly":
        return LaurentPoly({k - 1: v * k for k, v in self._c.items() if k != 0})

    def reflect(self) -> "LaurentPoly":
        """p -> -p."""
        return LaurentPoly({k: (v if k % 2 == 0 else -v) for k, v in self._c.items()})

    def __str__(self):
        if not self._c:
            return "0"
        return " + ".join(f"({self._c[k]})*p^{k}" for k in sorted(self._c, reverse=True))

    __repr__ = __str__


class PFunction:
    """Quotient of Laurent polynomials in p (den defaults to 1)."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.unit(0)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, PFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        return PFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return PFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PFunction":
        return PFunction(self.num.scale(c), self.den)

    def mul_p_power(self, b: int) -> "PFunction":
        return PFunction(self.num.shift(b), self.den)

    def deriv(self) -> "PFunction":
        num = self.num.deriv() * self.den - self.num * self.den.deriv()
        return PFunction(num, self.den * self.den)

    def reflect(self) -> "PFunction":
        return PFunction(self.num.reflect(), self.den.reflect())

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def momentum_rep_apply(expr: OperatorExpr, f: PFunction) -> PFunction:
    """Apply an operator to a test function in the momentum representation.

    All parameter symbols must have been substituted away: the oracle works
    on numeric coefficients only.
    """
    total = PFunction(LaurentPoly())
    for mono, poly in expr.terms():
        c = poly.constant_value()  # raises if still symbolic
        g = f
        if mono.parity:
            g = g.reflect()
        if mono.pPow:
            g = g.mul_p_power(mono.pPow)
        for _ in range(mono.xPow):
            g = g.deriv().scale(_I)
        total = total + g.scale(c)
    return total
