"""Metric and observables for the free particle.

With the interaction switched off, the commutator chain collapses and the
exponent reduces to a pair of real constants: Q = lam + kappa*parity.  The
whole construction then lives in the two-dimensional commutative algebra
spanned by 1 and the parity reflection, so everything can be carried out
in closed form:

    metric       e^{-Q} = e^{-lam} (cosh kappa - sinh kappa * parity)
    position     X = x e^{-kappa*parity} = e^{kappa*parity} x
    momentum     P = p e^{-kappa*parity}

X and P reproduce the canonical pairing exactly -- X^2 = x^2, XP = xp,
P^2 = p^2, [X, P] = i -- but only because cosh^2 - sinh^2 = 1 holds
exactly.  To keep that identity exact the hyperbolic pair is parametrized
by rationals: with e^kappa = n,

    cosh kappa = (n^2 + 1) / 2n,      sinh kappa = (n^2 - 1) / 2n,

and likewise the overall scale enters only through s = e^{-lam}.  Square
roots (the half-exponent objects) then exist exactly whenever n and s are
perfect rational squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .algebra import OperatorExpr
from .errors import EngineError
from .rational import GaussianRational

__all__ = [
    "ParityLinear",
    "hyperbolic_pair",
    "free_metric",
    "position_observable",
    "momentum_observable",
    "inner_product_weights",
    "localized_weights",
    "localized_overlap",
]


def _fraction_sqrt(value: Fraction) -> Fraction:
    """Exact square root of a rational, or EngineError if none exists."""
    if value < 0:
        raise EngineError(f"square root of negative rational {value}")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise EngineError(f"{value} is not a perfect rational square")
    return Fraction(rn, rd)


def _exact(name: str, value) -> Fraction:
    """An int (not a bool) or a Fraction as a Fraction; TypeError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _scale(scale) -> Fraction:
    s = _exact("scale", scale)
    if s <= 0:
        raise EngineError("e^{-lam} must be positive")
    return s


@dataclass(frozen=True)
class ParityLinear:
    """Element a + b*parity of the commutative parity algebra (parity^2 = 1)."""

    a: Fraction | float
    b: Fraction | float

    def __add__(self, other: "ParityLinear") -> "ParityLinear":
        return ParityLinear(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ParityLinear") -> "ParityLinear":
        return ParityLinear(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ParityLinear":
        return ParityLinear(-self.a, -self.b)

    def __mul__(self, other: "ParityLinear") -> "ParityLinear":
        return ParityLinear(self.a * other.a + self.b * other.b,
                            self.a * other.b + self.b * other.a)

    def scale(self, factor) -> "ParityLinear":
        return ParityLinear(self.a * factor, self.b * factor)

    def is_positive(self) -> bool:
        """Positive definiteness: both eigenvalues a +/- b above zero."""
        return self.a > abs(self.b)

    def inverse(self) -> "ParityLinear":
        det = self.a * self.a - self.b * self.b
        if det == 0:
            raise EngineError("parity-linear element is singular")
        return ParityLinear(self.a / det, -self.b / det)

    def sqrt(self) -> "ParityLinear":
        """Positive square root c + d*parity with c^2+d^2 = a, 2cd = b."""
        if not self.is_positive():
            raise EngineError("square root needs a positive element")
        exact = isinstance(self.a, Rational) and isinstance(self.b, Rational)
        if exact:
            disc = _fraction_sqrt(Fraction(self.a) ** 2 - Fraction(self.b) ** 2)
            c = _fraction_sqrt((Fraction(self.a) + disc) / 2)
            d = _fraction_sqrt((Fraction(self.a) - disc) / 2)
        else:
            disc = math.sqrt(self.a * self.a - self.b * self.b)
            c = math.sqrt((self.a + disc) / 2.0)
            d = math.sqrt((self.a - disc) / 2.0)
        return ParityLinear(c, d if self.b >= 0 else -d)

    def as_operator(self) -> OperatorExpr:
        if not (isinstance(self.a, Rational) and isinstance(self.b, Rational)):
            raise EngineError("operator form needs exact rational entries")
        return (OperatorExpr.one().scale(GaussianRational(Fraction(self.a)))
                + OperatorExpr.parity_op()
                .scale(GaussianRational(Fraction(self.b))))


def hyperbolic_pair(ratio: Fraction) -> tuple[Fraction, Fraction]:
    """(cosh kappa, sinh kappa) for e^kappa = ratio, exactly."""
    n = _exact("ratio", ratio)
    if n <= 0:
        raise EngineError("e^kappa must be positive")
    return (n * n + 1) / (2 * n), (n * n - 1) / (2 * n)


def free_metric(ratio: Fraction, scale: Fraction = Fraction(1)) -> ParityLinear:
    """e^{-Q} = s (cosh kappa - sinh kappa * parity), s = e^{-lam} = scale."""
    s = _scale(scale)
    c, s_h = hyperbolic_pair(ratio)
    return ParityLinear(s * c, -s * s_h)


def _exp_parity(ratio: Fraction, sign: int) -> ParityLinear:
    c, s_h = hyperbolic_pair(ratio)
    return ParityLinear(c, s_h if sign > 0 else -s_h)


def position_observable(ratio: Fraction) -> OperatorExpr:
    """X = x e^{-kappa*parity}."""
    return OperatorExpr.x_power(1) * _exp_parity(ratio, -1).as_operator()


def momentum_observable(ratio: Fraction) -> OperatorExpr:
    """P = p e^{-kappa*parity}."""
    return OperatorExpr.p_power(1) * _exp_parity(ratio, -1).as_operator()


def inner_product_weights(ratio: Fraction,
                          scale: Fraction = Fraction(1)) -> tuple[Fraction, Fraction]:
    """Weights (w_id, w_mirror) of the metric inner product

    <phi, psi> = w_id * Int phi*(x) psi(x) + w_mirror * Int phi*(x) psi(-x),

    with w_id = e^{-lam/2} cosh kappa and w_mirror = -e^{-lam/2} sinh kappa.
    Needs e^{-lam} = scale to be a perfect rational square.
    """
    half = _fraction_sqrt(_scale(scale))
    c, s_h = hyperbolic_pair(ratio)
    return half * c, -half * s_h


def localized_weights(ratio: Fraction,
                      scale: Fraction = Fraction(1)) -> tuple[Fraction, Fraction]:
    """Amplitudes of the localized state at y:

    <x|state_y> = amp_same * delta(x - y) + amp_mirror * delta(x + y),

    amp_same = e^{lam/2} cosh(kappa/2), amp_mirror = e^{lam/2} sinh(kappa/2).
    Exact when both scale and ratio are perfect rational squares.
    """
    inv_half = _fraction_sqrt(1 / _scale(scale))
    root = _fraction_sqrt(_exact("ratio", ratio))
    c_h, s_h = hyperbolic_pair(root)
    return inv_half * c_h, inv_half * s_h


def localized_overlap(ratio: Fraction,
                      scale: Fraction = Fraction(1)) -> tuple[Fraction, Fraction]:
    """Coefficients of delta(x-y) and delta(x+y) in <state_x, state_y>_eta.

    Assembled term by term from the metric kernel
    e^{-lam}[cosh kappa delta(u-v) - sinh kappa delta(u+v)] and the two
    localized amplitudes; the construction is consistent exactly when the
    result is (1, 0).
    """
    s = _scale(scale)
    amp_same, amp_mirror = localized_weights(ratio, scale)
    c, s_h = hyperbolic_pair(ratio)
    # e^{lam} from the two state prefactors cancels e^{-lam} from the metric;
    # the amplitudes above each carry e^{lam/2}.
    same = s * (c * (amp_same ** 2 + amp_mirror ** 2)
                - s_h * (2 * amp_same * amp_mirror))
    mirror = s * (c * (2 * amp_same * amp_mirror)
                  - s_h * (amp_same ** 2 + amp_mirror ** 2))
    return same, mirror
