"""Exact complex rationals a + b*i with arbitrary-precision rational a, b.

A GaussianRational wraps the core's scalar tuple (re, im, den), meaning
(re + im*i)/den over one reduced denominator; the real and imaginary
parts are reduced separately only when they are read or printed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import backend as _b


class GaussianRational:
    """Immutable element of Q(i).

    Thin wrapper around the backend scalar tuple; accepts ints, Fractions,
    (numerator, denominator) pairs of ints, other GaussianRationals, and
    the serialized string form.  A zero denominator raises
    ZeroDivisionError and a pair with a non-int part TypeError.
    """

    __slots__ = ("_q",)

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot add an imaginary part to a GaussianRational")
            self._q = re._q
            return
        if isinstance(re, str):
            if im != 0:
                raise TypeError("string form carries both parts")
            self._q = _parse_scalar(re)
            return
        self._q = _from_parts(*_as_pair(re), *_as_pair(im))

    @classmethod
    def from_tuple(cls, q) -> "GaussianRational":
        obj = object.__new__(cls)
        obj._q = q
        return obj

    @property
    def tuple(self):
        return self._q

    @property
    def re(self) -> Fraction:
        return Fraction(self._q[0], self._q[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._q[1], self._q[2])

    def is_zero(self) -> bool:
        return self._q[0] == 0 and self._q[1] == 0

    def is_real(self) -> bool:
        return self._q[1] == 0

    def is_imaginary(self) -> bool:
        return self._q[0] == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational.from_tuple(_b.q_conj(self._q))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational.from_tuple(_b.q_add(self._q, other._q))

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational.from_tuple(_b.q_neg(self._q))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational.from_tuple(_b.q_add(self._q, _b.q_neg(other._q)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational.from_tuple(_b.q_add(other._q, _b.q_neg(self._q)))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational.from_tuple(_b.q_mul(self._q, other._q))

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._q
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero")
        # d/(a+bi) = d(a-bi)/(a^2+b^2)
        return GaussianRational.from_tuple(_b.q_make(d * a, -d * b, a * a + b * b))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._q == other._q

    def __hash__(self):
        return hash(self._q)

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        return _format_scalar(self._q)

    def __repr__(self):
        return f"GaussianRational({self})"


def _as_pair(v):
    if isinstance(v, bool):
        raise TypeError(f"cannot build a rational part from {v!r}")
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    if isinstance(v, tuple) and len(v) == 2:
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in v):
            raise TypeError(f"a rational pair must be two ints, got {v!r}")
        return _nonzero_den(*v, v)
    raise TypeError(f"cannot build a rational part from {v!r}")


def _from_parts(rn: int, rd: int, bn: int, bd: int):
    """The scalar tuple of rn/rd + (bn/bd)*i."""
    return _b.q_make(rn * bd, bn * rd, rd * bd)


def _nonzero_den(n: int, d: int, source) -> tuple[int, int]:
    """(n, d), refusing d == 0 as Fraction does."""
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {source!r}")
    return n, d


def _coerce(v):
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    return NotImplemented


I = GaussianRational(0, 1)
ZERO = GaussianRational(0)
ONE = GaussianRational(1)
# i^k is I_POWERS[k % 4], and i^(-k) is I_POWERS[-k % 4].
I_POWERS = (ONE, I, -ONE, -I)


def _format_scalar(q) -> str:
    """Canonical text: '0', '3/4', 'i', '-3/4*i', '1/2+i', '1/2-3/4*i'."""
    a, b, d = q
    if a == 0 and b == 0:
        return "0"
    parts = []
    if a != 0:
        parts.append(str(Fraction(a, d)))
    if b != 0:
        im = str(Fraction(b, d))
        if im == "1":
            im = "i"
        elif im == "-1":
            im = "-i"
        else:
            im += "*i"
        if parts and not im.startswith("-"):
            parts.append("+" + im)
        else:
            parts.append(im)
    return "".join(parts)


_RAT = r"-?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^{_RAT}$")
_IMAG_RE = re.compile(r"^[+-]?(?:\d+(?:/\d+)?\*)?i$")


def _parse_rat(s: str) -> tuple[int, int]:
    if "/" in s:
        n, d = s.split("/")
        return _nonzero_den(int(n), int(d), s)
    return int(s), 1


def _parse_scalar(s: str):
    s = s.strip().replace(" ", "")
    if s == "0":
        return _b.Q_ZERO
    # Fractions are written with unsigned denominators, so the only interior
    # +/- is the joiner between the real and imaginary parts.
    split = next((k for k in range(1, len(s)) if s[k] in "+-"), None)
    if split is not None:
        real, imag = s[:split], s[split:]
    elif s.endswith("i"):
        real, imag = None, s
    else:
        real, imag = s, None
    rn, rd = (0, 1)
    if real is not None:
        if not _REAL_RE.match(real):
            raise ValueError(f"bad scalar literal: {s!r}")
        rn, rd = _parse_rat(real)
    bn, bd = (0, 1)
    if imag is not None:
        if not _IMAG_RE.match(imag):
            raise ValueError(f"bad scalar literal: {s!r}")
        sign = 1
        if imag[0] in "+-":
            sign = -1 if imag[0] == "-" else 1
            imag = imag[1:]
        body = imag[:-1].rstrip("*")  # drop trailing 'i' and separator
        if body == "":
            bn, bd = sign, 1
        else:
            bn, bd = _parse_rat(body)
            bn *= sign
    return _from_parts(rn, rd, bn, bd)
