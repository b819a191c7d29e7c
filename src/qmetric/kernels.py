"""Position-representation kernels: polynomial x sign / delta calculus.

A kernel is a finite sum of items

    f(x,y) * sign(x - s*y)      and      g(x) * delta^(k)(x - s*y)

with s = +1 or -1 and exact Gaussian-rational coefficients.  An XYPoly
is a core poly over two symbols, x symbol 0 and y symbol 1 of the
core's exponent vectors, so its sums and products are the core's
poly_add and poly_mul; its public view keys each term by (i, j).
Negative momentum powers produce the sign items, non-negative powers
the delta items.  Delta items are kept canonical: the accompanying
polynomial is reduced onto the support (a polynomial in x alone) in
closed form, from y = s*(x - u) with u = x - s*y and
u^m delta^(k)(u) = (-1)^m k!/(k-m)! delta^(k-m)(u).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from . import backend as _b
from .algebra import OperatorExpr, require_int
from .errors import EngineError
from .rational import I_POWERS, GaussianRational, _format_scalar


def _ev(i: int, j: int) -> tuple:
    """The core exponent vector of x^i y^j."""
    return tuple((sym, n) for sym, n in ((0, i), (1, j)) if n)


class XYPoly:
    """Exact bivariate polynomial in x and y, a core poly {ev: core scalar}."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[tuple[int, int], object] | None = None):
        t: dict[tuple, tuple] = {}
        for (i, j), c in (terms or {}).items():
            if require_int("x exponent", i) < 0 or require_int("y exponent", j) < 0:
                raise ValueError("negative exponents")
            c = GaussianRational(c).tuple
            if not _b.q_is_zero(c):
                t[_ev(i, j)] = c
        self._t = t

    @classmethod
    def from_terms(cls, terms: dict) -> "XYPoly":
        obj = object.__new__(cls)
        obj._t = {k: c for k, c in terms.items() if not _b.q_is_zero(c)}
        return obj

    @classmethod
    def zero(cls) -> "XYPoly":
        return cls()

    @classmethod
    def monomial(cls, c, i: int, j: int = 0) -> "XYPoly":
        return cls({(i, j): c})

    @classmethod
    def x_minus_y_power(cls, n: int) -> "XYPoly":
        return cls({(n - k, k): (-1) ** k * math.comb(n, k) for k in range(n + 1)})

    @classmethod
    def x_plus_y_power(cls, n: int) -> "XYPoly":
        return cls({(n - k, k): math.comb(n, k) for k in range(n + 1)})

    @property
    def terms(self) -> dict:
        """{(i, j): core scalar}, the coefficient of x^i y^j."""
        out = {}
        for ev, c in self._t.items():
            d = dict(ev)
            out[d.get(0, 0), d.get(1, 0)] = c
        return out

    def is_zero(self) -> bool:
        return not self._t

    def coeff(self, i: int, j: int) -> GaussianRational:
        return GaussianRational.from_tuple(self._t.get(_ev(i, j), _b.Q_ZERO))

    def __eq__(self, other):
        return isinstance(other, XYPoly) and self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __add__(self, other: "XYPoly") -> "XYPoly":
        return XYPoly.from_terms(_b.poly_add(self._t, other._t))

    def __neg__(self) -> "XYPoly":
        return XYPoly.from_terms(_b.poly_neg(self._t))

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        return self + (-other)

    def __mul__(self, other: "XYPoly") -> "XYPoly":
        return XYPoly.from_terms(_b.poly_mul(self._t, other._t))

    def scale(self, c) -> "XYPoly":
        return XYPoly.from_terms(_b.poly_scale(self._t, GaussianRational(c).tuple))

    def conjugate(self) -> "XYPoly":
        return XYPoly.from_terms(_b.poly_conj(self._t))

    def swap(self) -> "XYPoly":
        """x <-> y."""
        return XYPoly.from_terms({_ev(j, i): c for (i, j), c in self.terms.items()})

    def deriv_x(self) -> "XYPoly":
        return XYPoly.from_terms({_ev(i - 1, j): _b.q_mul(c, GaussianRational(i).tuple)
                                  for (i, j), c in self.terms.items() if i > 0})

    def deriv_y(self) -> "XYPoly":
        return XYPoly.from_terms({_ev(i, j - 1): _b.q_mul(c, GaussianRational(j).tuple)
                                  for (i, j), c in self.terms.items() if j > 0})

    def __str__(self):
        if not self._t:
            return "0"
        def key(item):
            (i, j), _ = item
            return (-(i + j), -i)
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=key):
            cs = _format_scalar(c)
            mono = "*".join(s for s in (f"x^{i}" if i else "", f"y^{j}" if j else "") if s)
            if not mono:
                parts.append(f"({cs})")
            else:
                mono = mono.replace("x^1", "x").replace("y^1", "y")
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"XYPoly({self})"


# base keys: ("sign", 0, s) and ("delta", k, s); s=+1 means x - y, s=-1 means x + y
BaseKey = tuple[str, int, int]


def _delta_reduce(kind_k: int, s: int, poly: XYPoly) -> dict[BaseKey, XYPoly]:
    """Reduce poly(x,y) * delta^(k)(x - s*y) onto the support.

    With u = x - s*y, y^j = s^j (x - u)^j, and the (-1)^m of its u^m
    term cancels the one of u^m delta^(k)(u), so in closed form
    c x^i y^j delta^(k) = sum_{m <= min(j,k)} s^j C(j,m) k!/(k-m)!
    c x^(i+j-m) delta^(k-m); the result carries polynomials in x only.
    """
    out: dict[BaseKey, XYPoly] = {}
    for (i, j), c in poly.terms.items():
        n = -1 if s < 0 and j & 1 else 1  # s^j C(j,m) k!/(k-m)! at m = 0
        for m in range(min(j, kind_k) + 1):
            if m:
                n = n * (j - m + 1) * (kind_k - m + 1) // m
            key = ("delta", kind_k - m, s)
            add = XYPoly.from_terms({_ev(i + j - m, 0): _b.q_mul(c, (n, 0, 1))})
            out[key] = out.get(key, XYPoly.zero()) + add
    return {k: v for k, v in out.items() if not v.is_zero()}


class Kernel:
    """Finite sum of sign and (canonical) delta items."""

    __slots__ = ("_items",)

    def __init__(self, items: Mapping[BaseKey, XYPoly] | None = None):
        canon: dict[BaseKey, XYPoly] = {}
        for key, poly in (items or {}).items():
            kind, k, s = key
            if (kind not in ("sign", "delta") or s not in (1, -1)
                    or require_int("derivative order", k) < 0):
                raise ValueError(f"bad kernel base {key}")
            if kind == "sign" and k != 0:
                raise ValueError("sign base carries no derivative order")
            if poly.is_zero():
                continue
            if kind == "delta":
                for rkey, rpoly in _delta_reduce(k, s, poly).items():
                    cur = canon.get(rkey, XYPoly.zero()) + rpoly
                    if cur.is_zero():
                        canon.pop(rkey, None)
                    else:
                        canon[rkey] = cur
            else:
                cur = canon.get(key, XYPoly.zero()) + poly
                if cur.is_zero():
                    canon.pop(key, None)
                else:
                    canon[key] = cur
        self._items = canon

    @classmethod
    def zero(cls) -> "Kernel":
        return cls()

    @property
    def items(self) -> dict[BaseKey, XYPoly]:
        return self._items

    def is_zero(self) -> bool:
        return not self._items

    def __eq__(self, other):
        return isinstance(other, Kernel) and self._items == other._items

    def __hash__(self):
        return hash(frozenset((k, p) for k, p in self._items.items()))

    def __add__(self, other: "Kernel") -> "Kernel":
        out = dict(self._items)
        for k, p in other._items.items():
            cur = out.get(k, XYPoly.zero()) + p
            if cur.is_zero():
                out.pop(k, None)
            else:
                out[k] = cur
        return Kernel(out)

    def __neg__(self) -> "Kernel":
        return Kernel({k: -p for k, p in self._items.items()})

    def __sub__(self, other: "Kernel") -> "Kernel":
        return self + (-other)

    def scale(self, c) -> "Kernel":
        return Kernel({k: p.scale(c) for k, p in self._items.items()})

    def mul_x_poly(self, poly: XYPoly) -> "Kernel":
        return Kernel({k: poly * p for k, p in self._items.items()})

    def conjugate_swap(self) -> "Kernel":
        """Hermitian transpose: conjugate coefficients and swap x <-> y."""
        out: dict[BaseKey, XYPoly] = {}
        for (kind, k, s), poly in self._items.items():
            q = poly.conjugate().swap()
            if s == 1:
                # sign(y-x) = -sign(x-y); delta^(k)(y-x) = (-1)^k delta^(k)(x-y)
                if kind == "sign":
                    q = -q
                else:
                    q = q if k % 2 == 0 else -q
            key = (kind, k, s)
            out[key] = out.get(key, XYPoly.zero()) + q
        return Kernel(out)

    def __str__(self):
        if not self._items:
            return "0"
        def base_str(key):
            kind, k, s = key
            arg = "x-y" if s == 1 else "x+y"
            if kind == "sign":
                return f"sign({arg})"
            return f"delta({arg})" if k == 0 else f"delta^{k}({arg})"
        def order(key):
            kind, k, s = key
            return (0 if kind == "sign" else 1, 0 if s == 1 else 1, k)
        return " + ".join(f"({self._items[k]}) * {base_str(k)}"
                          for k in sorted(self._items, key=order))

    def __repr__(self):
        return f"Kernel({self})"


def sign_kernel(poly: XYPoly, plus: bool = False) -> Kernel:
    return Kernel({("sign", 0, -1 if plus else 1): poly})


def delta_kernel(poly: XYPoly, k: int = 0, plus: bool = False) -> Kernel:
    return Kernel({("delta", k, -1 if plus else 1): poly})


def to_kernel(expr: OperatorExpr) -> Kernel:
    """Position matrix element of a normal-ordered operator.

    x^a p^(-n) contributes x^a * i^n/(2 (n-1)!) (x-y)^(n-1) sign(x-y)
    for n >= 1; x^a p^b with b >= 0 contributes (-i)^b x^a delta^(b)(x-y).
    A parity factor maps y -> -y, turning the bases into x + y.
    Coefficients must be parameter-free.
    """
    out = Kernel.zero()
    for mono, coeff in expr.terms():
        if not coeff.is_constant():
            raise EngineError("kernel mapping needs parameter-free coefficients; "
                              "split the expression by parameters first")
        c = coeff.constant_value()
        a, b, e = mono.xPow, mono.pPow, mono.parity
        xa = XYPoly.monomial(c, a, 0)
        if b < 0:
            n = -b
            pref = I_POWERS[n % 4] * Fraction(1, 2 * math.factorial(n - 1))
            base = XYPoly.x_plus_y_power(n - 1) if e else XYPoly.x_minus_y_power(n - 1)
            out = out + sign_kernel(base.scale(pref), plus=e).mul_x_poly(xa)
        else:
            pref = I_POWERS[-b % 4]
            out = out + delta_kernel(XYPoly.monomial(pref, 0, 0), k=b, plus=e).mul_x_poly(xa)
    return out


def apply_wave_operator(kernel: Kernel) -> Kernel:
    """(-d^2/dx^2 + d^2/dy^2) applied to the kernel.

    This equals the matrix element of the commutator [p^2, A] when the
    kernel is <x|A|y>.
    """
    out = Kernel.zero()
    for (kind, k, s), f in kernel._items.items():
        fx, fy = f.deriv_x(), f.deriv_y()
        fxx, fyy = fx.deriv_x(), fy.deriv_y()
        body = fyy - fxx
        if kind == "sign":
            # d/dx sign(x - s y) = 2 delta(x - s y); d/dy -> 2*(-s) delta
            out = out + Kernel({("sign", 0, s): body})
            # f*delta' contributions cancel between -d_x^2 and +d_y^2
            jump = (fy.scale(-s) - fx).scale(4)  # -4*(f_x + s*f_y)
            out = out + Kernel({("delta", 0, s): jump})
        else:
            out = out + Kernel({("delta", k, s): body})
            step = (fy.scale(-s) - fx).scale(2)
            out = out + Kernel({("delta", k + 1, s): step})
    return out


def kernel_hermitian_residual(kernel: Kernel) -> Kernel:
    """Difference kernel - (conjugate transpose); zero iff Hermitian."""
    return kernel - kernel.conjugate_swap()


def is_hermitian_kernel(kernel: Kernel) -> bool:
    return kernel_hermitian_residual(kernel).is_zero()
