"""Normal-ordered operator algebra on the span of x^a p^b P^e.

Elements are finite sums  sum  c_{abe} * x^a * p^b * P^e  with a >= 0,
b any integer (negative powers of p are honest basis elements here), e in
{0,1} the parity-operator flag, and coefficients in ParamPoly.  Products
are normal ordered through

    p^b x^a = sum_k C(a,k) (-i)^k ff(b,k) x^(a-k) p^(b-k),
    P x^a p^b = (-1)^(a+b) x^a p^b P,   P^2 = 1,

which hold for every integer b (ff is the falling factorial).  The
test suite checks all of this against oracles that share no code with
it: the momentum representation (tests/momentum.py) and a normal-ordered
product modulo a prime (tests/test_modp_oracle.py).
"""

from __future__ import annotations

from fractions import Fraction

from . import backend as _b
from .params import ParamPoly, format_poly, parse_poly
from .rational import GaussianRational


def require_int(name: str, v) -> int:
    """v itself if it is an int; TypeError for a bool or any other type."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{name} must be an int, got {v!r}")
    return v


class Monomial:
    """View of a single basis word x^a p^b P^e."""

    __slots__ = ("xPow", "pPow", "parity")

    def __init__(self, xPow: int, pPow: int, parity: bool = False):
        if require_int("x power", xPow) < 0:
            raise ValueError("negative x powers are not in the algebra")
        self.xPow = xPow
        self.pPow = require_int("p power", pPow)
        self.parity = bool(parity)

    @property
    def key(self):
        return (self.xPow, self.pPow, 1 if self.parity else 0)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        return _mono_str(*self.key)

    def __repr__(self):
        return f"Monomial({self.xPow}, {self.pPow}, parity={self.parity})"


def _mono_str(a: int, b: int, e: int) -> str:
    parts = []
    if a == 1:
        parts.append("x")
    elif a:
        parts.append(f"x^{a}")
    if b == 1:
        parts.append("p")
    elif b:
        parts.append(f"p^{b}")
    if e:
        parts.append("P")
    return "*".join(parts) if parts else "1"


def _coerce_coeff(c) -> ParamPoly:
    if isinstance(c, ParamPoly):
        return c
    return ParamPoly(c)


class OperatorExpr:
    """Normal-ordered operator polynomial with ParamPoly coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        if terms is None:
            self._t = {}
        elif isinstance(terms, OperatorExpr):
            self._t = terms._t
        elif isinstance(terms, str):
            self._t = parse_expr(terms)._t
        else:
            raise TypeError("use the named constructors")

    @classmethod
    def from_raw(cls, t: dict) -> "OperatorExpr":
        obj = object.__new__(cls)
        obj._t = {k: p for k, p in t.items() if p}
        return obj

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls.from_raw({})

    @classmethod
    def monomial(cls, coeff, xPow: int = 0, pPow: int = 0, parity: bool = False) -> "OperatorExpr":
        if require_int("x power", xPow) < 0:
            raise ValueError("negative x powers are not in the algebra")
        require_int("p power", pPow)
        poly = _coerce_coeff(coeff)
        if poly.is_zero():
            return cls.zero()
        return cls.from_raw({(xPow, pPow, 1 if parity else 0): poly.terms})

    @classmethod
    def one(cls) -> "OperatorExpr":
        return cls.monomial(1)

    @classmethod
    def x_power(cls, a: int) -> "OperatorExpr":
        return cls.monomial(1, xPow=a)

    @classmethod
    def p_power(cls, b: int) -> "OperatorExpr":
        return cls.monomial(1, pPow=b)

    @classmethod
    def parity_op(cls) -> "OperatorExpr":
        return cls.monomial(1, parity=True)

    @property
    def raw(self) -> dict:
        return self._t

    def terms(self) -> list[tuple[Monomial, ParamPoly]]:
        out = []
        for (a, b, e) in sorted(self._t, key=lambda k: (k[2], -k[0], -k[1])):
            out.append((Monomial(a, b, bool(e)), ParamPoly.from_terms(self._t[(a, b, e)])))
        return out

    def coefficient(self, xPow: int, pPow: int, parity: bool = False) -> ParamPoly:
        p = self._t.get((xPow, pPow, 1 if parity else 0))
        return ParamPoly.from_terms(p) if p else ParamPoly(0)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset((k, frozenset(p.items())) for k, p in self._t.items()))

    def __add__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return OperatorExpr.from_raw(_b.expr_add(self._t, other._t))

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr.from_raw({k: _b.poly_neg(p) for k, p in self._t.items()})

    def __sub__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return self.scale(other)
        if isinstance(other, OperatorExpr):
            return OperatorExpr.from_raw(_b.expr_mul([(self._t, other._t)]))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return self.scale(other)  # scalars commute with everything
        return NotImplemented

    def scale(self, c) -> "OperatorExpr":
        poly = _coerce_coeff(c)
        if poly.is_zero():
            return OperatorExpr.zero()
        if poly.is_constant():
            return OperatorExpr.from_raw(_b.expr_scale(self._t, poly.constant_value().tuple))
        out: dict = {}
        for k, p in self._t.items():
            prod = _b.poly_mul(p, poly.terms)
            if prod:
                out[k] = prod
        return OperatorExpr.from_raw(out)

    def adjoint(self) -> "OperatorExpr":
        """Hermitian adjoint; (x^a p^b P^e)+ = P^e p^b x^a, reordered.

        Internally monomials keep P rightmost, so commuting P^e back across
        p^b costs (-1)^(b*e).  Monomials sharing the x-power a are grouped
        into one left operand of a product with x^a, and the sum over the
        x-powers is one expr_mul call.
        """
        by_x: dict = {}
        for (a, b, e), p in self._t.items():
            cp = _b.poly_conj(p)
            if e and (b & 1):
                cp = _b.poly_neg(cp)
            by_x.setdefault(a, {})[(0, b, e)] = cp
        return OperatorExpr.from_raw(_b.expr_mul(
            [(left, {(a, 0, 0): {(): _b.Q_ONE}}) for a, left in by_x.items()]))

    def is_hermitian(self) -> bool:
        return self == self.adjoint()

    def is_antihermitian(self) -> bool:
        return self.adjoint() == -self

    def substitute(self, values: dict) -> "OperatorExpr":
        out: dict = {}
        for k, p in self._t.items():
            sub = ParamPoly.from_terms(p).substitute(values)
            if not sub.is_zero():
                out[k] = sub.terms
        return OperatorExpr.from_raw(out)

    def param_split(self, names: list[str]) -> dict[tuple[int, ...], "OperatorExpr"]:
        """Collect by powers of the given symbols: {(e1,..,en): coefficient expr}."""
        from .params import symbol_id

        ids = [symbol_id(n) for n in names]
        pos = {sid: i for i, sid in enumerate(ids)}
        out: dict[tuple[int, ...], dict] = {}
        for k, p in self._t.items():
            for ev, c in p.items():
                powers = [0] * len(ids)
                rest = []
                for sid, e in ev:
                    if sid in pos:
                        powers[pos[sid]] = e
                    else:
                        rest.append((sid, e))
                bucket = out.setdefault(tuple(powers), {})
                poly = bucket.setdefault(k, {})
                key = tuple(rest)
                old = poly.get(key)
                c2 = _b.q_add(old, c) if old is not None else c
                if _b.q_is_zero(c2):
                    poly.pop(key, None)
                else:
                    poly[key] = c2
        return {
            pw: OperatorExpr.from_raw({k: p for k, p in t.items() if p})
            for pw, t in out.items()
        }

    def __str__(self):
        return serialize_expr(self)

    def __repr__(self):
        return f"<OperatorExpr {serialize_expr(self)}>"


def _coerce_expr(v):
    if isinstance(v, OperatorExpr):
        return v
    if isinstance(v, (int, Fraction, GaussianRational, ParamPoly)):
        return OperatorExpr.monomial(v)
    return NotImplemented


# Fixed pieces of the model Hamiltonian H = p^2/2 + i eps x^3.
def h0() -> OperatorExpr:
    return OperatorExpr.monomial(Fraction(1, 2), pPow=2)


def h1() -> OperatorExpr:
    return OperatorExpr.monomial(GaussianRational(0, 1), xPow=3)


def commutator(a: OperatorExpr, b: OperatorExpr, k: int = 1) -> OperatorExpr:
    """Nested commutator [a, b]_k = [[...[a,b],b...],b] (k times)."""
    if require_int("commutator nesting", k) < 0:
        raise ValueError("commutator nesting must be >= 0")
    out = a
    for _ in range(k):
        out = commutator_sum([(out, b)])
    return out


def commutator_sum(pairs) -> OperatorExpr:
    """sum of [a, b] over the (a, b) pairs, in one kernel call."""
    return OperatorExpr.from_raw(_b.expr_commutator([(a._t, b._t) for a, b in pairs]))


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b + b * a


def symmetric_form(expr: OperatorExpr) -> list[tuple[int, int, bool, ParamPoly]]:
    """Rewrite in the anticommutator basis.

    Returns items (g, b, parity, s) meaning s*{x^g, p^b}[*P] for g >= 1 and
    s*p^b[*P] for g == 0.  The decomposition exists and is unique for every
    element (triangular elimination in descending x-degree); Hermitian input
    shows up as the usual reality pattern of the s coefficients.
    """
    residual = dict(expr.raw)
    items: list[tuple[int, int, bool, ParamPoly]] = []
    while residual:
        a, b, e = max(residual, key=lambda k: (k[0], k[1], k[2]))
        poly = ParamPoly.from_terms(residual[(a, b, e)])
        if a == 0:
            items.append((0, b, bool(e), poly))
            del residual[(a, b, e)]
            continue
        s = poly * Fraction(1, 2)
        one = {(): _b.Q_ONE}
        basis = _b.expr_mul([({(a, 0, 0): one}, {(0, b, e): one}),
                             ({(0, b, 0): one}, {(a, 0, e): one})])
        items.append((a, b, bool(e), s))
        scaled = {k: _b.poly_mul(p, s.terms) for k, p in basis.items()}
        residual = _b.expr_add(residual, {k: _b.poly_neg(p) for k, p in scaled.items() if p})
    items.sort(key=lambda it: (it[2], -it[0], -it[1]))
    return items


def from_symmetric_form(items) -> OperatorExpr:
    """Inverse of symmetric_form (expand the anticommutator basis)."""
    total = OperatorExpr.zero()
    for g, b, parity, s in items:
        pb = OperatorExpr.monomial(1, pPow=b, parity=parity)
        if g == 0:
            total = total + pb.scale(s)
        else:
            # item means ({x^g, p^b}) * P: the parity factor sits outside
            xg = OperatorExpr.x_power(g)
            pb_plain = OperatorExpr.monomial(1, pPow=b)
            ac = anticommutator(xg, pb_plain)
            if parity:
                ac = ac * OperatorExpr.parity_op()
            total = total + ac.scale(s)
    return total


def scaling_degree(expr: OperatorExpr):
    """Degree under x -> x/l, p -> l p; int if homogeneous, else sorted list."""
    degs = sorted({b - a for (a, b, _e) in expr.raw})
    if not degs:
        return 0
    if len(degs) == 1:
        return degs[0]
    return degs


def serialize_expr(expr: OperatorExpr) -> str:
    """Canonical text: terms sorted by (parity, x-power desc, p-power desc)."""
    if expr.is_zero():
        return "0"
    parts = []
    for (a, b, e) in sorted(expr.raw, key=lambda k: (k[2], -k[0], -k[1])):
        poly = ParamPoly.from_terms(expr.raw[(a, b, e)])
        coeff = f"({format_poly(poly, compact=True)})"
        mono = _mono_str(a, b, e)
        parts.append(coeff if mono == "1" else f"{coeff}*{mono}")
    return " + ".join(parts)


def parse_expr(s: str) -> OperatorExpr:
    """Inverse of serialize_expr."""
    s = s.replace(" ", "")
    if s in ("", "0"):
        return OperatorExpr.zero()
    total: dict = {}
    for sign, chunk in _split_plus(s):
        poly, factors = _take_paren(chunk)
        coeff = parse_poly(poly)
        if sign < 0:
            coeff = -coeff
        a = b = e = 0
        for f in factors:
            if f == "P":
                e ^= 1
            elif f == "x":
                a += 1
            elif f == "p":
                b += 1
            elif f.startswith("x^"):
                a += int(f[2:])
            elif f.startswith("p^"):
                b += int(f[2:])
            else:
                raise ValueError(f"bad operator factor {f!r}")
        term = OperatorExpr.monomial(coeff, a, b, bool(e))
        total = _b.expr_add(total, term.raw)
    return OperatorExpr.from_raw(total)


def _split_plus(s: str):
    out = []
    depth = 0
    cur = []
    sign = 1
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            out.append((sign, "".join(cur)))
            cur = []
            sign = 1
        else:
            cur.append(ch)
    out.append((sign, "".join(cur)))
    return out


def _take_paren(chunk: str):
    if not chunk.startswith("("):
        raise ValueError(f"operator term must start with a coefficient: {chunk!r}")
    depth = 0
    for i, ch in enumerate(chunk):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                inner = chunk[1:i]
                rest = chunk[i + 1 :]
                if rest.startswith("*"):
                    rest = rest[1:]
                factors = [f for f in rest.split("*") if f] if rest else []
                return inner, factors
    raise ValueError(f"unbalanced parentheses in {chunk!r}")
