"""Polynomials in the real metric parameters (l1, k1, l2, k2, ..., alpha).

Coefficients are GaussianRationals; the parameters themselves are real
symbols, so conjugation only conjugates coefficients.  These polynomials
are the scalar ring of OperatorExpr: the derivation can run with the
parameters left formal and specialize later.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import backend as _b
from .rational import GaussianRational

_ALPHA_ID = 1_000_000


def symbol_id(name: str) -> int:
    """Total order of the parameter symbols: l1 < k1 < l2 < k2 < ... < alpha."""
    if name == "alpha":
        return _ALPHA_ID
    m = re.fullmatch(r"([lk])([1-9]\d*)", name)
    if not m:
        raise ValueError(f"unknown parameter symbol {name!r}")
    j = int(m.group(2))
    return 2 * (j - 1) + (0 if m.group(1) == "l" else 1)


def symbol_name(sid: int) -> str:
    if sid == _ALPHA_ID:
        return "alpha"
    j, k = divmod(sid, 2)
    return f"{'lk'[k]}{j + 1}"


def _coerce_scalar(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    raise TypeError(f"cannot use {v!r} as a polynomial coefficient")


class ParamPoly:
    """Immutable multivariate polynomial over the parameter symbols."""

    __slots__ = ("_t",)

    def __init__(self, value=0):
        if isinstance(value, ParamPoly):
            self._t = value._t
        elif isinstance(value, str):
            self._t = parse_poly(value)._t
        else:
            c = _coerce_scalar(value)
            self._t = {} if c.is_zero() else {(): c.tuple}

    @classmethod
    def from_terms(cls, terms: dict) -> "ParamPoly":
        obj = object.__new__(cls)
        obj._t = {ev: c for ev, c in terms.items() if not _b.q_is_zero(c)}
        return obj

    @classmethod
    def symbol(cls, name: str) -> "ParamPoly":
        return cls.from_terms({((symbol_id(name), 1),): _b.Q_ONE})

    @property
    def terms(self) -> dict:
        return self._t

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and () in self._t)

    def constant_value(self) -> GaussianRational:
        """The value when no symbols are present; error otherwise."""
        if not self._t:
            return GaussianRational(0)
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return GaussianRational.from_tuple(self._t[()])

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self._t:
            return -1
        return max(sum(e for _, e in ev) for ev in self._t)

    def symbols(self) -> list[str]:
        seen = {sid for ev in self._t for sid, _ in ev}
        return [symbol_name(s) for s in sorted(seen)]

    def conjugate(self) -> "ParamPoly":
        return ParamPoly.from_terms(_b.poly_conj(self._t))

    def is_real(self) -> bool:
        return all(c[1] == 0 for c in self._t.values())

    def is_imaginary(self) -> bool:
        return all(c[0] == 0 for c in self._t.values())

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamPoly.from_terms(_b.poly_add(self._t, other._t))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly.from_terms(_b.poly_neg(self._t))

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamPoly.from_terms(_b.poly_mul(self._t, other._t))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __bool__(self):
        return bool(self._t)

    def substitute(self, values: dict) -> "ParamPoly":
        """Replace symbols by exact scalars; unlisted symbols stay formal."""
        ids = {symbol_id(k): _coerce_scalar(v).tuple for k, v in values.items()}
        out: dict = {}
        for ev, c in self._t.items():
            kept = []
            for sid, e in ev:
                sub = ids.get(sid)
                if sub is None:
                    kept.append((sid, e))
                else:
                    for _ in range(e):
                        c = _b.q_mul(c, sub)
            key = tuple(kept)
            old = out.get(key)
            c2 = _b.q_add(old, c) if old is not None else c
            if _b.q_is_zero(c2):
                out.pop(key, None)
            else:
                out[key] = c2
        return ParamPoly.from_terms(out)

    def coefficient(self, powers: dict) -> "ParamPoly":
        """Coefficient of the exact parameter monomial given by {name: exp}.

        The remaining symbols (none, for a full split) stay in the result.
        """
        target = tuple(sorted((symbol_id(k), e) for k, e in powers.items() if e))
        out = {}
        tset = dict(target)
        for ev, c in self._t.items():
            rest = []
            hit = True
            matched = 0
            for sid, e in ev:
                want = tset.get(sid)
                if want is None:
                    rest.append((sid, e))
                elif want == e:
                    matched += 1
                else:
                    hit = False
                    break
            if hit and matched == len(target):
                out[tuple(rest)] = c
        return ParamPoly.from_terms(out)

    def __str__(self):
        return format_poly(self, compact=False)

    def __repr__(self):
        return f"ParamPoly({format_poly(self, compact=True)!r})"


def _coerce_poly(v):
    if isinstance(v, ParamPoly):
        return v
    if isinstance(v, (int, Fraction, GaussianRational)):
        return ParamPoly(v)
    return NotImplemented


def _term_sort_key(ev):
    return (-sum(e for _, e in ev), tuple((sid, -e) for sid, e in ev))


def _mono_str(ev) -> str:
    parts = []
    for sid, e in ev:
        name = symbol_name(sid)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: ParamPoly, compact: bool = False) -> str:
    """Canonical text form, graded-lex term order.

    ``compact`` drops the spaces around joiners (used when the polynomial is
    embedded inside parentheses in operator/kernel serializations).
    """
    if p.is_zero():
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    out = []
    for ev in sorted(p.terms, key=_term_sort_key):
        c = GaussianRational.from_tuple(p.terms[ev])
        mono = _mono_str(ev)
        negated = False
        if c.is_real() and c.re < 0:
            c, negated = -c, True
        elif c.is_imaginary() and c.im < 0:
            c, negated = -c, True
        cs = str(c)
        mixed = "+" in cs[1:] or "-" in cs[1:]  # both real and imaginary parts
        if mono:
            if cs == "1":
                body = mono
            else:
                body = f"({cs})*{mono}" if mixed else f"{cs}*{mono}"
        else:
            body = f"({cs})" if mixed else cs
        if not out:
            out.append(("-" if negated else "") + body)
        else:
            out.append((minus if negated else plus) + body)
    return "".join(out)


def _split_top(s: str) -> list[tuple[int, str]]:
    """Split on +/- at paren depth 0; returns (sign, chunk) pairs."""
    chunks = []
    depth = 0
    sign = 1
    cur = []
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if depth == 0 and ch in "+-":
            chunks.append((sign, "".join(cur)))
            sign = -1 if ch == "-" else 1
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    chunks.append((sign, "".join(cur)))
    return chunks


_MONO_FACTOR = re.compile(r"^([a-z]+\d*|alpha)(?:\^(\d+))?$")


def parse_poly(s: str) -> ParamPoly:
    """Inverse of format_poly (accepts both spaced and compact forms)."""
    s = s.replace(" ", "")
    if s in ("", "0"):
        return ParamPoly(0)
    total = ParamPoly(0)
    for sign, chunk in _split_top(s):
        if not chunk:
            raise ValueError(f"empty term in polynomial {s!r}")
        factors = _split_factors(chunk)
        coeff = GaussianRational(1)
        ev: dict[int, int] = {}
        for f in factors:
            if f.startswith("("):
                if not f.endswith(")"):
                    raise ValueError(f"bad factor {f!r}")
                coeff = coeff * GaussianRational(f[1:-1])
                continue
            m = _MONO_FACTOR.match(f)
            if m and (m.group(1) == "alpha" or re.fullmatch(r"[lk][1-9]\d*", m.group(1))):
                power = int(m.group(2) or 1)
                if power:
                    sid = symbol_id(m.group(1))
                    ev[sid] = ev.get(sid, 0) + power
            else:
                coeff = coeff * GaussianRational(f)
        if sign < 0:
            coeff = -coeff
        term = ParamPoly.from_terms({tuple(sorted(ev.items())): coeff.tuple})
        total = total + term
    return total


def _split_factors(chunk: str) -> list[str]:
    out = []
    depth = 0
    cur = []
    for ch in chunk:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            # '*' also appears inside scalar literals like 3/4*i; only split
            # when what follows starts a new factor (letter or '(').
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    # re-join pieces that were really scalar 'rat*i' splits
    merged: list[str] = []
    for piece in out:
        if piece == "i" and merged and re.fullmatch(r"-?\d+(?:/\d+)?", merged[-1]):
            merged[-1] = merged[-1] + "*i"
        else:
            merged.append(piece)
    return merged
