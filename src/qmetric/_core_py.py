"""Pure-Python arithmetic core.

Everything above this layer (GaussianRational, ParamPoly, OperatorExpr)
delegates its inner loops here, through the names re-exported by
qmetric.backend.

Data shapes:

* scalar  -- 4-tuple of ints ``(an, ad, bn, bd)`` meaning an/ad + (bn/bd)*i,
  both fractions reduced, denominators positive.  Zero is (0, 1, 0, 1).
* poly    -- dict mapping exponent vectors to nonzero scalars.  An exponent
  vector is a tuple of (symbol_id, exponent) pairs sorted by symbol_id with
  all exponents > 0; the empty tuple is the constant monomial.
* expr    -- dict mapping operator monomials ``(a, b, e)`` (x-power,
  p-power, parity bit) to nonzero polys.  Normal order is x**a * p**b * P**e.

The product rule that makes expr_mul nontrivial is the normal-ordering
identity  p^b x^a = sum_k C(a,k) (-i)^k ff(b,k) x^(a-k) p^(b-k)  with ff
the falling factorial, valid for negative b as well, together with
P x = -x P,  P p = -p P,  P^2 = 1.
"""

from math import gcd

Q_ZERO = (0, 1, 0, 1)
Q_ONE = (1, 1, 0, 1)


def q_make(an, ad, bn, bd):
    """Normalize a scalar: reduce both fractions, force denominators > 0."""
    if ad < 0:
        an, ad = -an, -ad
    if bd < 0:
        bn, bd = -bn, -bd
    g = gcd(an, ad)
    if g > 1:
        an //= g
        ad //= g
    g = gcd(bn, bd)
    if g > 1:
        bn //= g
        bd //= g
    return (an, ad, bn, bd)


def q_add(u, v):
    an = u[0] * v[1] + v[0] * u[1]
    bn = u[2] * v[3] + v[2] * u[3]
    return q_make(an, u[1] * v[1], bn, u[3] * v[3])


def q_neg(u):
    return (-u[0], u[1], -u[2], u[3])


def q_conj(u):
    return (u[0], u[1], -u[2], u[3])


def q_mul(u, v):
    # (a+bi)(c+di) = (ac - bd) + (ad + bc)i, on fraction pairs.
    re_n = u[0] * v[0] * u[3] * v[3] - u[2] * v[2] * u[1] * v[1]
    im_n = u[0] * v[2] * u[3] * v[1] + u[2] * v[0] * u[1] * v[3]
    den = u[1] * v[1] * u[3] * v[3]
    return q_make(re_n, den, im_n, den)


def q_is_zero(u):
    return u[0] == 0 and u[2] == 0


def ev_mul(e1, e2):
    """Merge two exponent vectors (multiply the parameter monomials)."""
    if not e1:
        return e2
    if not e2:
        return e1
    out = []
    i = j = 0
    n1, n2 = len(e1), len(e2)
    while i < n1 and j < n2:
        s1, x1 = e1[i]
        s2, x2 = e2[j]
        if s1 == s2:
            out.append((s1, x1 + x2))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(e1[i])
            i += 1
        else:
            out.append(e2[j])
            j += 1
    out.extend(e1[i:])
    out.extend(e2[j:])
    return tuple(out)


def poly_add(p1, p2):
    if not p1:
        return dict(p2)
    out = dict(p1)
    for ev, c in p2.items():
        old = out.get(ev)
        if old is None:
            out[ev] = c
        else:
            c = q_add(old, c)
            if c[0] == 0 and c[2] == 0:
                del out[ev]
            else:
                out[ev] = c
    return out


def poly_neg(p):
    return {ev: (-c[0], c[1], -c[2], c[3]) for ev, c in p.items()}


def poly_conj(p):
    # Parameters are real symbols, so conjugation only touches scalars.
    return {ev: (c[0], c[1], -c[2], c[3]) for ev, c in p.items()}


def poly_scale(p, u):
    if u[0] == 0 and u[2] == 0:
        return {}
    return {ev: q_mul(c, u) for ev, c in p.items()}


def poly_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            ev = ev_mul(e1, e2)
            c = q_mul(c1, c2)
            old = out.get(ev)
            if old is not None:
                c = q_add(old, c)
            if c[0] == 0 and c[2] == 0:
                out.pop(ev, None)
            else:
                out[ev] = c
    return out


def expr_add(t1, t2):
    out = {k: dict(p) for k, p in t1.items()}
    expr_add_into(out, t2)
    return out


def expr_add_into(out, t):
    """Add expr t into expr out in place."""
    for k, p in t.items():
        old = out.get(k)
        if old is None:
            out[k] = dict(p)
        else:
            s = poly_add(old, p)
            if s:
                out[k] = s
            else:
                del out[k]


def expr_scale(t, u):
    if u[0] == 0 and u[2] == 0:
        return {}
    return {k: poly_scale(p, u) for k, p in t.items()}


# (-i)^k as scalar components, indexed by k mod 4.
_MINUS_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))


def expr_mul(t1, t2):
    """Normal-ordered product of two exprs."""
    out = {}
    for (a1, b1, e1), p1 in t1.items():
        for (a2, b2, e2), p2 in t2.items():
            sign = -1 if (e1 and ((a2 + b2) & 1)) else 1
            pc = poly_mul(p1, p2)
            if not pc:
                continue
            e = e1 ^ e2
            # coef = C(a2,k) * ff(b1,k), exact integer recurrence
            coef = 1
            for k in range(a2 + 1):
                if k:
                    coef = coef * (a2 - k + 1) * (b1 - k + 1) // k
                    if coef == 0:
                        break
                ur, ui = _MINUS_I_POW[k & 3]
                u = (sign * coef * ur, 1, sign * coef * ui, 1)
                key = (a1 + a2 - k, b1 + b2 - k, e)
                contrib = poly_scale(pc, u)
                old = out.get(key)
                if old is None:
                    out[key] = contrib
                else:
                    s = poly_add(old, contrib)
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return out


def expr_commutator(t1, t2):
    """Normal-ordered commutator t1*t2 - t2*t1.

    Scalars commute, so each monomial pair needs one poly product; the two
    normal-ordering sums share every output key and merge into one
    integer weight per k (the k = 0 weights cancel unless the parity
    signs differ).
    """
    out = {}
    for (a1, b1, e1), p1 in t1.items():
        for (a2, b2, e2), p2 in t2.items():
            # c12 = C(a2,k) ff(b1,k) from m1*m2, c21 = C(a1,k) ff(b2,k)
            # from m2*m1, each carrying its parity sign.
            c12 = -1 if (e1 and ((a2 + b2) & 1)) else 1
            c21 = -1 if (e2 and ((a1 + b1) & 1)) else 1
            pc = None
            e = e1 ^ e2
            for k in range(max(a1, a2) + 1):
                if k:
                    c12 = c12 * (a2 - k + 1) * (b1 - k + 1) // k
                    c21 = c21 * (a1 - k + 1) * (b2 - k + 1) // k
                    if c12 == 0 and c21 == 0:
                        break
                n = c12 - c21
                if n == 0:
                    continue
                if pc is None:
                    pc = poly_mul(p1, p2)
                    if not pc:
                        break
                # n * (-i)^k: real for even k, imaginary for odd k.
                if k & 2:
                    n = -n
                key = (a1 + a2 - k, b1 + b2 - k, e)
                poly = out.get(key)
                if poly is None:
                    poly = out[key] = {}
                for ev, c in pc.items():
                    if k & 1:
                        c = (n * c[2], c[3], -n * c[0], c[1])
                    else:
                        c = (n * c[0], c[1], n * c[2], c[3])
                    old = poly.get(ev)
                    if old is None:
                        poly[ev] = q_make(*c)
                    else:
                        c = q_add(old, c)
                        if c[0] == 0 and c[2] == 0:
                            del poly[ev]
                        else:
                            poly[ev] = c
    return {k: p for k, p in out.items() if p}
