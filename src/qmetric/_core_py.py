"""Pure-Python arithmetic core.

Everything above this layer (GaussianRational, ParamPoly, OperatorExpr)
delegates its inner loops here, through the names re-exported by
qmetric.backend.

Data shapes:

* scalar  -- 3-tuple of ints ``(re, im, den)`` meaning (re + im*i)/den, with
  den > 0 and gcd(re, im, den) = 1, so equal values are equal tuples.
  Zero is (0, 0, 1).  Printed forms reduce each part on the way out.
* poly    -- dict mapping exponent vectors to nonzero scalars.  An exponent
  vector is a tuple of (symbol_id, exponent) pairs sorted by symbol_id with
  all exponents > 0; the empty tuple is the constant monomial.
* expr    -- dict mapping operator monomials ``(a, b, e)`` (x-power,
  p-power, parity bit) to nonzero polys.  Normal order is x**a * p**b * P**e.

The product rule that makes expr_mul nontrivial is the normal-ordering
identity  p^b x^a = sum_k C(a,k) (-i)^k ff(b,k) x^(a-k) p^(b-k)  with ff
the falling factorial, valid for negative b as well, together with
P x = -x P,  P p = -p P,  P^2 = 1.

Products run on integers (the layout of FLINT's fmpq_poly).  expr_mul
and expr_commutator take a list of (t1, t2) operand pairs and return the
sum of their products or commutators, so a sum of many terms is one call
and one reduction; a single product passes a one-element list.  Each
operand is converted once per call to integer numerators over the lcm of
its own denominators, d1 or d2, and every pair is then brought over one
denominator, the lcm of the pairs' d1 d2, by folding the factor
den / (d1 d2) into t1's numerators; poly_mul converts its two polys the
same way and works over d1 d2.  Every term is accumulated with plain int
adds, each surviving output coefficient is then reduced once, by q_make
over that denominator, and zero sums are dropped.  The output is in the
same canonical form as every other scalar above.

expr_mul and expr_commutator work in the rotated frame x = i y, in which
[y, p] = 1 and the cubic i eps x^3 is the real eps y^3.  On entry the
coefficient c of x^a is carried as c i^(-a), and each of its nonzero
parts becomes one entry (id, phase, v) meaning v i^phase: phase 0 for a
real part, 1 for an imaginary one.  A PT-graded coefficient (every
coefficient of a formal derivation) is one entry; a numeric odd-order
kappa_j can give both, and both go through the same loop.  Two entries
multiply to v1 v2 with phase ph1 ^ ph2, negated when both phases are 1.
Since (-i)^k i^k = 1, the normal-ordering weights C(a,k) ff(b,k) become
plain integers, applied to each entry with one multiply-add.  On output
each coefficient is rotated back by i^a of its own x-power.

Weyl symbols.  The nested-commutator table (series.NestedCommutators)
and the solver of [p^2/2, S] = R work on Weyl (symmetrically ordered)
symbols W(x^a p^b) P^e, P kept as a grading, in the same expr dicts.
to_weyl and to_normal convert with
x^a p^b P^e = sum_k (i/2)^k C(a,k) ff(b,k) W(x^(a-k) p^(b-k)) P^e and its
inverse, which has (-i/2)^k; each accumulates integers over one
denominator and reduces each output coefficient once.  A symbol keeps
the coefficient of W(x^a p^b) over 2^a, that is, it is written in powers
of 2x; this takes the 1/2^k out of the Moyal product.  In the rotated
frame, the commutator of W(x^a1 p^b1) P^e1 and W(x^a2 p^b2) P^e2 then
has the integer weight (-1)^k 2 s12 S_k at x^(a1+a2-k) p^(b1+b2-k), with
S_k = sum_j C(a1,j) ff(b2,j) (-1)^(k-j) C(a2,k-j) ff(b1,k-j) and s12,
s21 the parity signs of the two products; only odd k survive when
s12 = s21, only even k otherwise.  So weyl_commutator is the same kernel
with other weights, and far fewer monomial pairs and output slots carry
a nonzero weight than in normal order.  S depends on (a1, b1, a2, b2)
alone, so each weyl_commutator call makes its own weights function
(_moyal_weights), which keeps each S it forms for that call: the up to
four parity variants of a monomial pair, and a pair met again in another
operand pair, share one convolution, and only the sign and the odd or
even selection differ.  Nothing is kept between calls.  On symbols
[p^2/2, .] is -i p d/dx, so weyl_solve_h0 solves term by term, and its
solution is Hermitian when R is anti-Hermitian, which
weyl_is_antihermitian reads off the coefficients; weyl_is_hermitian
reads Hermiticity the same way, with the other part required to vanish.

The solver's output.  h0_commutator_equals checks [p^2/2, S] = R in
normal order on the closed form of each monomial's commutator, sharing
nothing with to_weyl, to_normal or the kernel it checks; poly_real_split
reads off the real amplitudes that strip_x_free takes from a solution.

Weighted sums.  expr_lincomb forms sum w t over a list of (w, t) pairs
with rational weights (a column sum of the nested-commutator table) in
one pass: every term is brought over one denominator, the lcm of the
products of each weight's and each expr's denominator, the terms
accumulate as integer numerators, and each output coefficient is
reduced once, as in the kernels.

Inside one expr_mul or expr_commutator call, every exponent vector gets
a small-int id: the left operands of all pairs share one id space, the
right operands another, and the products a third, whose id is memoized
per (id1, id2) pair, so ev_mul runs once per distinct pair and the
accumulators hash ints.  A monomial pair (a1, b1, e1), (a2, b2, e2) feeds
only outputs x^(a1+a2-k) p^(b1+b2-k) P^(e1^e2), which share b - a and the
parity: the accumulator, shared by all pairs, is one row per (b - a,
parity), a list indexed by x-power whose slots map 2 * product id + phase
to an integer numerator.  Output keys come out in order of first use, the
order a single dict keyed by (a, b, e) would give.
"""

from math import gcd, lcm

Q_ZERO = (0, 0, 1)
Q_ONE = (1, 0, 1)
_INT_ZERO = (0, 0)


def q_make(re, im, den):
    """Normalize (re + im*i)/den: den > 0, one gcd over all three parts."""
    if den < 0:
        re, im, den = -re, -im, -den
    g = gcd(re, im, den)
    if g > 1:
        return (re // g, im // g, den // g)
    return (re, im, den)


def q_add(u, v):
    d1, d2 = u[2], v[2]
    return q_make(u[0] * d2 + v[0] * d1, u[1] * d2 + v[1] * d1, d1 * d2)


def q_neg(u):
    return (-u[0], -u[1], u[2])


def q_conj(u):
    return (u[0], -u[1], u[2])


def q_mul(u, v):
    # (a+bi)(c+di) = (ac - bd) + (ad + bc)i, over the product of the dens.
    a, b, c, d = u[0], u[1], v[0], v[1]
    return q_make(a * c - b * d, a * d + b * c, u[2] * v[2])


def q_is_zero(u):
    return u[0] == 0 and u[1] == 0


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
            if c[0] == 0 and c[1] == 0:
                del out[ev]
            else:
                out[ev] = c
    return out


def poly_neg(p):
    return {ev: (-c[0], -c[1], c[2]) for ev, c in p.items()}


def poly_conj(p):
    # Parameters are real symbols, so conjugation only touches scalars.
    return {ev: (c[0], -c[1], c[2]) for ev, c in p.items()}


def poly_scale(p, u):
    if u[0] == 0 and u[1] == 0:
        return {}
    return {ev: q_mul(c, u) for ev, c in p.items()}


def poly_mul(p1, p2):
    d1, d2 = _common_den((p1,)), _common_den((p2,))
    return _reduce(_int_poly_mul(_to_int(p1, d1), _to_int(p2, d2)), d1 * d2)


def expr_add(t1, t2):
    out = {k: dict(p) for k, p in t1.items()}
    for k, p in t2.items():
        old = out.get(k)
        if old is None:
            out[k] = dict(p)
        else:
            s = poly_add(old, p)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def expr_scale(t, u):
    if u[0] == 0 and u[1] == 0:
        return {}
    return {k: poly_scale(p, u) for k, p in t.items()}


def expr_lincomb(terms):
    """sum of w t over the (w, t) pairs, each weight w a rational (an int
    or a Fraction): every term is brought over one denominator, the lcm
    of the products of each weight's denominator and its expr's, the
    terms accumulate as integer numerators, and each output coefficient
    is reduced once; zero sums are dropped."""
    terms = [(w.numerator, w.denominator, t, _common_den(t.values()))
             for w, t in terms if w and t]
    den = lcm(*(wd * d for _, wd, _, d in terms))
    acc = {}
    for wn, wd, t, d in terms:
        wn *= den // (wd * d)  # the weight's numerator over den // d
        for key, p in t.items():
            slot = acc.get(key)
            if slot is None:
                slot = acc[key] = {}
            get = slot.get
            for ev, (re, im, cd) in p.items():
                f = d // cd * wn
                old = get(ev, _INT_ZERO)
                slot[ev] = (old[0] + re * f, old[1] + im * f)
    out = {}
    for key, slot in acc.items():
        if poly := _reduce(slot, den):
            out[key] = poly
    return out


def _common_den(polys):
    """The lcm of every denominator in the given polys."""
    den = 1
    for p in polys:
        for c in p.values():
            d = c[2]
            if den % d:
                den = den // gcd(den, d) * d
    return den


def _to_int(p, den):
    """Poly p as {ev: (re, im)}, Gaussian-integer numerators over den."""
    return {ev: (c[0] * (f := den // c[2]), c[1] * f) for ev, c in p.items()}


def _reduce(p, den):
    """Integer-numerator poly p over den back to scalars; drops zero sums."""
    return {ev: q_make(re, im, den) for ev, (re, im) in p.items() if re or im}


def _int_poly_mul(p1, p2):
    """Product of two integer-numerator polys; zero sums are kept."""
    out = {}
    for e1, (r1, i1) in p1.items():
        for e2, (r2, i2) in p2.items():
            ev = ev_mul(e1, e2)
            old = out.get(ev, _INT_ZERO)
            out[ev] = (old[0] + r1 * r2 - i1 * i2, old[1] + r1 * i2 + i1 * r2)
    return out


def _product_weights(a1, b1, e1, a2, b2, e2):
    """[(k, n)] with m1*m2 = sum_k n (-i)^k x^(a1+a2-k) p^(b1+b2-k) P^(e1^e2).

    n = C(a2,k) ff(b1,k) times the parity sign, an exact integer recurrence.
    """
    n = -1 if (e1 and ((a2 + b2) & 1)) else 1
    out = [(0, n)]
    for k in range(1, a2 + 1):
        n = n * (a2 - k + 1) * (b1 - k + 1) // k
        if n == 0:
            break
        out.append((k, n))
    return out


def _commutator_weights(a1, b1, e1, a2, b2, e2):
    """The weights of m1*m2 - m2*m1, merged per k.

    Both normal-ordering sums share every output key, so the weights
    subtract (the k = 0 weights cancel unless the parity signs differ).
    """
    # c12 = C(a2,k) ff(b1,k) from m1*m2, c21 = C(a1,k) ff(b2,k) from
    # m2*m1, each carrying its parity sign.
    c12 = -1 if (e1 and ((a2 + b2) & 1)) else 1
    c21 = -1 if (e2 and ((a1 + b1) & 1)) else 1
    out = []
    for k in range(max(a1, a2) + 1):
        if k:
            c12 = c12 * (a2 - k + 1) * (b1 - k + 1) // k
            c21 = c21 * (a1 - k + 1) * (b2 - k + 1) // k
            if c12 == 0 and c21 == 0:
                break
        if c12 != c21:
            out.append((k, c12 - c21))
    return out


def _turn(re, im, t):
    """(re + im i) i^t as a pair, for t in 0..3."""
    if t == 1:
        return -im, re
    if t == 2:
        return -re, -im
    if t == 3:
        return im, -re
    return re, im


def _entries(a, p, den, ids):
    """Poly p, the coefficient of x^a, as [(ev, id, phase, v)] over den.

    The coefficient is carried as c i^(-a) (the y = -i x frame), and each
    nonzero part becomes one entry: v i^phase, phase 0 or 1.  Each new ev
    is given the next id.
    """
    out = []
    for ev, c in p.items():
        i = ids.setdefault(ev, len(ids))
        f = den // c[2]
        re, im = _turn(c[0] * f, c[1] * f, -a & 3)
        if re:
            out.append((ev, i, 0, re))
        if im:
            out.append((ev, i, 1, im))
    return out


def _int_kernel(pairs, weights):
    """sum over the (t1, t2) pairs and their monomial pairs of
    weights(m1, m2) times the poly product, accumulated in integers over
    one denominator and reduced once per output coefficient."""
    pairs = [(t1, t2, _common_den(t1.values()), _common_den(t2.values()))
             for t1, t2 in pairs if t1 and t2]
    den = lcm(*(d1 * d2 for _, _, d1, d2 in pairs))
    ids1, ids2, pids = {}, {}, {}
    work = []
    width = 0
    for t1, t2, _, d2 in pairs:
        # t1's entries sit over den // d2: the factor den // (d1 d2) is
        # folded into them, so every product is a numerator over den.
        d1 = den // d2
        n1 = [(a, b, e, _entries(a, p, d1, ids1)) for (a, b, e), p in t1.items()]
        n2 = []
        for (a, b, e), p in t2.items():
            plain = _entries(a, p, d2, ids2)
            # The same entries times i, paired with phase-1 entries of t1.
            turned = [(ev, i, ph ^ 1, -v if ph else v) for ev, i, ph, v in plain]
            n2.append((a, b, e, (plain, turned)))
        work.append((n1, n2))
        width = max(width, max(t[0] for t in n1) + max(t[0] for t in n2) + 1)
    if not work:
        return {}
    stride = len(ids2)
    memo = [None] * (len(ids1) * stride)  # id1 * stride + id2 -> 2 * product's id
    rows = {}   # 2 (b - a) + parity -> [slot or None] indexed by x-power
    order = []  # (output key, slot) in order of first use
    for n1, n2 in work:
        for a1, b1, e1, p1 in n1:
            for a2, b2, e2, p2 in n2:
                ws = weights(a1, b1, e1, a2, b2, e2)
                if not ws:
                    continue
                pc = {}  # 2 * product id + phase -> integer numerator
                get = pc.get
                for ev1, i1, ph1, v1 in p1:
                    i1 *= stride
                    for ev2, i2, ph, v2 in p2[ph1]:
                        base = memo[i1 + i2]
                        if base is None:
                            base = memo[i1 + i2] = 2 * pids.setdefault(ev_mul(ev1, ev2), len(pids))
                        key = base + ph
                        pc[key] = get(key, 0) + v1 * v2
                pc = pc.items()
                a, b, e = a1 + a2, b1 + b2, e1 ^ e2
                rk = 2 * (b - a) + e
                row = rows.get(rk)
                if row is None:
                    row = rows[rk] = [None] * width
                # In the rotated frame the weights n, normal-ordering or
                # Moyal, are plain integers (see the module docstring).
                for k, n in ws:
                    slot = row[a - k]
                    if slot is None:
                        slot = row[a - k] = {}
                        order.append(((a - k, b - k, e), slot))
                    get = slot.get
                    for key, v in pc:
                        slot[key] = get(key, 0) + n * v
    evs = list(pids)
    out = {}
    for key, slot in order:
        get = slot.get
        t = key[0] & 3  # back to the x frame: times i^a
        poly = {}
        # A product id keeps the place of whichever of its two parts came
        # first; when both are present the second one is skipped.
        for k, v in slot.items():
            w = get(k ^ 1)
            if w is None:
                w = 0
            elif evs[k >> 1] in poly:
                continue
            re, im = (w, v) if k & 1 else (v, w)
            if re or im:
                re, im = _turn(re, im, t)
                poly[evs[k >> 1]] = q_make(re, im, den)
        if poly:
            out[key] = poly
    return out


def expr_mul(pairs):
    """Normal-ordered sum of the products t1*t2 over the (t1, t2) pairs."""
    return _int_kernel(pairs, _product_weights)


def expr_commutator(pairs):
    """Normal-ordered sum of the commutators t1*t2 - t2*t1 over the
    (t1, t2) pairs, one poly product per monomial pair."""
    return _int_kernel(pairs, _commutator_weights)


def _moyal_conv(a1, b1, a2, b2):
    """S = U * V, the convolution of U_j = C(a1,j) ff(b2,j) and
    V_i = (-1)^i C(a2,i) ff(b1,i), each cut before its first zero."""
    u = [1]
    for j in range(1, a1 + 1):
        n = u[-1] * (a1 - j + 1) * (b2 - j + 1) // j
        if not n:
            break
        u.append(n)
    v = [1]
    for i in range(1, a2 + 1):
        n = -v[-1] * (a2 - i + 1) * (b1 - i + 1) // i
        if not n:
            break
        v.append(n)
    if len(u) == 1:
        return v
    if len(v) == 1:
        return u
    conv = [0] * (len(u) + len(v) - 1)
    for j, x in enumerate(u):
        for k, y in enumerate(v, j):
            conv[k] += x * y
    return conv


def _moyal_weights():
    """A fresh weights function for one weyl_commutator call.

    It gives [(k, n)] with [m1, m2] = sum_k n x^(a1+a2-k) p^(b1+b2-k)
    P^(e1^e2) on Weyl symbols in the rotated frame (see the module
    docstring): n = (-1)^k 2 s12 S_k, only odd k when the parity signs s12
    and s21 agree, only even k otherwise.  S depends on (a1, b1, a2, b2)
    alone, so it is kept for the call and the up to four parity variants
    of a monomial pair share one convolution.
    """
    convs = {}
    get = convs.get

    def weights(a1, b1, e1, a2, b2, e2):
        key = (a1, b1, a2, b2)
        conv = get(key)
        if conv is None:
            conv = convs[key] = _moyal_conv(a1, b1, a2, b2)
        s12 = -1 if (e1 and ((a2 + b2) & 1)) else 1
        s21 = -1 if (e2 and ((a1 + b1) & 1)) else 1
        odd = s12 == s21
        two = -2 * s12 if odd else 2 * s12
        return [(k, two * n) for k in range(odd, len(conv), 2) if (n := conv[k])]

    return weights


def weyl_commutator(pairs):
    """Sum of the commutators [t1, t2] over the (t1, t2) pairs of Weyl symbols."""
    return _int_kernel(pairs, _moyal_weights())


def _reorder(t, weyl):
    """Normal-ordered t as a Weyl symbol (weyl true), or the reverse.

    x^a p^b P^e = sum_k (i/2)^k C(a,k) ff(b,k) W(x^(a-k) p^(b-k)) P^e, and
    the inverse has (-i/2)^k.  A symbol keeps the coefficient of W(x^a p^b)
    over 2^a, so the weights are i^k C(a,k) ff(b,k) / 2^a one way and
    (-i)^k C(a,k) ff(b,k) 2^(a-k) the other; every term is accumulated as
    an integer over one denominator and each output reduced once.
    """
    den = _common_den(t.values())
    top = max((a for a, _, _ in t), default=0) if weyl else 0
    acc = {}
    for (a, b, e), p in t.items():
        ints = [(ev, c[0] * (f := den // c[2]), c[1] * f) for ev, c in p.items()]
        n = 1 << (top - a) if weyl else 1 << a
        for k in range(a + 1):
            if k:
                n = n * (a - k + 1) * (b - k + 1) // k
                if not n:
                    break
                if not weyl:
                    n >>= 1
            # The weight is n i^k or n (-i)^k: m or i m.
            m = -n if (k if weyl else -k) & 2 else n
            slot = acc.setdefault((a - k, b - k, e), {})
            get = slot.get
            if k & 1:
                for ev, re, im in ints:
                    old = get(ev, _INT_ZERO)
                    slot[ev] = (old[0] - im * m, old[1] + re * m)
            else:
                for ev, re, im in ints:
                    old = get(ev, _INT_ZERO)
                    slot[ev] = (old[0] + re * m, old[1] + im * m)
    den <<= top
    out = {}
    for key, slot in acc.items():
        if poly := _reduce(slot, den):
            out[key] = poly
    return out


def to_weyl(t):
    """The Weyl symbol of a normal-ordered expr."""
    return _reorder(t, True)


def to_normal(t):
    """The normal-ordered expr of a Weyl symbol."""
    return _reorder(t, False)


def _weyl_part_vanishes(t, part):
    """Whether part `part` (0 real, 1 imaginary) of every coefficient of
    Weyl symbol t is zero, the other part where e = 1 and a + b is odd."""
    for (a, b, e), p in t.items():
        i = part ^ 1 if e and ((a + b) & 1) else part
        for c in p.values():
            if c[i]:
                return False
    return True


def weyl_is_hermitian(t):
    """Whether the operator of Weyl symbol t is Hermitian: W(f)+ =
    W(conj f) and (W(f) P)+ = W(conj f(-x, -p)) P, so every coefficient
    is real, or imaginary where e = 1 and a + b is odd."""
    return _weyl_part_vanishes(t, 1)


def weyl_is_antihermitian(t):
    """Whether the operator of Weyl symbol t is anti-Hermitian: every
    coefficient is imaginary, or real where e = 1 and a + b is odd (see
    weyl_is_hermitian)."""
    return _weyl_part_vanishes(t, 0)


def weyl_solve_h0(t):
    """The solution S of [p^2/2, S] = t on Weyl symbols.

    [p^2/2, W(x^a p^b) P^e] = -i a W(x^(a-1) p^(b+1)) P^e, so each term
    r W(x^a p^b) P^e gives (i r / (a+1)) W(x^(a+1) p^(b-1)) P^e, which is
    i r / (2 (a+1)) in the stored form; S is Hermitian when t is
    anti-Hermitian.
    """
    return {(a + 1, b - 1, e): {ev: q_make(-c[1], c[0], 2 * (a + 1) * c[2])
                                for ev, c in p.items()}
            for (a, b, e), p in t.items()}


def h0_commutator_equals(s, r):
    """Whether [p^2/2, s] = r for normal-ordered exprs s and r, from
    [p^2/2, x^a p^b P^e] = -i a x^(a-1) p^(b+1) P^e - a(a-1)/2 x^(a-2) p^b P^e:
    the terms accumulate as integers over 2 den, den the lcm of s's
    denominators, and each sum is compared with r unreduced, by
    cross-multiplying."""
    den = _common_den(s.values())
    acc = {}
    for (a, b, e), p in s.items():
        # The two weights over 2 den, as (real, imaginary) parts.
        for key, wr, wi in (((a - 1, b + 1, e), 0, -2 * a), ((a - 2, b, e), a - a * a, 0)):
            if not (wr or wi):
                continue
            slot = acc.setdefault(key, {})
            for ev, c in p.items():
                re, im = c[0] * (f := den // c[2]), c[1] * f
                old = slot.get(ev, _INT_ZERO)
                slot[ev] = (old[0] + re * wr - im * wi, old[1] + re * wi + im * wr)
    den *= 2
    for key, slot in acc.items():
        rp = r.get(key, {})
        for ev, (re, im) in slot.items():
            c = rp.get(ev, Q_ZERO)
            if re * c[2] != c[0] * den or im * c[2] != c[1] * den:
                return False
    return all(p.keys() <= acc.get(key, {}).keys() for key, p in r.items())


def poly_real_split(p, t):
    """(Re(p i^-t), i Im(p i^-t) i^t): p is the first times i^t plus the
    second; each nonzero part of a term reads off with one q_make."""
    real, rest = {}, {}
    for ev, c in p.items():
        re, im = _turn(c[0], c[1], -t & 3)
        if re:
            real[ev] = q_make(re, 0, c[2])
        if im:
            rest[ev] = q_make(*_turn(0, im, t & 3), c[2])
    return real, rest
