"""The product and commutator kernels against a reference product on
Fraction pairs, plus the kernel identities, the sums over pair lists,
the grouped adjoint, the weighted sums, and the Weyl-symbol layer: the
conversions, the Moyal commutator, the Hermiticity tests and the solver,
and the closed-form round trip [p^2/2, S] = R that checks the solver."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmetric import _core_py as core
from qmetric.algebra import OperatorExpr, commutator, h0
from qmetric.params import ParamPoly
from qmetric.rational import GaussianRational

ints = st.integers(-999, 999)
dens = st.integers(1, 99)


# -- a reference normal-ordered product that shares no code with the core --

def _as_pairs(t):
    """Core expr -> {mono: {ev: (Fraction re, Fraction im)}}."""
    return {k: {ev: (Fraction(c[0], c[2]), Fraction(c[1], c[2]))
                for ev, c in p.items()} for k, p in t.items()}


def _as_core(t):
    """Reference expr -> core expr, zeros and empty polys dropped."""
    out = {}
    for k, p in t.items():
        poly = {ev: _gauss(re, im) for ev, (re, im) in p.items() if re or im}
        if poly:
            out[k] = poly
    return out


def _merge_ev(e1, e2):
    powers = dict(e1)
    for sid, x in e2:
        powers[sid] = powers.get(sid, 0) + x
    return tuple(sorted(powers.items()))


def _ref_accumulate(out, t1, t2, sign):
    """out += sign * t1 * t2, from p^b x^a = sum_k C(a,k) (-i)^k ff(b,k)
    x^(a-k) p^(b-k) and P x^a p^b = (-1)^(a+b) x^a p^b P."""
    for (a1, b1, e1), p1 in t1.items():
        for (a2, b2, e2), p2 in t2.items():
            parity = -1 if e1 and (a2 + b2) % 2 else 1
            for k in range(a2 + 1):
                w = sign * parity * math.comb(a2, k) * math.prod(b1 - j for j in range(k))
                wr, wi = [(w, 0), (0, -w), (-w, 0), (0, w)][k % 4]
                poly = out.setdefault((a1 + a2 - k, b1 + b2 - k, e1 ^ e2), {})
                for ev1, (r1, i1) in p1.items():
                    for ev2, (r2, i2) in p2.items():
                        cr, ci = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                        ev = _merge_ev(ev1, ev2)
                        re, im = poly.get(ev, (0, 0))
                        poly[ev] = (re + cr * wr - ci * wi, im + cr * wi + ci * wr)


def ref_mul(t1, t2):
    out = {}
    _ref_accumulate(out, _as_pairs(t1), _as_pairs(t2), 1)
    return _as_core(out)


def ref_commutator(t1, t2):
    out = {}
    _ref_accumulate(out, _as_pairs(t1), _as_pairs(t2), 1)
    _ref_accumulate(out, _as_pairs(t2), _as_pairs(t1), -1)
    return _as_core(out)


def _gauss(re, im):
    """Fractions re, im -> the core scalar (re + im i) over their lcm denominator."""
    den = math.lcm(re.denominator, im.denominator)
    return (int(re * den), int(im * den), den)


def assert_canonical(t):
    for (a, b, e), poly in t.items():
        assert a >= 0 and e in (0, 1)
        assert poly, "empty poly"
        for ev, (re, im, den) in poly.items():
            assert list(ev) == sorted(ev) and all(x > 0 for _, x in ev)
            assert den > 0
            assert math.gcd(re, im, den) == 1
            assert re or im, "zero scalar"


def _snapshot(t):
    return {k: dict(p) for k, p in t.items()}


# -- strategies ---------------------------------------------------------------

@st.composite
def scalars(draw):
    return _gauss(Fraction(draw(ints), draw(dens)), Fraction(draw(ints), draw(dens)))


@st.composite
def polys(draw):
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        ev = tuple(sorted({draw(st.integers(0, 5)): draw(st.integers(1, 3))
                           for _ in range(draw(st.integers(0, 2)))}.items()))
        c = draw(scalars())
        if c[0] or c[1]:
            out[ev] = c
    return out


@st.composite
def op_tables(draw):
    """Exprs with parity flags and negative p powers."""
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        key = (draw(st.integers(0, 4)), draw(st.integers(-4, 4)),
               draw(st.integers(0, 1)))
        p = draw(polys())
        if p:
            out[key] = p
    return out


fracs = st.builds(Fraction, ints.filter(bool), dens)


@st.composite
def cancelling_pairs(draw):
    """g (c1 l1 + c2 l2) m1 and h (c3 l1 + c4 l2) m2 with c4 = -c2 c3 / c1:
    the l1 l2 term of every product poly cancels exactly."""
    c1, c2, c3 = draw(fracs), draw(fracs), draw(fracs)
    c4 = -c2 * c3 / c1
    out = []
    for x, y in ((c1, c2), (c3, c4)):
        gr, gi = draw(fracs), draw(fracs)
        key = (draw(st.integers(0, 4)), draw(st.integers(-4, 4)),
               draw(st.integers(0, 1)))
        out.append({key: {((0, 1),): _gauss(gr * x, gi * x),
                          ((1, 1),): _gauss(gr * y, gi * y)}})
    return tuple(out)


exponent_vectors = st.dictionaries(st.integers(0, 3), st.integers(1, 2), max_size=2).map(
    lambda powers: tuple(sorted(powers.items())))


@st.composite
def wide_pairs(draw):
    """Two exprs with x powers up to 12 and p powers down to -30 (long
    weight lists and long rows), both parities, and polys of one or
    several terms drawn from one shared pool of parameter monomials, so
    products of different term pairs land on the same output term."""
    pool = draw(st.lists(exponent_vectors, min_size=1, max_size=4, unique=True))

    def table():
        out = {}
        for _ in range(draw(st.integers(1, 5))):
            key = (draw(st.integers(0, 12)), draw(st.integers(-30, 6)),
                   draw(st.integers(0, 1)))
            evs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
            poly = {ev: c for ev in evs if (c := draw(scalars()))[0] or c[1]}
            if poly:
                out[key] = poly
        return out

    return table(), table()


pairs = st.tuples(op_tables(), op_tables()) | cancelling_pairs() | wide_pairs()
CROSS = ((0, 1), (1, 1))


# -- properties ---------------------------------------------------------------

@settings(deadline=None)
@given(pairs)
def test_product_matches_reference(pair):
    a, b = pair
    before = (_snapshot(a), _snapshot(b))
    got = core.expr_mul([(a, b)])
    assert got == ref_mul(a, b)
    assert_canonical(got)
    assert (a, b) == before


@settings(deadline=None)
@given(pairs)
def test_commutator_matches_reference(pair):
    a, b = pair
    before = (_snapshot(a), _snapshot(b))
    got = core.expr_commutator([(a, b)])
    assert got == ref_commutator(a, b)
    assert_canonical(got)
    assert (a, b) == before


@given(cancelling_pairs())
def test_cancelled_terms_are_dropped(pair):
    a, b = pair
    for t in (core.expr_mul([(a, b)]), core.expr_commutator([(a, b)]),
              {(0, 0, 0): core.poly_mul(*a.values(), *b.values())}):
        assert all(CROSS not in p for p in t.values())


@given(op_tables(), polys())
def test_commutator_with_own_multiple_vanishes(a, f):
    # [a, f a] = f [a, a] = 0 for a scalar polynomial f: every output
    # coefficient must cancel exactly, whatever the denominators.
    fa = {k: core.poly_mul(p, f) for k, p in a.items()}
    assert core.expr_commutator([(a, {k: p for k, p in fa.items() if p})]) == {}


# Both parts nonzero, so every phase pair (real or imaginary times real
# or imaginary) meets the rotation by i^(-a) at every residue of a mod 4.
# (21 - 10 i)/35 = 3/5 - 2/7 i and (-3 + 10 i)/6 = -1/2 + 5/3 i.
BOTH = {((0, 1),): (21, -10, 35), (): (-3, 10, 6)}
ONE_PART = {((1, 2),): (0, 4, 11), ((0, 1), (1, 1)): (-7, 0, 4)}


@pytest.mark.parametrize("r1", range(4))
@pytest.mark.parametrize("r2", range(4))
def test_rotation_residues_match_reference(r1, r2):
    a = {(r1, -3, 0): BOTH, (r1 + 4, 2, 1): ONE_PART, (r1 + 1, 1, 0): BOTH}
    b = {(r2, 1, 1): BOTH, (r2 + 4, -2, 0): BOTH, (r2 + 2, 0, 0): ONE_PART}
    for t1, t2 in ((a, b), (b, a)):
        got = core.expr_mul([(t1, t2)])
        assert got == ref_mul(t1, t2)
        assert_canonical(got)
        got = core.expr_commutator([(t1, t2)])
        assert got == ref_commutator(t1, t2)
        assert_canonical(got)


def _minus(t1, t2):
    return core.expr_add(t1, core.expr_scale(t2, (-1, 0, 1)))


@given(op_tables(), op_tables())
def test_commutator_matches_two_products(a, b):
    assert core.expr_commutator([(a, b)]) == _minus(core.expr_mul([(a, b)]),
                                                    core.expr_mul([(b, a)]))


KERNELS = (core.expr_mul, core.expr_commutator)


def _one_pair_sum(kernel, pair_list):
    """The sum of the one-pair calls, merged with expr_add."""
    out = {}
    for a, b in pair_list:
        out = core.expr_add(out, kernel([(a, b)]))
    return out


def _negated_rescaled(pair, s):
    """(s a, -b / s): its product and commutator are minus those of (a, b),
    with other denominators."""
    a, b = pair
    return (core.expr_scale(a, _gauss(s, Fraction(0))),
            core.expr_scale(b, _gauss(-1 / s, Fraction(0))))


@settings(deadline=None)
@given(st.lists(pairs, max_size=4), st.data())
def test_pair_lists_sum_their_one_pair_calls(pair_list, data):
    # Opposite copies make parts of the sum, or all of it, cancel across
    # pairs whose operands sit over different denominators.
    for pair in list(pair_list):
        if data.draw(st.booleans()):
            pair_list.append(_negated_rescaled(pair, data.draw(fracs)))
    before = [(_snapshot(a), _snapshot(b)) for a, b in pair_list]
    for kernel in KERNELS:
        got = kernel(pair_list)
        assert got == _one_pair_sum(kernel, pair_list), kernel.__name__
        assert_canonical(got)
    assert pair_list == before


@given(pairs, fracs)
def test_opposite_pairs_sum_to_zero(pair, s):
    for kernel in KERNELS:
        assert kernel([pair, _negated_rescaled(pair, s)]) == {}, kernel.__name__


def test_empty_pair_list_is_zero():
    for kernel in KERNELS:
        assert kernel([]) == {}
        assert kernel([({}, {(0, 1, 0): {(): core.Q_ONE}})]) == {}


def _adjoint_by_monomial(t):
    """The adjoint as one product and one sum per monomial."""
    out = {}
    for (a, b, e), p in t.items():
        cp = core.poly_conj(p)
        if e and (b & 1):
            cp = core.poly_neg(cp)
        out = core.expr_add(out, core.expr_mul([({(0, b, e): cp},
                                                 {(a, 0, 0): {(): core.Q_ONE}})]))
    return out


@given(op_tables())
def test_adjoint_matches_per_monomial_products(a):
    assert OperatorExpr.from_raw(a).adjoint().raw == _adjoint_by_monomial(a)


def ref_solve(r):
    """The solver's former elimination, one ParamPoly step per term: the
    term c x^a p^b P^e of the work list gives (i c / (a+1)) x^(a+1)
    p^(b-1) P^e and leaves its remainder at x^(a-1) p^(b-1) P^e."""
    work = {m.key: c for m, c in OperatorExpr.from_raw(r).terms()}
    sol = OperatorExpr.zero()
    while work:
        a = max(key[0] for key in work)
        for key in [k for k in work if k[0] == a]:
            _, b, e = key
            c = work.pop(key)
            gamma = c * ParamPoly(GaussianRational(0, Fraction(1, a + 1)))
            sol = sol + OperatorExpr.monomial(gamma, a + 1, b - 1, bool(e))
            if a >= 1:
                rem_key = (a - 1, b - 1, e)
                rem = gamma * ParamPoly(Fraction(a * (a + 1), 2))
                nxt = work.get(rem_key, ParamPoly(0)) + rem
                if nxt.is_zero():
                    work.pop(rem_key, None)
                else:
                    work[rem_key] = nxt
    return sol.raw


@settings(deadline=None)
@given(op_tables() | wide_pairs().map(lambda pair: pair[0]))
def test_weyl_solver_matches_reference(a):
    # R = A - A+ is anti-Hermitian, as every source term is; A draws
    # coefficients with both parts over several symbols, parity terms
    # and negative p powers.  Two Hermitian solutions differ by an
    # x-free operator, so the x-carrying terms must match the Hermitian
    # part of the reference elimination.
    expr = OperatorExpr.from_raw(a)
    r = (expr - expr.adjoint()).raw
    before = _snapshot(r)
    symbol = core.weyl_solve_h0(core.to_weyl(r))
    assert_canonical(symbol)
    got = core.to_normal(symbol)
    assert_canonical(got)
    assert r == before
    assert core.expr_commutator([({(0, 2, 0): {(): (1, 0, 2)}}, got)]) == r
    assert OperatorExpr.from_raw(got).is_hermitian()
    ref = OperatorExpr.from_raw(ref_solve(r))
    ref = (ref + ref.adjoint()).scale(Fraction(1, 2)).raw
    assert ({k: p for k, p in got.items() if k[0]}
            == {k: p for k, p in ref.items() if k[0]})


# -- Weyl symbols ---------------------------------------------------------------

def test_weyl_symbol_of_xp():
    # x p = W(x p) + (i/2) W(1), and the coefficient of W(x^a p^b) is
    # kept over 2^a.
    xp = {(1, 1, 0): {(): core.Q_ONE}}
    assert core.to_weyl(xp) == {(1, 1, 0): {(): (1, 0, 2)}, (0, 0, 0): {(): (0, 1, 2)}}


@settings(deadline=None)
@given(op_tables() | wide_pairs().map(lambda pair: pair[0]))
def test_weyl_conversions_are_inverse(a):
    before = _snapshot(a)
    symbol = core.to_weyl(a)
    assert_canonical(symbol)
    assert core.to_normal(symbol) == a
    back = core.to_normal(a)
    assert_canonical(back)
    assert core.to_weyl(back) == a
    assert a == before


@settings(deadline=None)
@given(pairs)
def test_moyal_commutator_matches_normal_order(pair):
    a, b = pair
    got = core.weyl_commutator([(core.to_weyl(a), core.to_weyl(b))])
    assert_canonical(got)
    assert core.to_normal(got) == core.expr_commutator([(a, b)])


def _direct_moyal_weights(a1, b1, e1, a2, b2, e2):
    """(-1)^k 2 s12 S_k, S_k = sum_j C(a1,j) ff(b2,j) (-1)^(k-j) C(a2,k-j)
    ff(b1,k-j) summed term by term; odd k when s12 = s21, even k otherwise."""
    s12 = -1 if e1 and (a2 + b2) % 2 else 1
    s21 = -1 if e2 and (a1 + b1) % 2 else 1
    out = []
    for k in range(1 if s12 == s21 else 0, a1 + a2 + 1, 2):
        s = sum(math.comb(a1, j) * math.prod(b2 - i for i in range(j))
                * (-1) ** (k - j) * math.comb(a2, k - j) * math.prod(b1 - i for i in range(k - j))
                for j in range(k + 1))
        if s:
            out.append((k, (-1) ** k * 2 * s12 * s))
    return out


def test_moyal_weights_match_direct_sum():
    # One weights function serves a whole weyl_commutator call and keeps
    # S per (a1, b1, a2, b2), shared by the parity variants of a pair.
    # Every pair of the box meets one function with all four variants,
    # in both operand orders, with the box walked forward and backward,
    # so a key that dropped a coordinate would hand out another pair's S.
    parities = [(0, 0), (0, 1), (1, 0), (1, 1)]
    box = [(a1, b1, a2, b2) for a1 in range(7) for b1 in range(-4, 5)
           for a2 in range(7) for b2 in range(-4, 5)]
    want = {(a1, b1, e1, a2, b2, e2): _direct_moyal_weights(a1, b1, e1, a2, b2, e2)
            for a1, b1, a2, b2 in box for e1, e2 in parities}
    for walk in (box, box[::-1]):
        weights = core._moyal_weights()
        for a1, b1, a2, b2 in walk:
            for e1, e2 in parities:
                for args in ((a1, b1, e1, a2, b2, e2), (a2, b2, e2, a1, b1, e1)):
                    assert weights(*args) == want[args], args


@settings(deadline=None)
@given(op_tables() | wide_pairs().map(lambda pair: pair[0]))
def test_weyl_antihermiticity_matches_adjoint(a):
    expr = OperatorExpr.from_raw(a)
    for t in (expr, expr - expr.adjoint(), expr + expr.adjoint()):
        assert core.weyl_is_antihermitian(core.to_weyl(t.raw)) == t.is_antihermitian()


@settings(deadline=None)
@given(op_tables() | wide_pairs().map(lambda pair: pair[0]))
def test_weyl_hermiticity_matches_adjoint(a):
    expr = OperatorExpr.from_raw(a)
    for t in (expr, expr + expr.adjoint(), expr - expr.adjoint()):
        assert core.weyl_is_hermitian(core.to_weyl(t.raw)) == t.is_hermitian()


# -- the closed-form round trip [p^2/2, S] = R -----------------------------------

nonzero_scalars = scalars().filter(lambda c: c[0] or c[1])


def _h0_round_trip_misses(s, data):
    """R = [H0, S] through the general kernel, then R with one coefficient
    changed, one term dropped and one term added."""
    r = commutator(h0(), OperatorExpr.from_raw(s)).raw
    out = []
    if r:
        key = data.draw(st.sampled_from(sorted(r)))
        ev = data.draw(st.sampled_from(sorted(r[key])))
        changed = _snapshot(r)
        c = core.q_add(changed[key][ev], data.draw(nonzero_scalars))
        if c[0] or c[1]:
            changed[key][ev] = c
        else:  # the change cancelled the term
            del changed[key][ev]
        dropped = _snapshot(r)
        del dropped[key][ev]
        out += [changed, dropped]
    added = _snapshot(r)
    key = (data.draw(st.integers(0, 14)), data.draw(st.integers(-32, 8)),
           data.draw(st.integers(0, 1)))
    added.setdefault(key, {})[((7, 1),)] = data.draw(nonzero_scalars)  # symbol 7 is never drawn
    return r, [{k: p for k, p in t.items() if p} for t in out + [added]]


@settings(deadline=None)
@given(op_tables() | wide_pairs().map(lambda pair: pair[0])
       | wide_pairs().map(lambda pair: pair[1]), st.data())
def test_h0_round_trip_matches_the_kernel(s, data):
    r, misses = _h0_round_trip_misses(s, data)
    before = _snapshot(s), _snapshot(r)
    assert core.h0_commutator_equals(s, r)
    assert (_snapshot(s), _snapshot(r)) == before
    for bad in misses:
        assert not core.h0_commutator_equals(s, bad)


def test_h0_round_trip_shares_no_kernel(monkeypatch, formal3):
    # The check must stay independent of the Weyl conversions and the
    # kernel that produced the solution it checks.
    q = formal3.q(3).raw
    r = commutator(h0(), formal3.q(3)).raw
    for name in ("to_weyl", "to_normal", "_int_kernel", "_reorder"):
        monkeypatch.setattr(core, name, None)
    assert core.h0_commutator_equals(q, r)
    assert not core.h0_commutator_equals(q, {})


lincomb_weights = st.sampled_from([0, 1, -1]) | st.builds(Fraction, ints, dens)


def _chain(terms):
    """sum of w t as a chain of expr_scale and expr_add calls."""
    out = {}
    for w, t in terms:
        out = core.expr_add(out, core.expr_scale(t, (w.numerator, 0, w.denominator)))
    return out


@given(st.lists(st.tuples(lincomb_weights, op_tables() | wide_pairs().map(lambda pair: pair[0])),
                max_size=5))
def test_lincomb_matches_scale_add_chain(terms):
    before = [(w, _snapshot(t)) for w, t in terms]
    got = core.expr_lincomb(terms)
    assert got == _chain(terms)
    assert_canonical(got)
    assert terms == before


@given(op_tables(), lincomb_weights, fracs)
def test_lincomb_cancels_keys(a, w, s):
    # w a + s a - (w + s) a is zero, and a key that cancels is dropped
    # also when other terms stay.
    b = {(5, 5, 0): {(): (1, 0, 1)}}
    terms = [(w, a), (s, a), (-(w + s), a), (Fraction(1, 3), b)]
    assert core.expr_lincomb(terms[:3]) == _chain(terms[:3]) == {}
    assert core.expr_lincomb(terms) == _chain(terms) == {(5, 5, 0): {(): (1, 0, 3)}}


def test_scalar_helpers_are_called_through_module_globals(monkeypatch, formal3):
    # The benchmark's tracer counts q_make, ev_mul and gcd by replacing
    # these module attributes, so the kernels must look them up there.
    counts = {}
    for name in ("q_make", "ev_mul", "gcd"):
        def counted(*args, _fn=getattr(core, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(core, name, counted)
    a, b = formal3.q(2).raw, formal3.q(1).raw
    for kernel in (core.expr_commutator, core.expr_mul, core.weyl_commutator):
        counts.clear()
        assert kernel([(a, b)])
        assert set(counts) == {"q_make", "ev_mul", "gcd"}, kernel.__name__
