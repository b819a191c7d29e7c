"""An oracle for the metric series that shares no code with the engine.

The engine's output is read only through ``OperatorExpr.raw``: a dict
{(a, b, e): {exponent vector: (re, im, den)}} for the operator
x^a p^b P^e with coefficient (re + im i)/den.  Everything else lives
here, in plain ints modulo the prime M = 2^61 - 1:

* every formal parameter l_j, k_j is evaluated at a fixed random residue;
  by Schwartz-Zippel a wrong polynomial identity survives that with
  probability at most degree/M;
* scalars are Gaussian pairs (re, im) mod M;
* operator products are normal ordered with this file's own rule
  p^b x^a = sum_k C(a,k) (-i)^k ff(b,k) x^(a-k) p^(b-k) (any integer b,
  ff the falling factorial) and P x^a p^b = (-1)^(a+b) x^a p^b P;
* e^{+-Q} are series sums of powers of Q, not nested commutators.
"""

import argparse
import functools
import math
import random

import pytest

from qmetric.cli import build_parser
from qmetric.observables import equivalent_hermitian, observable_p, observable_x
from qmetric.perturbation import (MetricParams, derive_metric_series,
                                  extend_one_order)

M = (1 << 61) - 1
I_UNIT = (0, 1)
# (-i)^k for k mod 4.
MINUS_I_POWERS = ((1, 0), (0, M - 1), (M - 1, 0), (0, 1))

# The highest order each command's oracle cases below reach: the defining
# relation for derive; [X, P] = i, X and P against e^{+-Q/2}, and h for
# observables.  test_order_caps_stay_within_their_oracles ties each
# command's --order choices to these, so no cap can be raised alone.
ORACLE_ORDERS = {"derive": 10, "observables": 8}


def g_mul(u, v):
    return ((u[0] * v[0] - u[1] * v[1]) % M, (u[0] * v[1] + u[1] * v[0]) % M)


def g_add(u, v):
    return ((u[0] + v[0]) % M, (u[1] + v[1]) % M)


def residue(num, den):
    return num * pow(den, -1, M) % M


class Point:
    """A random residue per parameter symbol, drawn on first use."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._values = {}

    def __getitem__(self, sid):
        if sid not in self._values:
            self._values[sid] = self._rng.randrange(M)
        return self._values[sid]


def reduce_expr(raw, point):
    """The engine's raw expr, evaluated at `point`, as {(a, b, e): (re, im)}."""
    out = {}
    for mono, poly in raw.items():
        total = (0, 0)
        for ev, (re, im, den) in poly.items():
            m = 1
            for sid, power in ev:
                m = m * pow(point[sid], power, M) % M
            total = g_add(total, (residue(re, den) * m, residue(im, den) * m))
        add_term(out, mono, total)
    return out


def add_term(out, mono, c):
    c = g_add(out.get(mono, (0, 0)), c)
    if c == (0, 0):
        out.pop(mono, None)
    else:
        out[mono] = c


@functools.cache
def mono_product(m1, m2):
    """x^a1 p^b1 P^e1 * x^a2 p^b2 P^e2 as ((monomial, Gaussian weight), ...)."""
    (a1, b1, e1), (a2, b2, e2) = m1, m2
    # Move P^e1 right past x^a2 p^b2, then p^b1 right past x^a2.
    sign = -1 if e1 and (a2 + b2) % 2 else 1
    terms = []
    for k in range(a2 + 1):
        ff = 1
        for t in range(k):
            ff *= b1 - t
        w = sign * math.comb(a2, k) * ff
        if w:
            ph = MINUS_I_POWERS[k % 4]
            terms.append(((a1 + a2 - k, b1 + b2 - k, e1 ^ e2),
                          (w * ph[0] % M, w * ph[1] % M)))
    return tuple(terms)


def op_mul(t1, t2):
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            c = g_mul(c1, c2)
            for mono, w in mono_product(m1, m2):
                add_term(out, mono, g_mul(c, w))
    return out


def op_add(t1, t2):
    out = dict(t1)
    for mono, c in t2.items():
        add_term(out, mono, c)
    return out


def op_scale(t, c):
    out = {}
    for mono, v in t.items():
        add_term(out, mono, g_mul(v, c))
    return out


# A series is a list of exprs, index = power of eps, truncated at len - 1.

def series_mul(s1, s2):
    n = len(s1)
    out = [{} for _ in range(n)]
    for i, a in enumerate(s1):
        for j in range(n - i):
            if a and s2[j]:
                out[i + j] = op_add(out[i + j], op_mul(a, s2[j]))
    return out


def series_exp(q):
    """sum_n q^n / n!, from q's own powers (q starts at order one)."""
    n = len(q)
    total = [{(0, 0, 0): (1, 0)}] + [{} for _ in range(n - 1)]
    power = list(total)
    for k in range(1, n):
        power = series_mul(power, q)
        inv_k = (pow(k, -1, M), 0)
        power = [op_scale(t, inv_k) for t in power]
        total = [op_add(a, b) for a, b in zip(total, power)]
    return total


def q_series(raws, point, sign=1):
    """[0, sign*Q_1, .., sign*Q_N] evaluated at `point`."""
    c = (sign % M, 0)
    return [{}] + [op_scale(reduce_expr(raw, point), c) for raw in raws]


def hamiltonian(n, adjoint=False):
    """H = p^2/2 + i eps x^3 (or its adjoint, -i eps x^3) through eps^n."""
    h = [{} for _ in range(n + 1)]
    h[0] = {(0, 2, 0): (residue(1, 2), 0)}
    if n >= 1:
        h[1] = {(3, 0, 0): (0, M - 1 if adjoint else 1)}
    return h


def defining_residual(raws, point):
    """e^{-Q} H e^{Q} - H^dagger, order by order."""
    n = len(raws)
    lhs = series_mul(series_mul(series_exp(q_series(raws, point, -1)), hamiltonian(n)),
                     series_exp(q_series(raws, point)))
    rhs = hamiltonian(n, adjoint=True)
    return [op_add(a, op_scale(b, (M - 1, 0))) for a, b in zip(lhs, rhs)]


@pytest.fixture(scope="module")
def formal8_raws():
    qs = derive_metric_series(MetricParams.formal(8))
    return [q.raw for q in qs.q_list()]


def test_normal_ordering_basics():
    x, p, par = {(1, 0, 0): (1, 0)}, {(0, 1, 0): (1, 0)}, {(0, 0, 1): (1, 0)}
    minus = (M - 1, 0)
    assert op_add(op_mul(x, p), op_scale(op_mul(p, x), minus)) == {(0, 0, 0): I_UNIT}
    assert op_mul(par, x) == op_scale(op_mul(x, par), minus)
    assert op_mul(par, par) == {(0, 0, 0): (1, 0)}
    p_inv = {(0, -1, 0): (1, 0)}
    assert op_mul(p, p_inv) == {(0, 0, 0): (1, 0)}
    # [x, p^-1] = -i p^-2
    assert op_add(op_mul(x, p_inv), op_scale(op_mul(p_inv, x), minus)) == {
        (0, -2, 0): (0, M - 1)}


@pytest.mark.parametrize("seed", [1, 2])
def test_defining_relation_through_order_8(formal8_raws, seed):
    residual = defining_residual(formal8_raws, Point(seed))
    assert residual == [{}] * 9


def test_defining_relation_through_order_10():
    # Order 10 reaches beyond every order the CLI serves; the engine's
    # nested-commutator table runs on Weyl symbols, which this file's
    # normal-ordered products share nothing with.
    n = ORACLE_ORDERS["derive"]
    qs = derive_metric_series(MetricParams.formal(n))
    residual = defining_residual([q.raw for q in qs.q_list()], Point(1))
    assert residual == [{}] * (n + 1)


@pytest.mark.parametrize("order", [6, 8])
def test_residual_sees_a_perturbed_coefficient(formal8_raws, order):
    raws = list(formal8_raws)
    raw = {mono: dict(poly) for mono, poly in raws[order - 1].items()}
    mono = max(raw)
    ev = min(raw[mono])
    re, im, den = raw[mono][ev]
    raw[mono][ev] = (re, im + den, den)  # add i
    raws[order - 1] = raw
    residual = defining_residual(raws, Point(1))
    assert any(residual)
    assert not any(residual[:order])


def dressed_canonical_commutator(n):
    """[X, P] = i order by order through eps^n for formal(n), and X and P
    equal to the bare x and p conjugated by e^{Q/2} built here."""
    qs = derive_metric_series(MetricParams.formal(n))
    point = Point(3)
    x_series, p_series = observable_x(qs), observable_p(qs)
    xs = [reduce_expr(x_series.coeff(j).raw, point) for j in range(n + 1)]
    ps = [reduce_expr(p_series.coeff(j).raw, point) for j in range(n + 1)]
    minus = (M - 1, 0)
    commutator = [op_add(a, op_scale(b, minus))
                  for a, b in zip(series_mul(xs, ps), series_mul(ps, xs))]
    assert commutator == [{(0, 0, 0): I_UNIT}] + [{}] * n
    # X = e^{Q/2} x e^{-Q/2} and likewise P, with the square root's
    # exponent halved here rather than taken from the engine.
    half = (residue(1, 2), 0)
    raws = [q.raw for q in qs.q_list()]
    up = series_exp([op_scale(t, half) for t in q_series(raws, point)])
    down = series_exp([op_scale(t, half) for t in q_series(raws, point, -1)])
    for bare, dressed in (({(1, 0, 0): (1, 0)}, xs), ({(0, 1, 0): (1, 0)}, ps)):
        bare_series = [bare] + [{}] * n
        assert series_mul(series_mul(up, bare_series), down) == dressed


def test_dressed_canonical_commutator_through_order_6():
    dressed_canonical_commutator(6)


def test_dressed_canonical_commutator_through_order_8():
    # Order 8 is the highest that derive serves; X and P read the Weyl
    # symbols of the Q_s that the derivation keeps.
    dressed_canonical_commutator(ORACLE_ORDERS["observables"])


@pytest.mark.parametrize("n", [*range(1, 7), ORACLE_ORDERS["observables"]])
def test_equivalent_hermitian_through_order(n):
    # h = e^{-Q/2} (H0 + eps H1) e^{Q/2} through eps^(n+1), with Q_{n+1}
    # the engine's zero-parameter extension and both exponentials summed
    # here from powers of Q.
    qs = derive_metric_series(MetricParams.formal(n))
    point = Point(4)
    half = (residue(1, 2), 0)
    raws = [q.raw for q in qs.q_list()] + [extend_one_order(qs).raw]
    down = series_exp([op_scale(t, half) for t in q_series(raws, point, -1)])
    up = series_exp([op_scale(t, half) for t in q_series(raws, point)])
    want = series_mul(series_mul(down, hamiltonian(n + 1)), up)
    h = equivalent_hermitian(qs)
    assert [reduce_expr(h.coeff(j).raw, point) for j in range(n + 2)] == want


def _order_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return next(a for a in sub._actions if a.dest == "order").choices


@pytest.mark.parametrize("command", sorted(ORACLE_ORDERS))
def test_order_caps_stay_within_their_oracles(command):
    assert max(_order_choices(command)) <= ORACLE_ORDERS[command]
