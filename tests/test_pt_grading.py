"""PT grading of every engine coefficient, and the ungraded numeric path.

H = p^2/2 + i eps x^3 is symmetric under x -> -x, i -> -i, and the
homogeneous terms carry i^j kappa_j, so kappa_j changes sign as (-1)^j.
Hence the coefficient of x^a p^b P^e with parameter monomial mu is
imaginary exactly when a + sum_j j deg_{kappa_j}(mu) + s is odd, where
s is 0 for Q, h and P and 1 for X.  The rule is read off
``OperatorExpr.raw`` and the symbol names alone.

A numeric odd-order kappa_j breaks the grading (its sign is fixed), so
a numeric series holds coefficients with both a real and an imaginary
part; it must still equal the formal series with the amplitudes
substituted.
"""

import re
from fractions import Fraction

import pytest

from qmetric.observables import equivalent_hermitian, observable_p, observable_x
from qmetric.params import symbol_name
from qmetric.perturbation import MetricParams, derive_metric_series

KAPPA = re.compile(r"k(\d+)$")


def grading_violations(expr, s):
    """(terms checked, terms whose reality breaks the rule)."""
    seen, bad = 0, []
    for (a, b, e), poly in expr.raw.items():
        for ev, (re_n, im_n, _) in poly.items():
            w = sum(int(m.group(1)) * x for sid, x in ev
                    if (m := KAPPA.match(symbol_name(sid))))
            imaginary = (a + w + s) % 2 == 1
            seen += 1
            if (re_n != 0) if imaginary else (im_n != 0):
                bad.append((a, b, e, ev))
    return seen, bad


def series_terms(series):
    return [series.coeff(j) for j in series.indices()]


@pytest.fixture(scope="module")
def formal6():
    return derive_metric_series(MetricParams.formal(6))


def test_generator_is_graded_through_order_eight():
    qs = derive_metric_series(MetricParams.formal(8))
    for j in range(1, 9):
        seen, bad = grading_violations(qs.q(j), 0)
        assert seen and not bad, (j, bad[:3])


@pytest.mark.parametrize("name, dress, s", [
    ("h", equivalent_hermitian, 0),
    ("X", observable_x, 1),
    ("P", observable_p, 0),
])
def test_dressed_operators_are_graded(formal6, name, dress, s):
    total = 0
    for expr in series_terms(dress(formal6)):
        seen, bad = grading_violations(expr, s)
        total += seen
        assert not bad, (name, bad[:3])
    assert total > 0


def test_numeric_odd_kappa_matches_substituted_formal_series(formal6):
    lam, kap = Fraction(3, 7), Fraction(-2, 5)
    values = {f"{n}{j}": v for j in range(1, 7) for n, v in (("l", lam), ("k", kap))}
    num = derive_metric_series(MetricParams.numeric(6, [lam] * 6, [kap] * 6))
    both = sum(1 for q in num.q_list() for poly in q.raw.values()
               for c in poly.values() if c[0] and c[1])
    assert both > 0  # the kernels' two-entry path is exercised
    for j in range(1, 7):
        assert num.q(j) == formal6.q(j).substitute(values), j
    for dress in (observable_x, observable_p, equivalent_hermitian):
        got, want = dress(num), dress(formal6)
        for j in range(7):
            assert got.coeff(j) == want.coeff(j).substitute(values), (dress.__name__, j)
