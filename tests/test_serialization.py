"""Text forms: canonical rendering, parsing, and pinned golden output."""

import hashlib
import json
import pathlib
import subprocess
import sys

from hypothesis import given, strategies as st

from qmetric.algebra import OperatorExpr, parse_expr, serialize_expr
from qmetric.params import ParamPoly
from qmetric.perturbation import MetricParams, derive_metric_series
from qmetric.rational import GaussianRational

GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMAL8 = pathlib.Path(__file__).parents[1] / "perfbench" / "formal8.txt"

fracs = st.fractions(min_value=-40, max_value=40, max_denominator=24)


@st.composite
def exprs(draw):
    out = OperatorExpr.zero()
    for _ in range(draw(st.integers(0, 4))):
        coeff = ParamPoly(GaussianRational(draw(fracs), draw(fracs)))
        for name in draw(st.sets(st.sampled_from(["l1", "k1", "l2"]), max_size=2)):
            coeff = coeff * ParamPoly.symbol(name)
        out = out + OperatorExpr.monomial(
            coeff, draw(st.integers(0, 6)), draw(st.integers(-15, 6)),
            draw(st.booleans()))
    return out


@given(exprs())
def test_expression_text_round_trip(e):
    assert parse_expr(serialize_expr(e)) == e
    assert OperatorExpr(str(e)) == e


@given(exprs())
def test_rendering_is_canonical(e):
    # equal values print identically regardless of construction order
    terms = [OperatorExpr.monomial(c, m.xPow, m.pPow, m.parity)
             for m, c in e.terms()]
    rebuilt = OperatorExpr.zero()
    for t in reversed(terms):
        rebuilt = rebuilt + t
    assert serialize_expr(rebuilt) == serialize_expr(e)


def test_zero_forms():
    assert serialize_expr(OperatorExpr.zero()) == "0"
    assert parse_expr("0").is_zero()
    assert parse_expr("") .is_zero()


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "qmetric", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_golden_derive():
    got = _cli("derive", "--order", "3", "--format", "json")
    want = (GOLDEN / "derive_order3.json").read_text()
    assert got == want
    json.loads(got)  # stays well-formed


def test_golden_free_particle():
    got = _cli("free-particle", "--k1", "9/4", "--l1", "9/16",
               "--format", "json")
    want = (GOLDEN / "free_particle.json").read_text()
    assert got == want


def test_formal_order8_matches_benchmark_record():
    qs = derive_metric_series(MetricParams.formal(8))
    got = "".join(serialize_expr(q) + "\n" for q in qs.q_list())
    assert got == FORMAL8.read_text(encoding="utf-8")


def test_observables_order6_bytes_are_pinned():
    got = _cli("observables", "--order", "6").encode()
    assert hashlib.sha256(got).hexdigest() == (
        "3fb26cdc9b99b8dea1427cd1031fc2847e7a35804e3ce8a59373fcff10fee4d6")


def test_numeric_observables_order6_bytes_are_pinned():
    # An odd-order kappa gives coefficients with both a real and an
    # imaginary part, through every order of X, P and h.
    got = _cli("observables", "--order", "6", "--l1=3/7", "--k1=-2/5").encode()
    assert hashlib.sha256(got).hexdigest() == (
        "d7c2bdeb5010851727e5aef8074833d3d4b097ee8085821d0cc2520ff0de1445")
