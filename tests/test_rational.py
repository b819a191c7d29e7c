"""Gaussian-rational scalars against a plain (Fraction, Fraction) oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmetric.rational import I_POWERS, GaussianRational


# oracle: componentwise complex arithmetic over exact fractions
def o_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def o_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=40)
pairs = st.tuples(fracs, fracs)


def g(pair):
    return GaussianRational(pair[0], pair[1])


@given(pairs, pairs)
def test_add_mul_sub_match_oracle(a, b):
    assert g(a) + g(b) == g((a[0] + b[0], a[1] + b[1]))
    assert g(a) - g(b) == g((a[0] - b[0], a[1] - b[1]))
    assert g(a) * g(b) == g(o_mul(a, b))


@given(pairs, pairs)
def test_division_matches_oracle(a, b):
    if b == (0, 0):
        with pytest.raises(ZeroDivisionError):
            g(a) / g(b)
    else:
        assert g(a) / g(b) == g(o_div(a, b))


@given(pairs)
def test_conjugation_and_parts(a):
    v = g(a)
    assert v.re == a[0] and v.im == a[1]
    assert v.conjugate() == g((a[0], -a[1]))
    assert (v * v.conjugate()).im == 0


@given(pairs)
def test_string_round_trip(a):
    v = g(a)
    assert GaussianRational(str(v)) == v


def test_string_forms():
    assert str(GaussianRational(0)) == "0"
    assert str(GaussianRational(Fraction(-3, 4))) == "-3/4"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(0, Fraction(651, 8))) == "651/8*i"
    assert str(GaussianRational(2, Fraction(-1, 3))) == "2-1/3*i"


@pytest.mark.parametrize("text", ["", "x", "1+", "i*3", "3//4", "1+2", "i+1"])
def test_bad_literals_rejected(text):
    with pytest.raises(ValueError):
        GaussianRational(text)


def test_large_literal_not_split():
    # a fraction followed by *i must parse as one imaginary coefficient
    v = GaussianRational("651/8*i")
    assert v.re == 0 and v.im == Fraction(651, 8)
    v = GaussianRational("-651/8*i")
    assert v.re == 0 and v.im == Fraction(-651, 8)


def test_int_and_fraction_coercion():
    assert GaussianRational(2) == GaussianRational(Fraction(2), 0)
    assert GaussianRational(1, 2) * GaussianRational(1, -2) == GaussianRational(5)


@pytest.mark.parametrize("args", [("1/0",), ((1, 0),), ("0/0+i",), (1, (2, 0)),
                                  ("3/4-1/0*i",), ((0, 0), 1)],
                         ids=["text", "pair", "text-0/0", "imag-pair", "imag-text", "0/0-pair"])
def test_zero_denominator_raises_like_fraction(args):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(*args)


@pytest.mark.parametrize("args", [((1.5, 2),), (("3", "4"),), ((1, 2.0),), ((True, 2),),
                                  (1, (Fraction(1, 2), 3)), (True,), (0, False)],
                         ids=["float", "strings", "float-den", "bool", "imag-fraction",
                              "bool-re", "bool-im"])
def test_pair_parts_must_be_ints(args):
    with pytest.raises(TypeError):
        GaussianRational(*args)


def test_int_pairs_reduce():
    assert GaussianRational((6, -8), (3, 1)) == GaussianRational(Fraction(-3, 4), 3)
    assert str(GaussianRational((0, 5))) == "0"


def assert_canonical(v):
    re, im, den = v.tuple
    assert den > 0 and math.gcd(re, im, den) == 1


int_pairs = st.tuples(st.integers(-60, 60), st.integers(-40, 40).filter(bool))


@given(pairs, int_pairs, int_pairs)
def test_every_constructor_path_is_canonical(a, re_pair, im_pair):
    # The same value from ints, Fractions, int pairs and text gives one
    # tuple and one hash.
    v = g(a)
    assert_canonical(v)
    frac_re, frac_im = Fraction(*re_pair), Fraction(*im_pair)
    from_pairs = GaussianRational(re_pair, im_pair)
    assert_canonical(from_pairs)
    for same in (GaussianRational(frac_re, frac_im), GaussianRational(str(from_pairs))):
        assert same.tuple == from_pairs.tuple and hash(same) == hash(from_pairs)
    assert_canonical(GaussianRational(re_pair[0]))
    assert GaussianRational(re_pair[0]).tuple == GaussianRational((re_pair[0], 1), 0).tuple


@given(pairs, pairs)
def test_arithmetic_results_are_canonical(a, b):
    u, v = g(a), g(b)
    results = [u + v, u - v, u * v, -u, u.conjugate()]
    if v:
        results.append(u / v)
    for r in results:
        assert_canonical(r)
        assert hash(r) == hash(GaussianRational(r.re, r.im))


def test_equal_values_share_one_tuple():
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert GaussianRational((2, 4), (3, 6)).tuple == half.tuple == (1, 1, 2)
    assert GaussianRational((-3, -6), (1, -2)).tuple == (1, -1, 2)
    assert GaussianRational("1/2+1/2*i") == half
    assert GaussianRational(0).tuple == GaussianRational((0, 7), (0, -3)).tuple == (0, 0, 1)
    assert str(GaussianRational(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3*i"


def test_i_powers_table():
    i = GaussianRational(0, 1)
    for k in range(-5, 6):
        want = GaussianRational(1)
        for _ in range(abs(k)):
            want = want * i if k > 0 else want / i
        assert I_POWERS[k % 4] == want, k
