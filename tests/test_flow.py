"""Orbit integration for the classical kinetic + sextic Hamiltonian.

The dt^4 convergence of the energy drift is the main correctness signal
for the stepper; the pinch traversal is covered by requiring a finite
period, tiny section closure, and exactly one window per period.
"""

import hashlib
import io
import math
import re
import tracemalloc
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qmetric.errors import EngineError
from qmetric.flow import (_cbrt, _crossing_time, _energy, _rk4_t,
                          _sextic_constants, _velocity, integrate_orbit)
from qmetric.observables import (ClassicalHamiltonian, classical_limit,
                                 equivalent_hermitian)
from qmetric.perturbation import MetricParams, derive_metric_series


@pytest.fixture(scope="module")
def hc():
    qs = derive_metric_series(MetricParams.formal(2))
    return classical_limit(equivalent_hermitian(qs), mass=F(1))


def test_input_validation(hc):
    with pytest.raises(EngineError):
        integrate_orbit(hc, -0.1)
    with pytest.raises(EngineError):
        integrate_orbit(hc, 0.1, dt=0.0)
    with pytest.raises(EngineError):
        integrate_orbit(hc, 0.1, periods=0)
    with pytest.raises(EngineError):
        integrate_orbit(hc, 0.1, p0=0.0)
    for steps in (0, -5):
        with pytest.raises(EngineError):
            integrate_orbit(hc, 0.1, max_steps=steps)
    # a count that is not an int is rejected, not rounded or truncated
    for bad in ({"periods": 2.5}, {"periods": True}, {"max_steps": 10.5},
                {"max_steps": True}, {"max_steps": F(10)}):
        with pytest.raises(EngineError):
            integrate_orbit(hc, 0.1, dt=1e-2, **bad)
    # outside 0 < theta < 1 the pinch window never opens or its
    # denominator w^(2/3) - mE can reach zero
    for theta in (0.0, -1.0, 1.0, 1.5, math.nan, math.inf):
        with pytest.raises(EngineError):
            integrate_orbit(hc, 0.1, dt=1e-2, theta=theta)
    for bad in ({"epsilon": math.nan}, {"dt": math.nan}, {"x0": math.inf},
                {"p0": -math.inf}, {"p0": 1e200}, {"p0": 10 ** 400},
                {"x0": F(10 ** 400)}):
        with pytest.raises(EngineError):
            integrate_orbit(hc, **{"epsilon": 0.1, **bad}, max_steps=1000)
    # a value that is not a real number, or is a bool, is not coerced
    for bad in ({"x0": "0"}, {"x0": 1j}, {"theta": "0.4"}, {"dt": None},
                {"epsilon": "0.1"}, {"epsilon": None}, {"p0": "1"}, {"p0": True},
                {"x0": False}, {"dt": True}, {"epsilon": True}, {"theta": True}):
        with pytest.raises(EngineError):
            integrate_orbit(hc, **{"epsilon": 0.1, **bad}, max_steps=1000)


def test_rejects_foreign_hamiltonians(hc, formal3):
    # the third-order pipeline carries an extra eps^4 correction
    hc3 = classical_limit(equivalent_hermitian(formal3))
    with pytest.raises(EngineError):
        integrate_orbit(hc3, 0.1)
    skewed = ClassicalHamiltonian(mass=F(1), terms=((0, 0, 2, F(1, 2), -1),))
    with pytest.raises(EngineError):
        integrate_orbit(skewed, 0.1)
    # a repeated term sums twice in H, so the shape is not the sextic one
    doubled = ClassicalHamiltonian(mass=F(1), terms=hc.terms + hc.terms[:1])
    with pytest.raises(EngineError):
        integrate_orbit(doubled, 0.1)


def test_free_motion_is_exact(hc):
    out = integrate_orbit(hc, 0.0, dt=1e-2, max_steps=1000)
    assert out.period is None and out.closure is None
    assert out.energy_drift == 0.0
    assert out.windows == ()
    assert len(out.rows) == 1001
    t, x, p, h = out.rows[-1]
    assert p == math.sqrt(2.0)
    assert x == pytest.approx(p * t, rel=1e-12)
    assert h == pytest.approx(1.0, rel=1e-12)


def test_default_orbit(hc):
    out = integrate_orbit(hc, 0.1)
    assert out.period == pytest.approx(4.482041585559, abs=1e-9)
    assert out.energy_drift < 1e-8
    assert out.closure < 1e-6
    assert len(out.windows) == 1
    (t_in, t_out), = out.windows
    assert 0.0 < t_in < t_out < out.period + out.dt
    ts = [r[0] for r in out.rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    t, x, p, h = out.rows[137]
    assert h == pytest.approx(hc.evaluate(x, p, 0.1), rel=1e-12)


def test_exact_epsilon_is_used_as_a_float(hc):
    # An exact epsilon is rounded once, as the CLI's float is, not raised
    # to its powers exactly before rounding.
    exact = integrate_orbit(hc, F(1, 10), dt=1e-2, periods=1)
    plain = integrate_orbit(hc, 0.1, dt=1e-2, periods=1)
    assert type(exact.epsilon) is float and exact.epsilon == 0.1
    assert list(exact.rows) == list(plain.rows)
    assert exact.period == plain.period
    assert exact.energy_drift == plain.energy_drift


def test_drift_scales_as_dt_fourth(hc):
    fine = integrate_orbit(hc, 0.1, dt=1e-3)
    coarse = integrate_orbit(hc, 0.1, dt=2e-3)
    ratio = coarse.energy_drift / fine.energy_drift
    assert 8.0 <= ratio <= 32.0


def test_multi_period(hc):
    one = integrate_orbit(hc, 0.1)
    two = integrate_orbit(hc, 0.1, periods=2)
    assert two.period == pytest.approx(one.period, abs=1e-8)
    assert two.closure < 1e-6
    assert len(two.windows) == 2


def test_off_section_start(hc):
    out = integrate_orbit(hc, 0.1, x0=0.5)
    assert out.period is not None
    assert out.energy_drift < 1e-8


def test_mass_dependence():
    qs = derive_metric_series(MetricParams.formal(2))
    heavy = classical_limit(equivalent_hermitian(qs), mass=F(4))
    out = integrate_orbit(heavy, 0.1)
    assert out.energy_drift < 1e-8
    light = integrate_orbit(classical_limit(equivalent_hermitian(qs)), 0.1)
    assert abs(out.period - light.period) > 0.1


def test_csv_output(hc):
    out = integrate_orbit(hc, 0.1, dt=1e-2)
    buf = io.StringIO()
    out.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,p,H"
    assert len(lines) == len(out.rows) + 1
    cell = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        assert all(cell.match(f) for f in fields)
    t, x, p, h = (float(v) for v in lines[1].split(","))
    assert (t, x) == (0.0, 0.0)
    assert p == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_step_budget_covers_pinch_windows(hc):
    # (x, p) = (1, 0.1) starts inside a window; at this dt crossing it
    # takes about 10^5 steps, so the budget must stop it first.
    out = integrate_orbit(hc, 0.1, x0=1.0, p0=0.1, dt=1e-6, max_steps=1000)
    assert len(out.rows) == 1001
    assert out.period is None and out.windows == ()


# SHA-256 of to_csv, recorded before the Hamiltonian's constants were
# folded once per orbit; the folded integrator must write the same bytes.
# The pinch window's cube root is math.cbrt where it exists (Python 3.11
# on) and a pow fallback before it, whose last bits differ: one digest each.
@pytest.mark.parametrize("mass,kw,digests", [
    (F(1), {}, ("6b30fd7609f43e3de0325dcde18dcd286b2ff1bc8d6f2e017b36a9897e782b76",
                "40ac3319d2212eb96bbf52dd79efaf7e65a495f6752705202c16458344340b5a")),
    (F(3, 2), {"x0": 0.3},
     ("f7b4992bdaefbd008f0f20114899a7ba5648ba36f738d6379cd9dd5b9ab3961d",
      "a1e0ea1834d05bff55b609a550168f86c5607947e7087214d7a3834ef1373564")),
])
def test_csv_bytes_are_pinned(mass, kw, digests):
    ham = classical_limit(equivalent_hermitian(
        derive_metric_series(MetricParams.formal(2))), mass=mass)
    buf = io.StringIO()
    integrate_orbit(ham, 0.1, dt=1e-2, periods=2, **kw).to_csv(buf)
    want = digests[0 if hasattr(math, "cbrt") else 1]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want


def _per_term(hc, x, p, eps, wrt):
    """H, dH/dx or dH/dp, each term's full product written out."""
    m = float(hc.mass)
    total = 0.0
    for j, a, b, c, mpow in hc.terms:
        if wrt == "h":
            total += float(c) * eps ** j * m ** mpow * x ** a * p ** b
        elif wrt == "x" and a:
            total += float(c) * a * eps ** j * m ** mpow * x ** (a - 1) * p ** b
        elif wrt == "p" and b:
            total += float(c) * b * eps ** j * m ** mpow * x ** a * p ** (b - 1)
    return total


def _outcome(f):
    try:
        return f()
    except OverflowError:
        return OverflowError


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite, finite.filter(bool), st.floats(0.0, 1e300),
       st.fractions(F(1, 1000), 1000))
def test_folded_terms_are_bit_identical(hc, x, p, eps, mass):
    # each generic sum must give the bits of its terms' full products;
    # the order-3 limit's eps^4 term exercises a third mass power
    full = ClassicalHamiltonian(mass, hc.terms + ((4, 12, -6, F(31, 256), 3),))
    for wrt, name in (("h", "evaluate"), ("x", "d_dx"), ("p", "d_dp")):
        want = _outcome(lambda: _per_term(full, x, p, eps, wrt))
        got = _outcome(lambda: getattr(full, name)(x, p, eps))
        if want is OverflowError:
            assert got is OverflowError
        elif math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


@given(finite, finite.filter(bool), st.floats(0.0, 1e300),
       st.fractions(F(1, 1000), 1000), st.booleans())
def test_closed_forms_match_the_generic_fold(hc, x, p, eps, mass, reverse):
    # the generic sums run in term order; the closed forms must not care
    ham = ClassicalHamiltonian(mass, hc.terms[::-1] if reverse else hc.terms)
    # the constants fold eps**2 and m**mpow, which the generic sums form
    # too, so folding overflows exactly when every generic sum does; the
    # stepper takes dH/dp and -dH/dx together, so they overflow together
    pairs = ((lambda c: (_energy(c, x, p),), lambda: (ham.evaluate(x, p, eps),)),
             (lambda c: _velocity(c, x, p),
              lambda: (ham.d_dp(x, p, eps), -ham.d_dx(x, p, eps))))
    c = _outcome(lambda: _sextic_constants(ham, eps))
    for closed, generic in pairs:
        want = _outcome(generic)
        got = OverflowError if c is OverflowError else _outcome(lambda: closed(c))
        if want is OverflowError:
            assert got is OverflowError
            continue
        assert got is not OverflowError and len(got) == len(want)
        for g, w in zip(got, want):
            if math.isnan(w):
                assert math.isnan(g)
            else:
                assert g == w
                assert math.copysign(1.0, g) == math.copysign(1.0, w)


def test_rows_view(hc):
    rows = integrate_orbit(hc, 0.1, dt=1e-2).rows
    n = len(rows)
    assert n > 1
    assert rows[-1] == rows[n - 1]
    assert rows[-n] == rows[0]
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[past]
    listed = list(rows)
    assert len(listed) == n and listed[-1] == rows[-1]
    assert all(type(r) is tuple and len(r) == 4 for r in listed)
    assert all(type(v) is float for r in listed for v in r)


def test_sample_memory_stays_flat(hc):
    # a list of 4-tuples of boxed floats costs about 175 B per sample;
    # the interleaved array costs 32 B plus its growth slack
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = integrate_orbit(hc, 0.1, dt=1e-2, periods=20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(out.rows) == 12_445
    assert peak <= 48 * len(out.rows)


def _reference_window(m, eps, c, t, x, p, dt, theta, samples, budget):
    """The pinch window stepped through a closure per stage."""
    c_sextic = float(F(3, 8)) * m * eps * eps
    m_energy = m * _energy(c, x, p)
    threshold = theta * m_energy
    xdot, _ = _velocity(c, x, p)
    h = math.copysign(abs(xdot) * dt, xdot)

    def f(xx, w):
        wc = _cbrt(w)
        den = wc * wc - m_energy
        return (-9.0 * m * c_sextic * xx ** 5 * wc / den,
                m * wc / (2.0 * den))

    w = p ** 3
    max_inner = int(4.0 * abs(x) / abs(h)) + 64
    for steps in range(1, min(max_inner, budget) + 1):
        k1w, k1t = f(x, w)
        k2w, k2t = f(x + 0.5 * h, w + 0.5 * h * k1w)
        k3w, k3t = f(x + 0.5 * h, w + 0.5 * h * k2w)
        k4w, k4t = f(x + h, w + h * k3w)
        x += h
        w += h * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
        t += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
        pw = _cbrt(w)
        samples.extend((t, x, pw, _energy(c, x, pw) if pw != 0.0 else math.inf))
        if pw * pw >= threshold:
            return t, x, pw, steps
    assert budget < max_inner
    return None


def _reference_orbit(hc, epsilon, x0=0.0, p0=None, dt=1e-3, periods=1,
                     theta=0.4, max_steps=2_000_000):
    """The orbit stepped by _rk4_t, with H from _energy, sample by sample."""
    m, c = float(hc.mass), _sextic_constants(hc, epsilon)
    if p0 is None:
        p0 = math.sqrt(2.0 * m)
    t, x, p = 0.0, float(x0), float(p0)
    e0 = _energy(c, x, p)
    gate = theta * m * e0
    samples = array("d", (t, x, p, e0))
    windows, drift = [], 0.0
    crossings = [(t, x, p)] if x0 == 0.0 and p0 > 0.0 else []
    needed = periods + 1
    steps = 0
    while steps < max_steps:
        if p * p < gate and x * p > 0.0:
            t_in = t
            state = _reference_window(m, epsilon, c, t, x, p, dt, theta,
                                      samples, max_steps - steps)
            if state is None:
                break
            t, x, p, taken = state
            steps += taken
            windows.append((t_in, t))
            continue
        x_prev, p_prev = x, p
        x, p = _rk4_t(c, x_prev, p_prev, dt)
        t += dt
        steps += 1
        if x_prev < 0.0 <= x:
            tau, xs, ps = _crossing_time(c, x_prev, p_prev, dt)
            crossings.append((t - dt + tau, xs, ps))
            if len(crossings) >= needed:
                t, x, p = crossings[-1][0], xs, ps
        h_now = _energy(c, x, p)
        samples.extend((t, x, p, h_now))
        if p * p >= gate:
            drift = max(drift, abs(h_now / e0 - 1.0))
        if len(crossings) >= needed:
            break
    period = closure = None
    if len(crossings) >= needed:
        (t_a, x_a, p_a), (t_b, x_b, p_b) = crossings[0], crossings[-1]
        period = (t_b - t_a) / periods
        closure = math.hypot(x_b - x_a, p_b - p_a)
    return samples.tobytes(), period, closure, drift, tuple(windows)


@pytest.mark.parametrize("mass,kw", [
    (F(1), {}),                                              # default orbit
    (F(3, 2), {"epsilon": 0.2, "x0": 0.3, "dt": 0.0037}),    # mass != 1
    (F(7), {"x0": -1.1, "p0": 0.7, "dt": 2e-3}),             # negative x0
    (F(2, 7), {"x0": -0.4, "dt": 1e-2, "periods": 3}),
    (F(1), {"x0": -0.4, "dt": 1e-2, "periods": 3}),
    (F(1), {"epsilon": 0.0, "max_steps": 500}),              # free motion
    (F(1), {"dt": 1e-2, "max_steps": 229}),                  # budget in a window
    (F(1), {"x0": 1.0, "p0": 0.1, "dt": 1e-6, "max_steps": 1000}),  # starts in one
    (F(3, 2), {"x0": 1.0, "p0": 0.1, "dt": 1e-6, "max_steps": 1000}),
    (F(1), {"dt": 1e-2, "max_steps": 150}),                  # budget outside one
])
def test_fused_stepper_matches_reference(hc, mass, kw):
    # The two stepping loops evaluate the closed forms in place; they
    # must reproduce, bit for bit, the same steps built from the helpers.
    kw = {"epsilon": 0.1, **kw}
    ham = hc if mass == 1 else classical_limit(equivalent_hermitian(
        derive_metric_series(MetricParams.formal(2))), mass=mass)
    out = integrate_orbit(ham, **kw)
    got = (out.rows._samples.tobytes(), out.period, out.closure,
           out.energy_drift, out.windows)
    assert got == _reference_orbit(ham, **kw)
