"""Orbit integration for the classical kinetic + sextic Hamiltonian.

The dt^4 convergence of the energy drift is the main correctness signal
for the stepper; the pinch traversal is covered by requiring a finite
period, tiny section closure, and exactly one window per period.
"""

import io
import math
import re
from fractions import Fraction as F

import pytest

from qmetric.errors import EngineError
from qmetric.flow import integrate_orbit
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
    for bad in ({"epsilon": math.nan}, {"dt": math.nan}, {"x0": math.inf},
                {"p0": -math.inf}, {"p0": 1e200}):
        with pytest.raises(EngineError):
            integrate_orbit(hc, **{"epsilon": 0.1, **bad}, max_steps=1000)


def test_rejects_foreign_hamiltonians(formal3):
    # the third-order pipeline carries an extra eps^4 correction
    hc3 = classical_limit(equivalent_hermitian(formal3))
    with pytest.raises(EngineError):
        integrate_orbit(hc3, 0.1)
    skewed = ClassicalHamiltonian(mass=F(1), terms=((0, 0, 2, F(1, 2), -1),))
    with pytest.raises(EngineError):
        integrate_orbit(skewed, 0.1)


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
