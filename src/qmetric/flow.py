"""Orbit integration for the sextic classical Hamiltonian.

The classical limit of the equivalent Hermitian Hamiltonian is

    H(x, p) = p^2 / 2m + C x^6 / p^2,        C = (3/8) m eps^2,

whose level curves all pinch at the phase-space origin: along the inner
branch p ~ |x|^3, so dx/dt = dH/dp diverges and a fixed-step integrator
in t cannot cross.  The integrator here is a hybrid:

* outside a window around the pinch it is plain fixed-step RK4 in t on
  (x, p) with the generic Hamiltonian equations of motion;

* inside the window (entered when p^2 < theta*m*E with x*p > 0, left when
  p^2 >= theta*m*E again) the independent variable switches to x and the
  state to (w, t) with w = p^3, which on the energy level E satisfies

      dw/dx = -9 m C x^5 w^(1/3) / (w^(2/3) - m E)
      dt/dx =        m w^(1/3) / (2 (w^(2/3) - m E)).

  On the orbit w ~ |x|^9, so the right-hand sides behave like x^8 sign(x)
  near the origin (seven continuous derivatives) and the denominator is
  pinned below -(1-theta) m E throughout the window: RK4 crosses the
  pinch at full fourth order with no special-casing of the singular
  point.  The window step is |dx| = |xdot_entry| * dt so halving dt
  halves the step everywhere and the global error keeps its dt^4 law.

Energy drift is reported over the samples with p^2 >= theta*m*E(0).
Near the pinch dH/d(p^2) ~ H/p^2 diverges, so pointwise H there reflects
the conditioning of the level function, not the accuracy of the
trajectory (the transverse invariant delta(p^2) stays at the 1e-13 level
through the window while H evaluated at the closest samples can swing by
orders of magnitude).  The CSV rows still record H as computed.

The steppers are specific to the one Hamiltonian shape accepted here
(`_require_sextic`).  `_sextic_constants` folds, once per orbit, the
constant head float(c) * n * eps**j * m**mpow of each term of H and
its derivatives (n the exponent, for a derivative) from the two terms
of `ClassicalHamiltonian.term_map()`, left to right as
`ClassicalHamiltonian.evaluate`, `d_dx` and `d_dp` form the full
product; the closed forms

    H     = 0.0 + kh * p**2 + ch * x**6 * p**-2
    dH/dx = 0.0 +             cx * x**5 * p**-2
    dH/dp = 0.0 + kp * p    + cp * x**6 * p**-3

are then bit-identical to those generic sums: a float times the int 1
is itself, x**0 is 1.0 and p**1 is p for every float, so
c * eps**0 * m**mpow * x**0 * p**b equals kh * p**b, and a two-term sum
from 0.0 gives the same bits in either term order, signed zeros
included.  The powers stay `**` (x**5 * x is not x**6 bit for bit).
A property test checks the closed forms against the generic sums, and
the tests pin the CSV bytes of two runs by SHA-256.

Both stepping loops (t outside a window, x inside one) evaluate their
RK4 stages and each sample's H in place rather than through `_rk4_t`,
`_velocity`, `_energy` or a per-window closure, which costs a Python
call per stage.  They keep the helpers' float operations operation for
operation, in the same order, so every bit matches: only a product that
Python forms left to right anyway is hoisted, such as 0.5 * dt (or
0.5 * h) out of 0.5 * dt * k, and -9 m C out of -9 m C x^5 w^(1/3), and
a value computed twice from the same operands is computed once: x + h/2
for the second and third window stages, a step's closing cube root and
x^5 for the next window step's first stage, and a sample's x^6 and p^-2
for the next t step's first stage.  A test steps a reference
orbit through the helpers and requires the same samples, period,
closure, drift and windows.

The samples are stored as one interleaved `array('d')` of t, x, p, H,
32 bytes per sample, each appended with `frombytes` as four native
doubles packed by `struct` (the bytes `extend` would store, without its
per-item loop); `OrbitResult.rows` is a read-only view over it
that takes `len`, integer indices (negative ones too) and yields
(t, x, p, H) tuples when iterated.

Orbit CSV bytes are reproducible within one Python minor version (on one
platform's C math library): the window's cube root is `math.cbrt` from
Python 3.11 on and `abs(v) ** (1/3)` with the sign restored before it,
and the two differ in the last bits.  So `test_csv_bytes_are_pinned`
holds two digests per run, one for each cube root.

The step budget `max_steps` is checked against an integer count of
every RK4 step, in a window or out (each adds one sample), so it bounds
the run time for any finite input.
"""

from __future__ import annotations

import math
import numbers
import struct
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterator

from .errors import EngineError
from .observables import ClassicalHamiltonian

__all__ = ["OrbitResult", "integrate_orbit"]

try:
    _cbrt = math.cbrt
except AttributeError:  # pragma: no cover
    def _cbrt(v: float) -> float:
        return math.copysign(abs(v) ** (1.0 / 3.0), v)

# One (t, x, p, H) sample as the bytes of four native doubles, which is
# how array('d') stores them; frombytes takes it without a per-item loop.
_pack_row = struct.Struct("4d").pack

# Canonical shape (j, a, b) -> (coefficient, mass power): kinetic + sextic.
_SEXTIC_SHAPE = {
    (0, 0, 2): (Fraction(1, 2), -1),
    (2, 6, -2): (Fraction(3, 8), 1),
}


class OrbitRows:
    """Read-only (t, x, p, H) view over an interleaved array('d')."""

    __slots__ = ("_samples",)

    def __init__(self, samples: array) -> None:
        self._samples = samples

    def __len__(self) -> int:
        return len(self._samples) // 4

    def __getitem__(self, i: int) -> tuple:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("orbit row index out of range")
        return tuple(self._samples[4 * i:4 * i + 4])

    def __iter__(self) -> Iterator[tuple]:
        it = iter(self._samples)
        return zip(it, it, it, it)


@dataclass(frozen=True)
class OrbitResult:
    """One integrated orbit: samples, period data, and error measures."""

    epsilon: float
    mass: float
    dt: float
    rows: OrbitRows  # of (t, x, p, H)
    period: float | None
    closure: float | None
    energy_drift: float
    windows: tuple  # of (t_enter, t_exit)

    def to_csv(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                self._write(fh)
        else:
            self._write(target)

    def _write(self, fh: IO[str]) -> None:
        fh.write("t,x,p,H\n")
        fh.writelines(map("%.12e,%.12e,%.12e,%.12e\n".__mod__, self.rows))


def _require_sextic(hc: ClassicalHamiltonian) -> None:
    shape = hc.term_map()
    if shape != _SEXTIC_SHAPE or len(hc.terms) != len(shape):
        raise EngineError(
            "orbit integration needs the canonical kinetic + sextic "
            f"Hamiltonian, got terms {sorted(shape)}")


def _sextic_constants(hc: ClassicalHamiltonian, epsilon: float) -> tuple:
    """(kh, ch, cx, kp, cp): float(c) * n * epsilon**j * m**mpow of the
    (j, a, b) terms of `hc.term_map()`, n the exponent a derivative
    brings down (1 for H), formed as the module docstring says."""
    m = float(hc.mass)
    shape = hc.term_map()

    def fold(j: int, a: int, b: int, n: int = 1) -> float:
        c, mpow = shape[j, a, b]
        return float(c) * n * epsilon ** j * m ** mpow

    return (fold(0, 0, 2), fold(2, 6, -2), fold(2, 6, -2, 6),
            fold(0, 0, 2, 2), fold(2, 6, -2, -2))


def _energy(c: tuple, x: float, p: float) -> float:
    return 0.0 + c[0] * p ** 2 + c[1] * x ** 6 * p ** -2


def _velocity(c: tuple, x: float, p: float) -> tuple[float, float]:
    """(dH/dp, -dH/dx) at (x, p)."""
    return (0.0 + c[3] * p + c[4] * x ** 6 * p ** -3,
            -(0.0 + c[2] * x ** 5 * p ** -2))


def _rk4_t(c: tuple, x: float, p: float, dt: float) -> tuple[float, float]:
    k1x, k1p = _velocity(c, x, p)
    k2x, k2p = _velocity(c, x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
    k3x, k3p = _velocity(c, x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
    k4x, k4p = _velocity(c, x + dt * k3x, p + dt * k3p)
    return (x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
            p + dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0)


def _crossing_time(c: tuple, x: float, p: float,
                   dt: float) -> tuple[float, float, float]:
    """Refine the x=0 crossing inside one step from (x, p), x < 0.

    Bisection on the sub-step length; each trial is a single RK4 step, so
    the refined state carries the integrator's own accuracy.
    """
    lo, hi = 0.0, dt
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        xm, _ = _rk4_t(c, x, p, mid)
        if xm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-18 * dt:
            break
    tau = 0.5 * (lo + hi)
    xs, ps = _rk4_t(c, x, p, tau)
    return tau, xs, ps


def _traverse_pinch(m: float, epsilon: float, c: tuple, t: float, x: float,
                    p: float, dt: float, theta: float, samples: array,
                    budget: int) -> tuple[float, float, float, int] | None:
    """Carry (t, x, p) through the pinch window in x-parametrized form.

    Returns the state at the window's exit and the steps taken, or None
    once `budget` steps are spent inside the window.
    """
    c_sextic = float(_SEXTIC_SHAPE[2, 6, -2][0]) * m * epsilon * epsilon
    energy = _energy(c, x, p)
    m_energy = m * energy
    threshold = theta * m_energy

    xdot, _ = _velocity(c, x, p)
    if xdot == 0.0:
        raise EngineError("pinch window entered with zero velocity")
    h = math.copysign(abs(xdot) * dt, xdot)

    # Each stage evaluates dw/dx = a x^5 w^(1/3) / den and
    # dt/dx = m w^(1/3) / (2 den), den = w^(2/3) - mE, in place.
    kh, ch = c[0], c[1]
    a = -9.0 * m * c_sextic
    half = 0.5 * h
    add_row = samples.frombytes
    # pw = w^(1/3) and x5 = x^5 carry over from a step's end to the
    # next step's first stage.
    w = p ** 3
    pw, x5 = _cbrt(w), x ** 5
    max_inner = int(4.0 * abs(x) / abs(h)) + 64
    for steps in range(1, min(max_inner, budget) + 1):
        den = pw * pw - m_energy
        k1w = a * x5 * pw / den
        k1t = m * pw / (2.0 * den)
        xm5 = (x + half) ** 5
        wc = _cbrt(w + half * k1w)
        den = wc * wc - m_energy
        k2w = a * xm5 * wc / den
        k2t = m * wc / (2.0 * den)
        wc = _cbrt(w + half * k2w)
        den = wc * wc - m_energy
        k3w = a * xm5 * wc / den
        k3t = m * wc / (2.0 * den)
        x += h
        x5 = x ** 5
        wc = _cbrt(w + h * k3w)
        den = wc * wc - m_energy
        k4w = a * x5 * wc / den
        k4t = m * wc / (2.0 * den)
        w += h * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
        t += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
        pw = _cbrt(w)
        add_row(_pack_row(t, x, pw, 0.0 + kh * pw ** 2 + ch * x ** 6 * pw ** -2
                          if pw != 0.0 else math.inf))
        if pw * pw >= threshold:
            return t, x, pw, steps
    if budget < max_inner:
        return None
    raise EngineError("pinch window failed to exit")


def _require_count(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EngineError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise EngineError(f"{name} must be at least 1")


def integrate_orbit(hc: ClassicalHamiltonian, epsilon: float, *,
                    x0: float = 0.0, p0: float | None = None,
                    dt: float = 1e-3, periods: int = 1, theta: float = 0.4,
                    max_steps: int = 2_000_000) -> OrbitResult:
    """Integrate the orbit through `periods` returns to the section.

    The section is x = 0 crossed with xdot > 0 (the outer branch); the
    pinch also sits at x = 0 but is crossed with xdot < 0 inside the
    window, so the two never mix.  With the default x0 = 0, p0 > 0 the
    initial point lies on the section and `period` is the first return
    time; otherwise one extra crossing is used to open the interval.
    `max_steps` bounds every RK4 step taken, inside pinch windows too.
    If the section is never reached within it (e.g. epsilon = 0, where
    the motion is free and unbounded), `period` and `closure` are None
    and the rows simply record the integrated stretch.  `epsilon`, `dt`,
    `x0`, `p0` (or None) and `theta` must be finite reals (not bools),
    `periods` and `max_steps` ints of at least 1, and 0 < `theta` < 1;
    `epsilon`, `x0` and `p0` are used as floats.
    """
    _require_sextic(hc)
    for name, value in (("epsilon", epsilon), ("dt", dt), ("x0", x0), ("p0", p0), ("theta", theta)):
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real or (name == "p0" and value is None)):
            raise EngineError(f"{name} must be a real number, got {value!r}")
        if real and not abs(value) <= sys.float_info.max:  # NaN, inf, past floats
            raise EngineError(f"{name} must be finite, got {value!r}")
    if epsilon < 0.0:
        raise EngineError("epsilon must be non-negative")
    epsilon = float(epsilon)
    if dt <= 0.0:
        raise EngineError("dt must be positive")
    _require_count("periods", periods)
    _require_count("max_steps", max_steps)
    if not 0.0 < theta < 1.0:
        raise EngineError(f"theta must lie strictly between 0 and 1, got {theta!r}")
    try:
        c = _sextic_constants(hc, epsilon)
        return _integrate(float(hc.mass), epsilon, c, x0, p0, dt, periods,
                          theta, max_steps)
    except OverflowError as exc:
        raise EngineError("orbit left the floating-point range") from exc


def _integrate(m: float, epsilon: float, c: tuple, x0: float,
               p0: float | None, dt: float, periods: int, theta: float,
               max_steps: int) -> OrbitResult:
    kh, ch, cx, kp, cp = c
    half = 0.5 * dt
    if p0 is None:
        p0 = math.sqrt(2.0 * m)
    if p0 == 0.0:
        raise EngineError("p0 = 0 sits on the pinch itself")

    t, x, p = 0.0, float(x0), float(p0)
    # x6 = x^6 and pm2 = p^-2 carry over from a sample's H to the next t
    # step's first stage; a window exit forms them afresh.
    x6, pm2 = x ** 6, p ** -2
    e0 = 0.0 + kh * p ** 2 + ch * x6 * pm2
    if e0 <= 0.0:
        raise EngineError("initial energy must be positive")
    gate = theta * m * e0

    samples = array("d", (t, x, p, e0))
    add_row = samples.frombytes
    windows: list = []
    drift = 0.0
    start_on_section = x0 == 0.0 and p0 > 0.0
    crossings: list = [(t, x, p)] if start_on_section else []
    needed = periods + 1
    done = False

    # Every step, inside a window or out, adds one sample.
    steps = 0
    while steps < max_steps:
        if p * p < gate and x * p > 0.0:
            t_in = t
            state = _traverse_pinch(m, epsilon, c, t, x, p, dt, theta,
                                    samples, max_steps - steps)
            if state is None:
                break
            t, x, p, taken = state
            steps += taken
            windows.append((t_in, t))
            x6, pm2 = x ** 6, p ** -2
            continue
        # _rk4_t and then _energy, written out (see the module docstring).
        x_prev, p_prev = x, p
        k1x = 0.0 + kp * p + cp * x6 * p ** -3
        k1p = -(0.0 + cx * x ** 5 * pm2)
        xa, pa = x_prev + half * k1x, p_prev + half * k1p
        k2x = 0.0 + kp * pa + cp * xa ** 6 * pa ** -3
        k2p = -(0.0 + cx * xa ** 5 * pa ** -2)
        xa, pa = x_prev + half * k2x, p_prev + half * k2p
        k3x = 0.0 + kp * pa + cp * xa ** 6 * pa ** -3
        k3p = -(0.0 + cx * xa ** 5 * pa ** -2)
        xa, pa = x_prev + dt * k3x, p_prev + dt * k3p
        k4x = 0.0 + kp * pa + cp * xa ** 6 * pa ** -3
        k4p = -(0.0 + cx * xa ** 5 * pa ** -2)
        x = x_prev + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        p = p_prev + dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        t += dt
        steps += 1
        if x_prev < 0.0 <= x:
            tau, xs, ps = _crossing_time(c, x_prev, p_prev, dt)
            crossings.append((t - dt + tau, xs, ps))
            done = len(crossings) >= needed
            if done:
                t, x, p = crossings[-1][0], xs, ps
        x6, pm2 = x ** 6, p ** -2
        h_now = 0.0 + kh * p ** 2 + ch * x6 * pm2
        add_row(_pack_row(t, x, p, h_now))
        if p * p >= gate:
            d = abs(h_now / e0 - 1.0)
            if d > drift:
                drift = d
        if done:
            break

    period = closure = None
    if done:
        t_a, x_a, p_a = crossings[0]
        t_b, x_b, p_b = crossings[-1]
        period = (t_b - t_a) / periods
        closure = math.hypot(x_b - x_a, p_b - p_a)

    return OrbitResult(epsilon=epsilon, mass=m, dt=dt,
                       rows=OrbitRows(samples), period=period,
                       closure=closure, energy_drift=drift,
                       windows=tuple(windows))
