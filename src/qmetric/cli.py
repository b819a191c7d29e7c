"""Command-line interface.

Subcommands
-----------
derive         construct the generator orders Q_1..Q_N and print each one
verify-tables  run the cross-check battery (exit 1 if any check fails)
observables    dressed position/momentum and the equivalent Hermitian form
classical      classical limit of the equivalent Hermitian Hamiltonian
orbit          integrate closed classical orbits and write t,x,p,H samples
free-particle  exact parity-twisted metric for the free Hamiltonian

Free amplitudes are given as exact rationals ("3/4") or the word
"formal"; unset amplitudes stay formal.  For ``free-particle`` the same
two flags are reused with a different meaning, documented in their help
text: --l1 is the overall scale e^-lambda and --k1 the parity ratio
e^kappa.

Each option comes from its flag, else from a JSON config file (--config,
any long option of the chosen subcommand spelled with underscores), else
from the parser's default.  A config value is checked as its flag would
be, even when a flag overrides it, and an empty value is an error.
Every failure prints one stderr line.  Exit codes: 0 success (flagged
table deviations included), 1 broken engine invariant or failed
verification, 2 bad command line or config file, or output (help
included) that could not be written to --out or stdout; a stderr that
cannot take the one-line diagnostic leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .errors import EngineError
from .freeparticle import (free_metric, inner_product_weights,
                           localized_weights, momentum_observable,
                           position_observable)
from .observables import (classical_limit, equivalent_hermitian,
                          observable_p, observable_x)
from .perturbation import MetricParams, derive_metric_series
from .verify import run_verification

__all__ = ["main"]


class ConfigError(Exception):
    pass


class OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Lets a failed write of help text reach ``_output``, where argparse
    would drop it, and turns a usage error into one ConfigError line."""

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()

    def error(self, message):
        raise ConfigError(message)


_PARAM_FLAGS = ("l1", "l2", "l3", "k1", "k2", "k3")


def _rational(text: str, flag: str) -> Fraction:
    try:
        if "_" in text:  # Fraction reads '1_0' as 10 only from Python 3.11 on
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{flag}: {text!r} is not a rational number") from exc


def _param_value(text: str, flag: str):
    if text == "formal":
        return "formal"
    return _rational(text, flag)


def _metric_params(ns, order: int) -> MetricParams:
    lam = [_param_value(getattr(ns, f"l{j}"), f"--l{j}")
           for j in range(1, min(order, 3) + 1)]
    kap = [_param_value(getattr(ns, f"k{j}"), f"--k{j}")
           for j in range(1, min(order, 3) + 1)]
    lam += ["formal"] * (order - len(lam))
    kap += ["formal"] * (order - len(kap))
    return MetricParams.numeric(order, lam, kap)


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc


def _discard(stream) -> None:
    """Point `stream` at the null device, so its buffered rest cannot fail again at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


@contextlib.contextmanager
def _output(path: str | None):
    """The stream for --out `path`, or stdout; a failed write raises OutputError."""
    try:
        if path is not None:
            with _open_out(path) as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if path is None:
            _discard(sys.stdout)
        raise OutputError(f"{'stdout' if path is None else '--out ' + path}: {exc}") from exc


def _emit(ns, text: str) -> None:
    with _output(ns.out) as fh:
        fh.write(text)


def _param_echo(params: MetricParams) -> dict:
    out = {}
    for j in range(1, params.order + 1):
        out[f"l{j}"] = str(params.lam_at(j))
        out[f"k{j}"] = str(params.kap_at(j))
    return out


# -- subcommand bodies -------------------------------------------------------

def _cmd_derive(ns) -> int:
    params = _metric_params(ns, ns.order)
    qs = derive_metric_series(params)
    if ns.format == "json":
        doc = {"order": ns.order, "params": _param_echo(params),
               "q": {str(j): str(qs.q(j)) for j in range(1, ns.order + 1)}}
        _emit(ns, json.dumps(doc, indent=2) + "\n")
        return 0
    lines = ["order %d metric generator; parameters: %s" % (
        ns.order, " ".join(f"{k}={v}" for k, v in _param_echo(params).items()))]
    for j in range(1, ns.order + 1):
        lines.append(f"Q_{j} = {qs.q(j)}")
    _emit(ns, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(ns) -> int:
    report = run_verification()
    _emit(ns, report.render())
    return 1 if report.failed else 0


def _series_doc(label: str, series) -> list:
    return [(f"{label}[{j}]", str(series.coeff(j)))
            for j in range(series.order + 1) if not series.coeff(j).is_zero()]


def _cmd_observables(ns) -> int:
    params = _metric_params(ns, ns.order)
    qs = derive_metric_series(params)
    xo, po = observable_x(qs), observable_p(qs)
    h = equivalent_hermitian(qs)
    blocks = _series_doc("X", xo) + _series_doc("P", po) + _series_doc("h", h)
    if ns.format == "json":
        doc = {"order": ns.order, "params": _param_echo(params),
               "coefficients": {k: v for k, v in blocks}}
        _emit(ns, json.dumps(doc, indent=2) + "\n")
        return 0
    lines = [f"{k} = {v}" for k, v in blocks]
    _emit(ns, "\n".join(lines) + "\n")
    return 0


def _classical_text(term) -> str:
    j, a, b, c, mpow = term
    parts = [f"({c})"]
    if mpow:
        parts.append("m" if mpow == 1 else f"m^{mpow}")
    if j:
        parts.append(f"eps^{j}" if j != 1 else "eps")
    if a:
        parts.append(f"x^{a}" if a != 1 else "x")
    if b:
        parts.append(f"p^{b}" if b != 1 else "p")
    return " ".join(parts)


def _cmd_classical(ns) -> int:
    mass = _rational(ns.mass, "--mass")
    if mass <= 0:
        raise ConfigError(f"--mass: {ns.mass!r} is not positive")
    qs = derive_metric_series(MetricParams.formal(ns.order))
    hc = classical_limit(equivalent_hermitian(qs), mass=mass)
    terms = sorted(hc.terms)
    if ns.format == "json":
        doc = {"order": ns.order, "mass": str(mass),
               "terms": [{"eps": j, "x": a, "p": b, "coeff": str(c),
                          "mass_power": mpow} for j, a, b, c, mpow in terms]}
        _emit(ns, json.dumps(doc, indent=2) + "\n")
        return 0
    _emit(ns, "H_c = " + " + ".join(_classical_text(t) for t in terms) + "\n")
    return 0


def _cmd_orbit(ns) -> int:
    from .flow import integrate_orbit

    mass = _rational(ns.mass, "--mass")
    if mass <= 0:
        raise ConfigError(f"--mass: {ns.mass!r} is not positive")
    qs = derive_metric_series(MetricParams.formal(2))
    hc = classical_limit(equivalent_hermitian(qs), mass=mass)
    orbit = integrate_orbit(hc, ns.epsilon, x0=ns.init_x, p0=ns.init_p, dt=ns.dt,
                            periods=ns.periods, max_steps=ns.steps)
    with _output(ns.out) as fh:
        orbit.to_csv(fh)
    period = "none" if orbit.period is None else "%.12e" % orbit.period
    closure = "none" if orbit.closure is None else "%.12e" % orbit.closure
    summary = (f"period = {period}\n"
               f"closure = {closure}\n"
               f"energy drift = {orbit.energy_drift:.12e}\n"
               f"samples = {len(orbit.rows)}\n"
               f"pinch windows = {len(orbit.windows)}\n")
    if ns.out is not None:
        with _output(None) as fh:
            fh.write(summary)
    else:
        sys.stderr.write(summary)
    return 0


def _parity_text(pl) -> str:
    if pl.b == 0:
        return str(pl.a)
    sign = "-" if pl.b < 0 else "+"
    return f"{pl.a} {sign} {abs(pl.b)}*P"


def _cmd_free(ns) -> int:
    scale = _rational(ns.l1, "--l1")
    ratio = _rational(ns.k1, "--k1")
    if scale <= 0:
        raise ConfigError(f"--l1: scale {ns.l1!r} is not positive")
    if ratio <= 0:
        raise ConfigError(f"--k1: ratio {ns.k1!r} is not positive")
    eta = free_metric(ratio, scale)
    xo, po = position_observable(ratio), momentum_observable(ratio)
    doc = {"scale": str(scale), "ratio": str(ratio),
           "eta": _parity_text(eta), "X": str(xo), "P": str(po),
           "positive": eta.is_positive()}
    try:
        doc["eta_sqrt"] = _parity_text(eta.sqrt())
    except EngineError:
        doc["eta_sqrt"] = None
    try:
        cw, sw = inner_product_weights(ratio, scale)
        doc["plane_wave_weights"] = [str(cw), str(sw)]
        lw = localized_weights(ratio, scale)
        doc["localized_weights"] = [str(lw[0]), str(lw[1])]
    except EngineError:
        doc["plane_wave_weights"] = doc["localized_weights"] = None
    if ns.format == "json":
        _emit(ns, json.dumps(doc, indent=2) + "\n")
        return 0
    lines = [f"eta = {doc['eta']}",
             f"X = {doc['X']}",
             f"P = {doc['P']}",
             f"eta positive: {'yes' if doc['positive'] else 'no'}"]
    if doc["eta_sqrt"] is not None:
        lines.append(f"eta^(1/2) = {doc['eta_sqrt']}")
    else:
        lines.append("eta^(1/2): not an exact rational square")
    if doc["plane_wave_weights"] is not None:
        lines.append("plane-wave weights: %s, %s" % tuple(doc["plane_wave_weights"]))
        lines.append("localized weights: %s, %s" % tuple(doc["localized_weights"]))
    else:
        lines.append("half-exponent weights: not exact for these values")
    _emit(ns, "\n".join(lines) + "\n")
    return 0


# -- parser / config plumbing -------------------------------------------------

def _add_param_flags(sp) -> None:
    for name in _PARAM_FLAGS:
        kind = "plain" if name[0] == "l" else "parity"
        sp.add_argument(f"--{name}", metavar="RAT", default="formal",
                        help=f"order-{name[1]} {kind} amplitude"
                             " (rational or 'formal'; default %(default)s)")


def _add_common(sp, func, fmt: bool = True) -> None:
    sp.add_argument("--config", metavar="FILE",
                    help="JSON file with defaults for this subcommand")
    sp.add_argument("--out", metavar="FILE", help="write output to FILE")
    if fmt:
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default %(default)s)")
    sp.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmetric",
        description="Exact perturbative metric operators for p^2/2 + i eps x^3.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("derive", help="construct the generator series")
    sp.add_argument("--order", type=int, default=3, choices=range(1, 9), metavar="N",
                    help="perturbative order, 1..8 (default %(default)s)")
    _add_param_flags(sp)
    _add_common(sp, _cmd_derive)

    sp = sub.add_parser("verify-tables", help="run the cross-check battery")
    _add_common(sp, _cmd_verify, fmt=False)

    sp = sub.add_parser("observables", help="dressed X, P and Hermitian form")
    sp.add_argument("--order", type=int, default=3, choices=range(1, 7), metavar="N",
                    help="perturbative order, 1..6 (default %(default)s)")
    _add_param_flags(sp)
    _add_common(sp, _cmd_observables)

    sp = sub.add_parser("classical", help="classical limit of the dressed form")
    sp.add_argument("--order", type=int, default=2, choices=range(1, 5), metavar="N",
                    help="perturbative order, 1..4 (default %(default)s); from order 5"
                         " on h has an eps^6 term of negative hbar weight, which has"
                         " no classical limit")
    sp.add_argument("--mass", default="1", help="particle mass (rational)")
    _add_common(sp, _cmd_classical)

    # The integrator uses the order-2 classical Hamiltonian.
    sp = sub.add_parser("orbit", help="integrate closed classical orbits")
    sp.add_argument("--mass", default="1", help="particle mass (rational)")
    sp.add_argument("--epsilon", type=float, default=0.1,
                    help="coupling strength (default %(default)s)")
    sp.add_argument("--init-x", type=float, default=0.0,
                    help="initial position (default %(default)s)")
    sp.add_argument("--init-p", type=float, default=None,
                    help="initial momentum (default sqrt(2 m))")
    sp.add_argument("--dt", type=float, default=1e-3,
                    help="base time step (default %(default)s)")
    sp.add_argument("--periods", type=int, default=1,
                    help="number of periods to integrate (default %(default)s)")
    sp.add_argument("--steps", type=int, default=2_000_000,
                    help="step budget (default %(default)s)")
    _add_common(sp, _cmd_orbit, fmt=False)

    sp = sub.add_parser("free-particle", help="parity-twisted free metric")
    sp.add_argument("--l1", metavar="RAT", default="1",
                    help="metric scale e^-lambda (positive rational,"
                         " default %(default)s)")
    sp.add_argument("--k1", metavar="RAT", default="2",
                    help="parity ratio e^kappa (positive rational,"
                         " default %(default)s)")
    _add_common(sp, _cmd_free)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """`value` of config `key` as `action`'s flag would give it; lossy coercions refused."""
    bad = f"--config: bad value for {key!r}: {value!r}"
    kind = action.type or str
    # json gives bools as ints and non-integral numbers as floats; int()
    # would silently turn true into 1 and 2.7 into 2.
    inexact = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or inexact or not isinstance(value, (str, int, float)):
        raise ConfigError(bad)
    try:
        value = kind(value)
    except ValueError as exc:
        raise ConfigError(bad) from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{bad} (choose from {', '.join(map(str, action.choices))})")
    return value


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse `argv`; --config values become the subcommand's defaults, so flags win."""
    with _output(None):  # --help writes to stdout
        ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    try:
        with open(ns.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"--config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("--config: top level must be a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[ns.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    values = {}
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"--config: unknown option {key!r} for {ns.command!r}")
        values[action.dest] = _config_value(action, key, value)
    sub.set_defaults(**values)
    return parser.parse_args(argv)


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print the one-line diagnostic if stderr takes it; return `code` either way."""
    try:
        print(f"{kind} error: {exc}", file=sys.stderr)
    except OSError:
        _discard(sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        ns = _parse(build_parser(), argv)
        return ns.func(ns)
    except ConfigError as exc:
        return _fail("config", exc, 2)
    except OutputError as exc:
        return _fail("output", exc, 2)
    except EngineError as exc:
        return _fail("engine", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
