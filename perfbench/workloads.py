"""The benchmark's four workloads: seeded inputs, timed steps, output checks.

A workload is a fixed sequence of steps, each run in a fresh process.
``derive-formal``, ``derive-numeric`` and ``dress`` have one library step,
which ``step_child.py`` times inside its process once set-up is done;
``cli-sweep`` has one ``python -m qmetric`` process per subcommand, timed
whole.  ``digest`` reduces a step's output to the SHA-256 that
``expected`` must reproduce.

Expected digests come from ``digests.json``, recorded on the commit that
defines correct output (see ``record.py``).  Seeded steps at any other
seed than ``DEFAULT_SEED`` are checked instead against the recorded
formal series in ``formal8.txt`` with the seed's amplitudes substituted.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
FORMAL_SERIES = HERE / "formal8.txt"

# "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {"derive_order": 8, "dress_order": 6, "cli_order": 6, "periods": 20},
    "tiny": {"derive_order": 3, "dress_order": 3, "cli_order": 3, "periods": 1},
}

CHILD_TIMEOUT_S = 120
MAX_ENERGY_DRIFT = 1e-10


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def amplitudes(seed: int, count: int) -> list[Fraction]:
    """Nonzero rationals with numerator and denominator up to 999 in size."""
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        num = rng.randint(-999, 999)
        if num:
            out.append(Fraction(num, rng.randint(1, 999)))
    return out


def child_env() -> dict:
    """Environment for a child interpreter that imports qmetric from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def serialize_series(exprs) -> str:
    from qmetric.algebra import serialize_expr

    return "".join(serialize_expr(e) + "\n" for e in exprs)


def _formal_series(order: int) -> list:
    """Q_1..Q_order of the recorded formal series (Q_j does not depend on N)."""
    from qmetric.algebra import parse_expr

    lines = FORMAL_SERIES.read_text(encoding="utf-8").splitlines()
    return [parse_expr(line) for line in lines[:order]]


def recorded(size: str, workload: str) -> dict:
    """Step -> digest that record.py stored for this size and workload."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[size][workload]


class Workload:
    """Defaults: one library step whose digest is the whole check."""

    cli = False
    seeded = False

    def problems(self, step: str, output) -> list[str]:
        return []

    def expected(self, seed: int, size: str) -> dict:
        """Step -> SHA-256 that the step's output must have."""
        if self.seeded and seed != DEFAULT_SEED:
            return self.substituted(seed, size)
        return recorded(size, self.name)


# -- library workloads -------------------------------------------------------

class DeriveFormal(Workload):
    name = "derive-formal"
    steps = ("derive",)

    def inputs(self, seed: int, size: str):
        from qmetric.perturbation import MetricParams

        return MetricParams.formal(SIZES[size]["derive_order"])

    def run(self, step: str, params):
        import qmetric.perturbation as P

        # Looked up on the module at call time, so a tracer's wrapper is used.
        return P.derive_metric_series(params)

    def digest(self, step: str, output) -> str:
        return sha256(serialize_series(output.q_list()))


class DeriveNumeric(DeriveFormal):
    name = "derive-numeric"
    seeded = True

    def inputs(self, seed: int, size: str):
        from qmetric.perturbation import MetricParams

        n = SIZES[size]["derive_order"]
        amps = amplitudes(seed, 2 * n)
        return MetricParams.numeric(n, amps[:n], amps[n:])

    def substituted(self, seed: int, size: str) -> dict:
        """Digests from the recorded formal series with this seed's amplitudes."""
        n = SIZES[size]["derive_order"]
        amps = amplitudes(seed, 2 * n)
        values = {f"l{j + 1}": amps[j] for j in range(n)}
        values.update({f"k{j + 1}": amps[n + j] for j in range(n)})
        series = [q.substitute(values) for q in _formal_series(n)]
        return {"derive": sha256(serialize_series(series))}


class Dress(DeriveFormal):
    name = "dress"
    steps = ("dress",)

    def inputs(self, seed: int, size: str):
        from qmetric.perturbation import MetricParams

        return MetricParams.formal(SIZES[size]["dress_order"])

    def run(self, step: str, params):
        import qmetric.observables as O
        import qmetric.perturbation as P

        qs = P.derive_metric_series(params)
        return O.observable_x(qs), O.observable_p(qs), O.equivalent_hermitian(qs)

    def digest(self, step: str, output) -> str:
        from qmetric.algebra import serialize_expr

        lines = [f"{label}[{j}] = {serialize_expr(series.coeff(j))}\n"
                 for label, series in zip("XPh", output) for j in series.indices()]
        return sha256("".join(lines))


# -- fresh-process workload --------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    """What one CLI process left behind."""

    returncode: int
    stdout: bytes
    stderr: bytes
    csv: Path | None  # the orbit CSV, read when the step is checked


class CliSweep(Workload):
    name = "cli-sweep"
    steps = ("derive", "observables", "verify-tables", "classical", "orbit",
             "free-particle")
    cli = True
    seeded = True

    def inputs(self, seed: int, size: str) -> dict:
        l1, k1 = amplitudes(seed, 2)
        s = SIZES[size]
        return {
            "derive": ["derive", "--order", str(s["cli_order"]), f"--l1={l1}", f"--k1={k1}"],
            "observables": ["observables"],
            "verify-tables": ["verify-tables"],
            "classical": ["classical"],
            "orbit": ["orbit", "--periods", str(s["periods"]), "--out", "orbit.csv"],
            "free-particle": ["free-particle"],
        }

    def command(self, step: str, argv: dict, trace_file: Path | None) -> list[str]:
        if trace_file is None:
            return [sys.executable, "-m", "qmetric", *argv[step]]
        return [sys.executable, str(HERE / "trace_child.py"), str(trace_file), *argv[step]]

    def run(self, step: str, argv: dict, scratch: Path, trace_file: Path | None = None):
        """Run one subcommand to completion, with ``scratch`` as its directory."""
        proc = subprocess.run(self.command(step, argv, trace_file), cwd=scratch,
                              env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        return CliResult(proc.returncode, proc.stdout, proc.stderr,
                         scratch / "orbit.csv" if step == "orbit" else None)

    def digest(self, step: str, output: CliResult) -> str:
        if output.csv is None:
            return sha256(output.stdout)
        csv = output.csv.read_bytes() if output.csv.exists() else b""
        return sha256(sha256(output.stdout) + sha256(csv))

    def problems(self, step: str, output: CliResult) -> list[str]:
        """Checks beyond the digest: exit code, battery verdict, orbit drift."""
        text = output.stdout.decode("utf-8", "replace")
        found = []
        if output.returncode != 0:
            found.append(f"exit code {output.returncode}: "
                         f"{output.stderr.decode('utf-8', 'replace').strip()[-300:]}")
        if step == "verify-tables" and (re.search(r"^FAIL ", text, re.M)
                                        or not re.search(r" 0 failed$", text, re.M)):
            found.append("verify-tables reported a FAIL")
        if step == "orbit":
            m = re.search(r"^energy drift = (\S+)$", text, re.M)
            if not m or not float(m.group(1)) < MAX_ENERGY_DRIFT:
                found.append(f"orbit energy drift {m.group(1) if m else 'missing'}")
        return found

    def substituted(self, seed: int, size: str) -> dict:
        """The recorded digests, with ``derive``'s rebuilt from the recorded
        formal series and this seed's l1, k1 (the CLI's text layout)."""
        from qmetric.params import ParamPoly

        order = SIZES[size]["cli_order"]
        l1, k1 = amplitudes(seed, 2)
        values = {"l1": l1, "k1": k1}
        names = [f"{s}{j}" for j in range(1, order + 1) for s in "lk"]
        echo = " ".join(f"{n}={ParamPoly(values[n]) if n in values else n}" for n in names)
        lines = [f"order {order} metric generator; parameters: {echo}\n"]
        lines += [f"Q_{j} = {q.substitute(values)}\n"
                  for j, q in enumerate(_formal_series(order), start=1)]
        return dict(recorded(size, self.name), derive=sha256("".join(lines)))


WORKLOADS = {w.name: w for w in (DeriveFormal(), DeriveNumeric(), Dress(), CliSweep())}
