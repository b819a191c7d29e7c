"""qmetric benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): derive-formal, derive-numeric, dress and
cli-sweep.  One client drives the engine in a closed loop: one step in
flight at a time, each in a fresh child process, never two at once.
qmetric is imported from ``src/`` beside this directory; without it the
run fails with exit code 2.

``--trace 0`` repeats rounds of the workload's steps for up to S seconds
(at least MIN_ROUNDS rounds) with tracing off and reports
  wall_s       median time of each step, summed over the steps; set-up is
               excluded: a library step is timed inside its process once
               qmetric is imported and the inputs are built, a cli-sweep
               step is its whole ``python -m qmetric`` process
  setup_s      median over SETUP_REPS fresh interpreters of start-up,
               ``import qmetric`` and input generation
  peak_rss_mb  largest peak resident memory of any child process
  ok_ratio     share of steps whose output passed its check

``--trace 1`` runs one untraced round and two traced rounds and reports the
per-layer metrics listed in PER_LAYER, averaged over the two traced
rounds.  Every value that is not a time (``*.calls``, ``size.*``, the
orbit and battery facts) must repeat exactly between them, or the run
counts as failed.  ``trace.overhead_s`` is the traced minus the untraced
round time.

Every step's output is checked (see workloads.py) outside the timed
window; a crash or a mismatch is a failed step.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record, with the seed and provenance, also written to
``perfbench/out/``.  ``--size tiny`` shrinks every workload for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import merge
from workloads import (CHILD_TIMEOUT_S, OUT, SIZES, SRC, WORKLOADS, HERE,
                       child_env)

MIN_ROUNDS = 3
SETUP_REPS = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}

_BUILD_R_ORDERS = tuple(f"perturbation.build_r.o{j}.s" for j in range(1, 9))
_CLI_STEPS = WORKLOADS["cli-sweep"].steps

# name -> (unit, better)
PER_LAYER = {
    **{f"backend.{f}.calls": ("count", "lower")
       for f in ("q_make", "q_mul", "q_add", "poly_add", "poly_scale", "poly_mul",
                 "ev_mul", "gcd", "expr_mul")},
    "backend.expr_mul.s": ("s", "lower"),
    "params.mul.calls": ("count", "lower"),
    "algebra.commutator.calls": ("count", "lower"),
    "algebra.commutator.s": ("s", "lower"),
    "algebra.commutator.self_s": ("s", "lower"),
    "algebra.hermiticity.s": ("s", "lower"),
    "algebra.hermiticity.self_s": ("s", "lower"),
    "algebra.scaling_degree.s": ("s", "lower"),
    "perturbation.derive.s": ("s", "lower"),
    "perturbation.derive.self_s": ("s", "lower"),
    "perturbation.build_r.s": ("s", "lower"),
    "perturbation.build_r.self_s": ("s", "lower"),
    **{name: ("s", "lower") for name in _BUILD_R_ORDERS},
    "perturbation.solve.s": ("s", "lower"),
    "perturbation.solve.self_s": ("s", "lower"),
    "perturbation.strip.s": ("s", "lower"),
    "perturbation.extend_one_order.s": ("s", "lower"),
    "series.series_commutator.calls": ("count", "lower"),
    "series.series_commutator.s": ("s", "lower"),
    "series.series_commutator.self_s": ("s", "lower"),
    "observables.observable_x.s": ("s", "lower"),
    "observables.observable_p.s": ("s", "lower"),
    "observables.equivalent_hermitian.s": ("s", "lower"),
    "observables.equivalent_hermitian.self_s": ("s", "lower"),
    "size.q.monomials": ("count", "lower"),
    "size.q.coeff_terms": ("count", "lower"),
    "size.q.max_bits": ("bits", "lower"),
    "size.r.coeff_terms": ("count", "lower"),
    "size.h.coeff_terms": ("count", "lower"),
    "size.h.max_bits": ("bits", "lower"),
    "flow.integrate_orbit.s": ("s", "lower"),
    "flow.to_csv.s": ("s", "lower"),
    "flow.samples": ("count", "higher"),
    "flow.samples_per_s": ("1/s", "higher"),
    "flow.pinch_windows": ("count", "higher"),
    "flow.energy_drift": ("ratio", "lower"),
    "verify.run_verification.s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "kernels.to_kernel.s": ("s", "lower"),
    **{f"cli.{step}.wall_s": ("s", "lower") for step in _CLI_STEPS},
    "import.qmetric.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _exact(name: str) -> bool:
    """Counts and facts read off outputs, which must repeat exactly; not times."""
    return not name.endswith((".s", "_s"))


# -- set-up ------------------------------------------------------------------

_SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import qmetric, workloads; "
                "workloads.WORKLOADS[sys.argv[2]].inputs(int(sys.argv[3]), sys.argv[4])")
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import qmetric; "
                 "print(time.perf_counter() - t)")


def _probe(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", *argv], env=child_env(), check=True,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.stdout


def setup_times(workload, seed: int, size: str) -> list[float]:
    """Fresh-interpreter set-up times; the first, untimed, fills the bytecode cache."""
    argv = [_SETUP_PROBE, str(HERE), workload.name, str(seed), size]
    return [_probe(argv)[0] for _ in range(SETUP_REPS + 1)][1:]


def import_times() -> list[float]:
    return [float(_probe([_IMPORT_PROBE])[1]) for _ in range(SETUP_REPS + 1)][1:]


# -- steps -------------------------------------------------------------------

class Outcomes:
    """Digest and problems of every step run, checked once expectations exist."""

    def __init__(self):
        self.rows: list[tuple[str, str | None, list[str]]] = []

    def add(self, step: str, digest: str | None, problems: list[str]) -> None:
        self.rows.append((step, digest, problems))

    def failures(self, expected: dict) -> list[str]:
        out = []
        for i, (step, digest, problems) in enumerate(self.rows):
            found = list(problems)
            if digest is not None and digest != expected.get(step):
                found.append(f"digest {digest[:16]} != expected "
                             f"{str(expected.get(step))[:16]}")
            out += [f"step {i} ({step}): {p}" for p in found]
        return out

    def failed(self, expected: dict) -> int:
        return sum(1 for step, digest, problems in self.rows
                   if problems or digest is None or digest != expected.get(step))


def _cli_step(workload, step: str, seed: int, size: str, scratch: Path,
              outcomes: Outcomes, trace_file: Path | None) -> float:
    argv = workload.inputs(seed, size)
    t0 = time.perf_counter()
    try:
        result = workload.run(step, argv, scratch, trace_file)
    except (OSError, subprocess.TimeoutExpired) as exc:
        outcomes.add(step, None, [repr(exc)])
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    outcomes.add(step, workload.digest(step, result), workload.problems(step, result))
    return elapsed


def _library_step(workload, step: str, seed: int, size: str, scratch: Path,
                  outcomes: Outcomes, trace_file: Path | None) -> float:
    cmd = [sys.executable, str(HERE / "step_child.py"), workload.name, str(seed), size]
    if trace_file is not None:
        cmd.append(str(trace_file))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=scratch, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        outcomes.add(step, None, [repr(exc)])
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if proc.returncode != 0 or report is None:
        outcomes.add(step, None, [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return elapsed
    outcomes.add(step, report["digest"], report["problems"])
    return report["seconds"]


def run_step(workload, step: str, seed: int, size: str, scratch: Path,
             outcomes: Outcomes, trace_file: Path | None = None) -> float:
    """Run one step in a fresh process and return its time; check it afterwards.

    A library step's time is taken inside its process after set-up; a CLI
    step's time is the whole process.  A crash is a failed step, not a
    failed run.
    """
    run = _cli_step if workload.cli else _library_step
    return run(workload, step, seed, size, scratch, outcomes, trace_file)


# -- the two kinds of run -------------------------------------------------------

def measured_run(workload, seed: int, size: str, seconds: float, scratch: Path) -> dict:
    setup = setup_times(workload, seed, size)
    outcomes = Outcomes()
    times: dict[str, list[float]] = {step: [] for step in workload.steps}
    start = time.perf_counter()
    round_times: list[float] = []
    while True:
        r0 = time.perf_counter()
        for step in workload.steps:
            times[step].append(run_step(workload, step, seed, size, scratch, outcomes))
        round_times.append(time.perf_counter() - r0)
        # Stop before a round that would likely end past the deadline.
        if (len(round_times) >= MIN_ROUNDS and time.perf_counter() - start
                + statistics.median(round_times) > seconds):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    expected = workload.expected(seed, size)
    attempted, failed = len(outcomes.rows), outcomes.failed(expected)
    metrics = {
        "wall_s": sum(statistics.median(t) for t in times.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {"attempted": attempted, "failed": failed, "rounds": len(round_times),
            "failures": outcomes.failures(expected), "step_times": times,
            "setup_times": setup, "metrics": metrics}


def _traced_round(workload, seed: int, size: str, scratch: Path, outcomes: Outcomes,
                  label: str) -> tuple[float, dict]:
    """One traced round: (time, per-layer metrics merged over its steps)."""
    wall, metrics = 0.0, {}
    for step in workload.steps:
        trace_file = OUT / f"trace-{workload.name}-{size}-seed{seed}-{label}-{step}.json"
        trace_file.unlink(missing_ok=True)
        wall += run_step(workload, step, seed, size, scratch, outcomes, trace_file)
        if trace_file.exists():
            merge(metrics, json.loads(trace_file.read_text(encoding="utf-8")))
    return wall, metrics


def traced_run(workload, seed: int, size: str, scratch: Path) -> dict:
    imports = import_times()
    outcomes = Outcomes()
    untraced = {step: run_step(workload, step, seed, size, scratch, outcomes)
                for step in workload.steps}
    (wall1, first), (wall2, second) = [
        _traced_round(workload, seed, size, scratch, outcomes, f"round{k}") for k in (1, 2)]
    expected = workload.expected(seed, size)
    failures = outcomes.failures(expected)
    failed = outcomes.failed(expected)
    names = sorted(set(first) | set(second))
    unrepeated = [n for n in names if _exact(n) and first.get(n) != second.get(n)]
    if unrepeated:  # the repeat check counts as one more, failed, operation
        failed += 1
        failures.append("counts differ between the two traced rounds: "
                        + ", ".join(f"{n} {first.get(n)} vs {second.get(n)}"
                                    for n in unrepeated))
    layer = {n: first.get(n, 0) if _exact(n)
             else (first.get(n, 0) + second.get(n, 0)) / 2 for n in names}
    orbit_s = layer.get("flow.integrate_orbit.s", 0)
    layer["flow.samples_per_s"] = layer.get("flow.samples", 0) / orbit_s if orbit_s else 0
    layer["trace.overhead_s"] = (wall1 + wall2) / 2 - sum(untraced.values())
    layer["import.qmetric.s"] = statistics.median(imports)
    if workload.cli:
        layer.update({f"cli.{step}.wall_s": t for step, t in untraced.items()})
    metrics = {name: layer.get(name, 0) for name in PER_LAYER}
    return {"attempted": len(outcomes.rows) + (1 if unrepeated else 0), "failed": failed,
            "failures": failures, "untraced_step_times": untraced,
            "traced_round_times": [wall1, wall2], "import_times": imports,
            "all_layers": layer, "metrics": metrics}


# -- provenance and output -----------------------------------------------------

def provenance() -> dict:
    import qmetric

    commit = dirty = None
    root = HERE.parent
    if (root / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        else:
            if head.returncode == 0 and status.returncode == 0:
                commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "backend": qmetric.backend_name(), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "git_commit": commit, "git_dirty": dirty}


def import_qmetric() -> str | None:
    """Import qmetric from SRC; return an error message instead if that fails."""
    if not (SRC / "qmetric" / "__init__.py").is_file():
        return f"no qmetric sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import qmetric

    if Path(qmetric.__file__).resolve().parent != SRC / "qmetric":
        return f"imported qmetric from {qmetric.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long to repeat the workload with tracing off")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="problem size (tiny is for the self-test)")
    args = ap.parse_args(argv)

    error = import_qmetric()
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    try:
        if args.trace:
            record = traced_run(workload, args.seed, args.size, scratch)
        else:
            record = measured_run(workload, args.seed, args.size, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = {**END_TO_END, **{n: u for n, (u, _) in PER_LAYER.items()}}
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in record["metrics"].items()}}
    full = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance(), **record, "result": result}
    text = json.dumps(full)
    (OUT / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
