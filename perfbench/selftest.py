"""Self-test of the benchmark at tiny sizes (order 3, one orbit period).

    python3 perfbench/selftest.py

Checks that
* every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json names, in its units, and passes its own output checks,
  at the default seed and (for seeded workloads) at another seed;
* the recorded formal series matches the recorded derive-formal digests,
  and the substitution check reproduces the recorded seeded digests;
* the digest check rejects a tampered output, and a crashed step counts
  as failed;
* the tracer removes every wrapper it installed;
* run.py fails, printing no result, where there are no qmetric sources.
Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, PER_LAYER, Outcomes, import_qmetric, run_step
from tracer import Tracer
from workloads import (DEFAULT_SEED, FORMAL_SERIES, HERE, OUT, SIZES, WORKLOADS,
                       CliResult, recorded, sha256)

ROOT = HERE.parent
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(e2e == END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layer == PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names every workload")
    return {0: e2e, 1: {n: u for n, (u, _) in layer.items()}}


def check_runs(units: dict) -> None:
    for name, workload in WORKLOADS.items():
        seeds = (DEFAULT_SEED, DEFAULT_SEED + 1) if workload.seeded else (DEFAULT_SEED,)
        for seed in seeds:
            for trace in (0, 1):
                proc = run_bench(ROOT, "--workload", name, "--seed", str(seed),
                                 "--seconds", "0.1", "--trace", str(trace), "--size", "tiny")
                what = f"{name} seed {seed} trace {trace}"
                try:
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    check(False, f"{what}: no result line (exit {proc.returncode}) "
                                 f"{proc.stderr[-500:]}")
                    continue
                check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1, f"{what}: correct, nothing failed")
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                check(got == units[trace], f"{what}: every named metric, in its unit")


def check_recorded() -> None:
    text = FORMAL_SERIES.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    for size, sizes in SIZES.items():
        order = sizes["derive_order"]
        check(sha256("".join(lines[:order])) == recorded(size, "derive-formal")["derive"],
              f"formal8.txt agrees with the recorded {size} derive-formal digest")
        for name in ("derive-numeric", "cli-sweep"):
            check(WORKLOADS[name].substituted(DEFAULT_SEED, size) == recorded(size, name),
                  f"substitution reproduces the recorded {size} {name} digests")


def check_tamper() -> None:
    from qmetric.algebra import OperatorExpr
    from qmetric.perturbation import QSeries

    workload = WORKLOADS["derive-formal"]
    expected = workload.expected(DEFAULT_SEED, "tiny")
    qs = workload.run("derive", workload.inputs(DEFAULT_SEED, "tiny"))
    rec = qs.orders[-1]
    bad = QSeries(qs.params, qs.weight, qs.orders[:-1]
                  + (dataclasses.replace(rec, q=rec.q + OperatorExpr.x_power(1)),))
    outcomes = Outcomes()
    outcomes.add("derive", workload.digest("derive", qs), [])
    check(outcomes.failed(expected) == 0, "untampered derive output passes")
    outcomes.add("derive", workload.digest("derive", bad), [])
    check(outcomes.failed(expected) == 1, "tampered derive output fails")

    cli = WORKLOADS["cli-sweep"]
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        good = cli.run("free-particle", cli.inputs(DEFAULT_SEED, "tiny"), scratch)
        bad = CliResult(good.returncode, good.stdout.replace(b"=", b"~", 1), good.stderr, None)
        outcomes = Outcomes()
        for result in (good, bad):
            outcomes.add("free-particle", cli.digest("free-particle", result),
                         cli.problems("free-particle", result))
        check(outcomes.failed(cli.expected(DEFAULT_SEED, "tiny")) == 1,
              "tampered CLI stdout fails, untampered passes")
        outcomes = Outcomes()
        run_step(workload, "derive", DEFAULT_SEED, "no-such-size", scratch, outcomes)
        check(outcomes.failed(expected) == 1, "a crashed step counts as failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _bindings() -> dict:
    """Every attribute of every qmetric module and class, by identity."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "qmetric" or modname.startswith("qmetric."):
            for attr, value in vars(module).items():
                out[(modname, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(modname, attr, cattr)] = cvalue
    return out


def check_uninstall() -> None:
    import qmetric.cli  # noqa: F401  (its by-name imports must be restored too)

    before = _bindings()
    for name in ("derive-formal", "dress"):
        workload = WORKLOADS[name]
        with Tracer() as tracer:
            workload.run(workload.steps[0], workload.inputs(DEFAULT_SEED, "tiny"))
        check(tracer.metrics().get("backend.expr_mul.calls", 0) > 0,
              f"tracer sees {name}'s expr_mul calls")
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    check(not changed and before.keys() == after.keys(),
          f"tracer restores every binding (changed: {changed[:5]})")


def check_no_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run_bench(bare, "--workload", "derive-formal", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without qmetric sources exits non-zero and prints no result")


def main() -> int:
    error = import_qmetric()
    if error:
        print(f"selftest.py: {error}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    units = check_benchmark_json()
    check_recorded()
    check_tamper()
    check_uninstall()
    check_no_sources()
    check_runs(units)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
