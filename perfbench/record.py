"""Record the outputs that the benchmark checks every run against.

    python3 perfbench/record.py

Writes ``formal8.txt`` (the formal series Q_1..Q_8, one serialized order
per line) and ``digests.json`` (the SHA-256 of every step's output at
DEFAULT_SEED, for every size).  Run it only on a commit whose outputs are
known to be right, and commit both files: exact arithmetic means a
correct engine reproduces them bit for bit.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import import_qmetric
from workloads import (DEFAULT_SEED, DIGESTS, FORMAL_SERIES, OUT, SIZES, WORKLOADS,
                       serialize_series)


def main() -> int:
    error = import_qmetric()
    if error:
        print(f"record.py: {error}", file=sys.stderr)
        return 2
    from qmetric.perturbation import MetricParams, derive_metric_series

    qs = derive_metric_series(MetricParams.formal(8))
    FORMAL_SERIES.write_text(serialize_series(qs.q_list()), encoding="utf-8")

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    digests: dict = {}
    try:
        for size in SIZES:
            for workload in WORKLOADS.values():
                inputs = workload.inputs(DEFAULT_SEED, size)
                row = digests.setdefault(size, {}).setdefault(workload.name, {})
                for step in workload.steps:
                    output = (workload.run(step, inputs, scratch) if workload.cli
                              else workload.run(step, inputs))
                    problems = workload.problems(step, output)
                    if problems:
                        print(f"record.py: {workload.name}/{step}: {problems}",
                              file=sys.stderr)
                        return 1
                    row[step] = workload.digest(step, output)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"default_seed": DEFAULT_SEED, **digests}, indent=1)
                       + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
