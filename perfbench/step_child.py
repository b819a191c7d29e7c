"""Run one library step of a workload in this fresh process.

    python3 perfbench/step_child.py WORKLOAD SEED SIZE [TRACE_FILE]

Builds the inputs, times the step alone, and prints one JSON line
``{"seconds", "digest", "problems"}``.  With TRACE_FILE the step runs under
the tracer; the per-layer metrics go to TRACE_FILE as JSON and the spans to
the same name with the suffix ``.spans.jsonl``.  qmetric must be
importable (PYTHONPATH).
"""

import json
import sys
import time
from pathlib import Path

import qmetric  # noqa: F401  (imported before the clock starts)
from tracer import Tracer
from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    inputs = workload.inputs(int(sys.argv[2]), sys.argv[3])
    trace_file = Path(sys.argv[4]) if len(sys.argv) > 4 else None
    step = workload.steps[0]
    tracer = Tracer().install() if trace_file else None
    t0 = time.perf_counter()
    try:
        output = workload.run(step, inputs)
    finally:
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    if tracer:
        trace_file.write_text(json.dumps(tracer.metrics()), encoding="utf-8")
        tracer.write_spans(trace_file.with_suffix(".spans.jsonl"))
    print(json.dumps({"seconds": seconds, "digest": workload.digest(step, output),
                      "problems": workload.problems(step, output)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
