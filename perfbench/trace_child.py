"""Run one qmetric command with the benchmark's tracer installed.

    python3 perfbench/trace_child.py METRICS_FILE <qmetric arguments...>

stdout, stderr and the exit code are the command's own.  The per-layer
metrics go to METRICS_FILE as JSON and the spans to the same name with
the suffix ``.spans.jsonl``.  qmetric must be importable (PYTHONPATH).
"""

import json
import sys
from pathlib import Path

import qmetric.cli
from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    with tracer:
        code = qmetric.cli.main(sys.argv[2:])
    sys.stdout.flush()
    out.write_text(json.dumps(tracer.metrics()), encoding="utf-8")
    tracer.write_spans(out.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
