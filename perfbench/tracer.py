"""In-memory tracer behind the benchmark's per-layer metrics.

``Tracer.install()`` wraps qmetric functions on every module attribute
and class attribute through which qmetric's own code looks them up (a
name imported with ``from .x import f`` is a separate binding, and the
arithmetic core calls its helpers through its own module globals), and
``uninstall()`` puts every original back.  Layer boundaries get spans
``(id, name, tag, start, end, parent id)``; the hot scalar functions get
call counters only, because a span per call would cost more than the
call.  Spans stay in memory until ``write_spans``.

Counters use ``itertools.count`` and the span stack is thread-local, so
the counts stay exact under ``run_verification``'s thread pool.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (metric prefix, module, attribute): one span per call.
SPAN_FUNCTIONS = (
    ("backend.expr_mul", "qmetric.backend", "expr_mul"),
    ("algebra.commutator", "qmetric.algebra", "commutator"),
    ("algebra.scaling_degree", "qmetric.algebra", "scaling_degree"),
    ("perturbation.derive", "qmetric.perturbation", "derive_metric_series"),
    ("perturbation.build_r", "qmetric.perturbation", "build_r"),
    ("perturbation.solve", "qmetric.perturbation", "solve_commutator_equation"),
    ("perturbation.strip", "qmetric.perturbation", "strip_x_free"),
    ("perturbation.extend_one_order", "qmetric.perturbation", "extend_one_order"),
    ("series.series_commutator", "qmetric.series", "series_commutator"),
    ("observables.observable_x", "qmetric.observables", "observable_x"),
    ("observables.observable_p", "qmetric.observables", "observable_p"),
    ("observables.equivalent_hermitian", "qmetric.observables", "equivalent_hermitian"),
    ("flow.integrate_orbit", "qmetric.flow", "integrate_orbit"),
    ("verify.run_verification", "qmetric.verify", "run_verification"),
    ("kernels.to_kernel", "qmetric.kernels", "to_kernel"),
)

# (metric prefix, module, class, attribute): one span per call.
SPAN_METHODS = (
    ("algebra.hermiticity", "qmetric.algebra", "OperatorExpr", "is_hermitian"),
    ("algebra.hermiticity", "qmetric.algebra", "OperatorExpr", "is_antihermitian"),
    ("flow.to_csv", "qmetric.flow", "OrbitResult", "to_csv"),
)

# Call counters only.  ``gcd`` is the one the pure-Python core reduces
# every scalar with; it is absent when the compiled core is active.
COUNTED_FUNCTIONS = tuple(
    (f"backend.{name}", "qmetric.backend", name)
    for name in ("q_make", "q_add", "q_mul", "ev_mul", "poly_add",
                 "poly_scale", "poly_mul")
) + (("backend.gcd", "qmetric._core_py", "gcd"),)

COUNTED_METHODS = (("params.mul", "qmetric.params", "ParamPoly", "__mul__"),)

# Span names whose first positional argument is the perturbative order.
_ORDER_TAGGED = {"perturbation.build_r"}


def _scalar_bits(poly: dict) -> int:
    return max((abs(n).bit_length() for c in poly.values() for n in c), default=0)


def expr_sizes(exprs) -> tuple[int, int, int]:
    """(operator monomials, coefficient terms, largest scalar bit length)."""
    monomials = terms = bits = 0
    for expr in exprs:
        raw = expr.raw
        monomials += len(raw)
        for poly in raw.values():
            terms += len(poly)
            bits = max(bits, _scalar_bits(poly))
    return monomials, terms, bits


def _observe_series(qs) -> dict:
    mono, terms, bits = expr_sizes(qs.q_list())
    _, r_terms, _ = expr_sizes(rec.r for rec in qs.orders)
    return {"size.q.monomials": mono, "size.q.coeff_terms": terms,
            "size.q.max_bits": bits, "size.r.coeff_terms": r_terms}


def _observe_hamiltonian(h) -> dict:
    _, terms, bits = expr_sizes(h.coeff(j) for j in h.indices())
    return {"size.h.coeff_terms": terms, "size.h.max_bits": bits}


def _observe_orbit(orbit) -> dict:
    return {"flow.samples": len(orbit.rows), "flow.pinch_windows": len(orbit.windows),
            "flow.energy_drift": orbit.energy_drift}


def _observe_report(report) -> dict:
    return {"verify.checks": len(report.checks)}


# Facts read off a traced function's result.  size.* keep the largest
# value seen in a process; the others add up.
_OBSERVERS = {
    "perturbation.derive": _observe_series,
    "observables.equivalent_hermitian": _observe_hamiltonian,
    "flow.integrate_orbit": _observe_orbit,
    "verify.run_verification": _observe_report,
}


def merge(total: dict, part: dict) -> None:
    """Fold one process's metrics into another's: max for size.*, else sum."""
    for key, value in part.items():
        if key.startswith("size."):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def _qmetric_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qmetric" or name.startswith("qmetric."))]


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.observed: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: dict[str, itertools.count] = {}
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        tagged = name in _ORDER_TAGGED
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tag = f"o{args[0]}" if tagged and args else None
                spans.append((sid, name, tag, start, end, parent))
            if observe is not None:
                facts = observe(result)
                with self._lock:
                    merge(self.observed, facts)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        bump = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args):
            bump()
            return fn(*args)

        return wrapper

    # -- installation ------------------------------------------------------
    def _patch_everywhere(self, original, wrapper) -> None:
        for module in _qmetric_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_class(self, cls, original, wrapper) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kinds, make in ((SPAN_FUNCTIONS, self._span_wrapper),
                            (COUNTED_FUNCTIONS, self._count_wrapper)):
            for name, modname, attr in kinds:
                module = sys.modules.get(modname)
                if module is None or not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                self._patch_everywhere(original, make(name, original))
        for kinds, make in ((SPAN_METHODS, self._span_wrapper),
                            (COUNTED_METHODS, self._count_wrapper)):
            for name, modname, clsname, attr in kinds:
                cls = getattr(sys.modules[modname], clsname)
                original = vars(cls)[attr]
                self._patch_class(cls, original, make(name, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer totals; call once, after the traced work is done.

        ``X.s`` is the time inside the outermost X spans, ``X.self_s`` the
        time of all X spans less the time covered by their child spans,
        and ``X.calls`` the number of calls.
        """
        out: dict = defaultdict(float)
        by_id = {s[0]: s for s in self.spans}
        child_time: dict = defaultdict(float)
        for sid, name, tag, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, name, tag, start, end, parent in self.spans:
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[sid]
            up = parent
            while up is not None and by_id[up][1] != name:
                up = by_id[up][5]
            if up is None:
                out[f"{name}.s"] += dur
                if tag is not None:
                    out[f"{name}.{tag}.s"] += dur
        for name, counter in self._counters.items():
            out[f"{name}.calls"] = next(counter)
        merge(out, self.observed)
        return {k: int(v) if k.endswith(".calls") else v for k, v in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, tag, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "tag": tag, "start": start,
                                     "end": end, "parent": parent}) + "\n")
