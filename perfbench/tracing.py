"""Spans around jetmech's public functions, recorded from outside jetmech.

``Tracer.install`` replaces each function listed in ``LAYERS`` by a
wrapper in every jetmech module namespace that bound it by name (``cli``
and ``verify`` import ``integrate`` directly, ``oracle_compare`` reaches
it through ``dynamics`` globals), including module-level tuples such as
``verify.ALL_SUITES``. A span records its name, start, end, parent span
and job index; spans stay in memory until ``write_spans``.

Self time is a span's duration minus the durations of its direct child
spans. Total time counts only spans that are not nested inside a span of
the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from time import perf_counter

LAYERS = {
    "dynamics": (
        "integrate", "oracle_compare", "write_trajectory_csv", "accelerations_on",
        "first_variation", "transversality_term", "energy_audit", "assemble_explicit",
    ),
    "symexpr": ("partial", "substitute", "scaling_integral", "compile_expr"),
    "formcalc": (
        "decompose", "homotopy", "homotopy_two_form", "d0", "d1",
        "reconstruction_residual", "accept_user_split",
    ),
    "spencer": (
        "dual_spencer", "total_time_derivative", "variational_derivative",
        "assemble_with_split", "spencer_residual",
    ),
    "dsl": ("parse_system",),
    "cli": ("cmd_simulate", "cmd_decompose", "cmd_derive", "cmd_verify"),
    "verify": (
        "check_cochain_contraction", "check_el_equivalence", "check_split_invariance",
        "check_first_variation", "check_spencer_residual",
    ),
}
INTEGRATE_METHODS = ("rk4", "rkf45")


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for m in INTEGRATE_METHODS:
        out += [(f"dynamics.integrate-{m}.calls", "count"), (f"dynamics.integrate-{m}.self_s", "s")]
    out += [("dynamics.rhs.calls", "count"), ("dynamics.rhs.per_sample", "1")]
    out += [("dynamics.oracle_compare.calls", "count"), ("dynamics.oracle_compare.self_s", "s"),
            ("dynamics.oracle_compare.total_s", "s")]
    out += [("dynamics.write_trajectory_csv.calls", "count"),
            ("dynamics.write_trajectory_csv.self_s", "s"),
            ("dynamics.write_trajectory_csv.bytes", "bytes")]
    calls_and_self = [f"dynamics.{fn}" for fn in (
        "accelerations_on", "first_variation", "transversality_term", "energy_audit",
        "assemble_explicit")]
    calls_and_self += [f"{module}.{fn}" for module in ("symexpr", "formcalc", "spencer", "dsl")
                       for fn in LAYERS[module]]
    for name in calls_and_self:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"cli.{fn}.self_s", "s") for fn in LAYERS["cli"]]
    out += [(f"verify.{fn}.total_s", "s") for fn in LAYERS["verify"]]
    out.append(("trace.overhead_ratio", "1"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job index, nested]
        self.stack = []
        self.depth = {}  # name -> number of open spans with that name
        self.job = -1
        self.rhs_calls = 0
        self.csv_rows = 0
        self.csv_bytes = 0

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        span = [name, perf_counter(), 0.0, parent, self.job, depth > 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list):
        span[2] = perf_counter()
        self.stack.pop()
        self.depth[span[0]] -= 1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def _wrap_integrate(self, fn):
        by_method = {m: self._wrap(f"dynamics.integrate-{m}", fn) for m in INTEGRATE_METHODS}

        def traced(*args, **kwargs):
            method = kwargs.get("method", args[5] if len(args) > 5 else "rk4")
            return by_method.get(method, fn)(*args, **kwargs)

        return traced

    def _wrap_assemble(self, fn):
        traced_fn = self._wrap("dynamics.assemble_explicit", fn)

        def traced(*args, **kwargs):
            ode = traced_fn(*args, **kwargs)
            inner = ode.rhs

            def rhs(t, x, v):
                self.rhs_calls += 1
                return inner(t, x, v)

            return dataclasses.replace(ode, rhs=rhs)

        return traced

    def _wrap_csv(self, fn):
        traced_fn = self._wrap("dynamics.write_trajectory_csv", fn)

        def traced(traj, path, *args, **kwargs):
            result = traced_fn(traj, path, *args, **kwargs)
            self.csv_rows += len(traj.taus)
            self.csv_bytes += os.path.getsize(path)
            return result

        return traced

    def install(self):
        """Rebind every listed function in all loaded jetmech modules."""
        special = {
            ("dynamics", "integrate"): self._wrap_integrate,
            ("dynamics", "assemble_explicit"): self._wrap_assemble,
            ("dynamics", "write_trajectory_csv"): self._wrap_csv,
        }
        replacement = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"jetmech.{module}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                make = special.get((module, fn_name))
                wrapper = make(fn) if make else self._wrap(f"{module}.{fn_name}", fn)
                replacement[id(fn)] = (fn, wrapper)

        def swap(value):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                return hit[1]
            if isinstance(value, tuple) and any(id(v) in replacement for v in value):
                return tuple(swap(v) for v in value)
            return value

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jetmech" or mod_name.startswith("jetmech.")):
                continue
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not value:
                    setattr(mod, attr, new)

    def stats(self) -> dict:
        """Per-name calls, self_s and total_s over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child[i]
            if not nested:
                s["total_s"] += end - start
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
