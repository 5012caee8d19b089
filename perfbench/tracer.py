"""Outside-in span tracer for the ktflow modules.

Nothing under `src/` is edited.  `Tracer.install()` wraps every public
function of the ktflow modules, and `BaseGrid.derivative` on its class.
`from .x import f` copies the binding of `f` into the importing module, so
each wrapper is bound under every name, in every ktflow namespace, that
holds the original function.

A span is `[kind, start, end, parent]` plus one optional integer of extra
data, kept in memory and written out by `write_spans()` at the end of the
run.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import time
import types

MODULES = ("invariant_forms", "hermitian_geometry", "vaisman_toolkit",
           "flow_engine", "cli_runner")

# Functions whose per-call durations are kept for a median and a tail.
TIMED = ("hermitian_geometry.bismut_ricci", "flow_engine.step")

# Functions whose metric-state argument is hashed to count repeated work.
HASHED = ("hermitian_geometry.bismut_ricci", "hermitian_geometry.metric_split")

EMITTERS = ("cli_runner.emit_csv", "cli_runner.emit_snapshot")

TAIL_BEYOND = 10


def _state_digest(args):
    """Digest of the (u, lam, p, q) bytes of a metric-state first argument."""
    if not args:
        return None
    fields = [getattr(args[0], name, None) for name in ("u", "lam", "p", "q")]
    if any(f is None or not hasattr(f, "tobytes") for f in fields):
        return None
    h = hashlib.blake2b(digest_size=16)
    for f in fields:
        h.update(f.tobytes())
    return h.digest()


def _field_count(args):
    """Number of n x n fields in the array handed to BaseGrid.derivative."""
    shape = getattr(args[1], "shape", ()) if len(args) > 1 else ()
    count = 1
    for extent in shape[:-2]:
        count *= int(extent)
    return count, (int(shape[-1]) if shape else 0)


def tail(durations):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    maximum is returned, with zero samples beyond it.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * k / (n - 1), TAIL_BEYOND


class Tracer:
    def __init__(self):
        self.names = []          # kind index -> "module.function"
        self.spans = []          # [kind, start, end, parent, extra]
        self._stack = []
        self._seen = {}          # kind -> set of state digests
        self._grid_n = {}        # derivative span index -> n
        self._paths = {}         # emitter span index -> output path

    def _wrap(self, qualname, fn):
        kind = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        hashed = qualname in HASHED
        derivative = qualname == "invariant_forms.derivative"
        emitter = qualname in EMITTERS
        seen = self._seen.setdefault(kind, set())
        grid_n, paths = self._grid_n, self._paths

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = 0
            index = len(spans)
            if hashed:
                digest = _state_digest(args)
                if digest is not None:
                    extra = int(digest in seen)
                    seen.add(digest)
            elif derivative:
                extra, grid_n[index] = _field_count(args)
            elif emitter and len(args) > 1:
                paths[index] = args[1]
            spans.append([kind, 0.0, 0.0, stack[-1] if stack else -1, extra])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end

        return traced

    def install(self):
        """Wrap the public functions of every ktflow module that exists."""
        package = importlib.import_module("ktflow")
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"ktflow.{short}")
            except ModuleNotFoundError:
                continue
        namespaces = [vars(m) for m in modules.values()] + [vars(package)]
        for short, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(f"{short}.{name}", obj)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is obj:
                            ns[key] = wrapped
        grid_cls = getattr(modules.get("invariant_forms"), "BaseGrid", None)
        if grid_cls is not None:
            grid_cls.derivative = self._wrap("invariant_forms.derivative",
                                             grid_cls.derivative)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["kind", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)

    def layer_metrics(self):
        """Per-function and per-module figures from the recorded spans.

        Keys are `<module>.<function>.<figure>` and `<module>.self_s`, plus
        `flow_engine.record_s`, `vaisman_toolkit.seed_s`,
        `cli_runner.emit_{csv,snapshot}_s`, `cli_runner.emit_bytes` and
        `trace.self_sum_s`, the sum of all self times.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        step_child_time = [0.0] * len(spans)
        step_kind = (self.names.index("flow_engine.step")
                     if "flow_engine.step" in self.names else None)
        for kind, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if kind == step_kind:
                    step_child_time[parent] += end - start

        per = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "extra": 0,
                      "durations": []} for name in self.names}
        modules = {short: 0.0 for short in MODULES}
        record_s = emit_bytes = mb = 0.0
        emit_s = {name: 0.0 for name in EMITTERS}
        for index, (kind, start, end, parent, extra) in enumerate(spans):
            name = self.names[kind]
            stats = per[name]
            duration = end - start
            own = duration - child_time[index]
            stats["calls"] += 1
            stats["self_s"] += own
            stats["total_s"] += duration
            stats["extra"] += extra
            if name in TIMED:
                stats["durations"].append(duration)
            modules[name.split(".", 1)[0]] += own
            if name == "flow_engine.run":
                record_s += duration - step_child_time[index]
            if name in emit_s:
                emit_s[name] += duration
                path = self._paths.get(index)
                if path and os.path.exists(path):
                    emit_bytes += os.path.getsize(path)
            if name == "invariant_forms.derivative":
                mb += extra * self._grid_n[index] ** 2 * 8 / 1e6

        out = {}
        for name, stats in per.items():
            out[f"{name}.calls"] = stats["calls"]
            out[f"{name}.self_s"] = stats["self_s"]
            out[f"{name}.total_s"] = stats["total_s"]
            if name in TIMED:
                value, pct, beyond = tail(stats["durations"])
                out[f"{name}.ms"] = 1e3 * (statistics.median(stats["durations"])
                                           if stats["durations"] else 0.0)
                out[f"{name}.tail_ms"] = 1e3 * value
                out[f"{name}.tail_pct"] = pct
                out[f"{name}.tail_n"] = beyond
            if name in HASHED:
                out[f"{name}.repeats"] = stats["extra"]
                out[f"{name}.repeat_frac"] = (stats["extra"] / stats["calls"]
                                              if stats["calls"] else 0.0)
        out["invariant_forms.derivative.fields"] = per.get(
            "invariant_forms.derivative", {"extra": 0})["extra"]
        out["invariant_forms.derivative.computed_mb"] = mb
        for short, value in modules.items():
            out[f"{short}.self_s"] = value
        out["flow_engine.record_s"] = record_s
        out["vaisman_toolkit.seed_s"] = sum(
            per[name]["total_s"] for name in per
            if name.startswith("vaisman_toolkit.make_"))
        out["cli_runner.emit_csv_s"] = emit_s["cli_runner.emit_csv"]
        out["cli_runner.emit_snapshot_s"] = emit_s["cli_runner.emit_snapshot"]
        out["cli_runner.emit_bytes"] = int(emit_bytes)
        out["trace.self_sum_s"] = sum(modules.values())
        return out
