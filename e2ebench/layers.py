"""Per-layer attribution for traced runs.

:func:`install` wraps the public entry points of each pipeline layer
(the table below) in a timer that records calls, inclusive time and
self time (inclusive time minus the time of nested wrapped calls, per
thread), plus a few work counts.  It runs only inside ``launch.py``;
untraced runs never import this module.

A function is replaced wherever the program holds a reference to it:
module globals of every loaded ``repro`` module, the model registry's
builder fields, the report registry, and methods on classes and their
overriding subclasses.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, [(module, attribute path), ...]).  An attribute path with a
#: dot names a method: ``"ResultStore.get"``.
LAYERS: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("models", [("repro.models.word_lm", "build_word_lm"),
                ("repro.models.char_rhn", "build_char_rhn"),
                ("repro.models.nmt", "build_nmt"),
                ("repro.models.speech", "build_speech"),
                ("repro.models.resnet", "build_resnet")]),
    ("graph.autodiff", [("repro.graph.autodiff", "build_training_step")]),
    ("graph.validate", [("repro.graph.validate", "validate_graph")]),
    ("graph.serialize", [("repro.graph.serialize", "structural_hash")]),
    ("exec.keys", [("repro.exec.tasks", "report_exhibit_key"),
                   ("repro.exec.tasks", "artifact_config_key"),
                   ("repro.exec.tasks", "registry_fingerprint")]),
    ("graph.traversal", [("repro.graph.traversal", name) for name in (
        "topological_order", "memory_greedy_order", "liveness_peak",
        "evaluate_sizes", "evaluate_sizes_many")]),
    ("analysis.footprint", [("repro.analysis.footprint",
                             "estimate_footprint")]),
    ("analysis.sweep", [("repro.analysis.sweep", "sweep_domain"),
                        ("repro.analysis.sweep", "compute_sweep_rows")]),
    ("analysis.counters", [("repro.analysis.counters", f"StepCounts.{m}")
                           for m in ("__init__", "bind", "compiled",
                                     "sweep_series")]),
    ("analysis.firstorder", [("repro.analysis.firstorder",
                              "derive_symbolic"),
                             ("repro.analysis.firstorder", "fit_numeric")]),
    ("symbolic.compile", [("repro.symbolic.compile", "compile_expr"),
                          ("repro.symbolic.compile", "compile_batch")]),
    ("symbolic.eval", [("repro.symbolic.compile", f"CompiledExpr.{m}")
                       for m in ("__call__", "eval_many",
                                 "eval_vector")]),
    ("symbolic.solve", [("repro.symbolic.solve", name) for name in (
        "invert_power_law", "expand_bracket", "bisect_increasing")]),
    ("planner", [("repro.planner.subbatch", "choose_subbatch"),
                 ("repro.planner.subbatch", "subbatch_curve"),
                 ("repro.planner.subbatch", "compile_curves"),
                 ("repro.planner.auto", "plan_auto"),
                 ("repro.planner.case_study", "run_case_study"),
                 ("repro.planner.data_parallel", "scale_data_parallel"),
                 ("repro.planner.model_parallel", "plan_layer_parallel")]),
    ("hardware.cache", [("repro.hardware.cache",
                         "cache_aware_step_time")]),
    ("hardware.roofline", [("repro.hardware.roofline", "roofline_time"),
                           ("repro.hardware.roofline",
                            "roofline_throughput")]),
    ("check", [("repro.check.driver", "lint_model")]),
    # one entry per rule family: the pass functions lint_graph calls
    ("check.S", [("repro.check.structure", "structural_diagnostics")]),
    ("check.G", [("repro.check.graph_lint", "dataflow_diagnostics")]),
    ("check.C", [("repro.check.costs", "cost_diagnostics")]),
    ("check.A", [("repro.check.autodiff", "autodiff_diagnostics")]),
    ("check.T", [("repro.check.driver", "_tape_diagnostics")]),
    ("check.I", [("repro.check.intervals", "interval_diagnostics")]),
    ("check.M", [("repro.check.solver_lint", "solver_diagnostics")]),
    ("reports.render", [("repro.reports.common", f"{cls}.{m}")
                        for cls in ("Table", "Figure")
                        for m in ("render", "to_csv")]),
    ("exec.store", [("repro.exec.store", "ResultStore.get"),
                    ("repro.exec.store", "ResultStore.put")]),
    ("exec.engine", [("repro.exec.engine", "ExecutionEngine.run")]),
    ("serve", [("repro.serve.service", "AnalysisService.query_bytes")]),
]

LAYER_NAMES = [name for name, _ in LAYERS] + ["reports"]

#: work counts recorded by the wrappers (besides calls)
COUNTS = ["models.ops", "graph.autodiff.ops", "graph.serialize.ops",
          "check.diagnostics", "exec.store.bytes_read",
          "exec.store.bytes_written", "serve.admission.wait_ms"]

_lock = threading.Lock()
_local = threading.local()
_stats: Dict[str, List[int]] = {}    # name -> [calls, incl_ns, self_ns]
_counts: Dict[str, float] = {name: 0 for name in COUNTS}


def _stack() -> List[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _record(name: str, incl_ns: int, self_ns: int) -> None:
    with _lock:
        rec = _stats.setdefault(name, [0, 0, 0])
        rec[0] += 1
        rec[1] += incl_ns
        rec[2] += self_ns


def _add(name: str, value: float) -> None:
    with _lock:
        _counts[name] += value


def _timed(fn: Callable, name: str,
           after: Optional[Callable[..., None]] = None) -> Callable:
    """``fn`` wrapped to charge its time to ``name``; ``after(result,
    args, kwargs, before)`` records work counts, ``before`` being the
    op count of the graph in ``args[0]`` at entry, for the layer that
    grows a graph in place."""
    grows_graph = after is _count_autodiff

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        before = len(args[0].ops) if grows_graph else None
        stack = _stack()
        stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - t0
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            _record(name, elapsed, elapsed - nested)
        if after is not None:
            after(result, args, kwargs, before)
        return result

    wrapper.__e2ebench_wrapped__ = True
    return wrapper


# -- work counts -------------------------------------------------------------

def _count_model(result, args, kwargs, before) -> None:
    _add("models.ops", len(result.graph.ops))


def _count_autodiff(result, args, kwargs, before) -> None:
    _add("graph.autodiff.ops", len(args[0].ops) - before)


def _count_hashed(result, args, kwargs, before) -> None:
    _add("graph.serialize.ops", len(args[0].ops))


def _count_diagnostics(result, args, kwargs, before) -> None:
    _add("check.diagnostics", len(result))


def _pickled_size(value: Any) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _count_store_get(result, args, kwargs, before) -> None:
    default = args[2] if len(args) > 2 else kwargs.get("default")
    if result is not default:
        _add("exec.store.bytes_read", _pickled_size(result))


def _count_store_put(result, args, kwargs, before) -> None:
    if result:
        _add("exec.store.bytes_written", _pickled_size(args[2]))


_AFTER = {
    "models": _count_model,
    "graph.autodiff": _count_autodiff,
    "graph.serialize": _count_hashed,
    "check": _count_diagnostics,
    "check.M": _count_diagnostics,
}
_AFTER_METHOD = {
    "ResultStore.get": _count_store_get,
    "ResultStore.put": _count_store_put,
}


class _TimedEnter:
    """Context manager proxy that charges ``__enter__`` time (the
    admission queue wait) to ``serve.admission.wait_ms``."""

    def __init__(self, inner: Any):
        self.inner = inner

    def __enter__(self) -> Any:
        t0 = time.perf_counter_ns()
        try:
            return self.inner.__enter__()
        finally:
            _add("serve.admission.wait_ms",
                 (time.perf_counter_ns() - t0) / 1e6)

    def __exit__(self, *exc: Any) -> Any:
        return self.inner.__exit__(*exc)


# -- installation ------------------------------------------------------------

def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_method(cls: type, method: str, name: str,
                 after: Optional[Callable]) -> None:
    targets = [cls]
    while targets:
        klass = targets.pop()
        targets.extend(klass.__subclasses__())
        original = klass.__dict__.get(method)
        if original is None or getattr(original, "__e2ebench_wrapped__",
                                       False):
            continue
        setattr(klass, method, _timed(original, name, after))


def install() -> None:
    """Wrap every layer's entry points in the running interpreter."""
    from repro.models.registry import DOMAINS
    from repro.reports import ALL_REPORTS
    from repro.serve.admission import Bulkhead

    for layer, targets in LAYERS:
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                _wrap_method(getattr(module, cls_name), method, layer,
                             _AFTER_METHOD.get(path))
                continue
            original = getattr(module, path)
            wrapped = _timed(original, layer, _AFTER.get(layer))
            _replace_everywhere(original, wrapped)
            for entry in DOMAINS.values():
                if entry.build is original:
                    entry.build = wrapped
    for exhibit, fn in list(ALL_REPORTS.items()):
        wrapped = _timed(fn, f"reports.{exhibit}")
        ALL_REPORTS[exhibit] = wrapped
        _replace_everywhere(fn, wrapped)

    admit = Bulkhead.admit

    @functools.wraps(admit)
    def timed_admit(self, *args: Any, **kwargs: Any) -> _TimedEnter:
        return _TimedEnter(admit(self, *args, **kwargs))

    Bulkhead.admit = timed_admit


def snapshot() -> Dict[str, Any]:
    """Everything recorded so far, plus the program's own counters."""
    from repro import obs

    with _lock:
        stats = {name: {"calls": rec[0], "incl_ms": rec[1] / 1e6,
                        "self_ms": rec[2] / 1e6}
                 for name, rec in _stats.items()}
        counts = dict(_counts)
    counters = {name: entry["value"]
                for name, entry in obs.snapshot().items()
                if entry.get("type") == "counter"}
    return {"stats": stats, "counts": counts, "counters": counters}
