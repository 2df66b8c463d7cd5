"""Spans around tehscreen's public functions, installed from outside the package.

``Tracer.install`` replaces every public module-level function of each layer
module with a wrapper, in every ``tehscreen.*`` namespace that binds it (for
example ``generate_trial`` is bound in ``data_model``, ``inference`` and
``cli``). A wrapper records one span per call: id, parent id, name, thread,
start, end, whether it raised, and counts read from the return value. Parents
come from a per-thread stack, so a span opened on a replicate worker thread
has no parent and its time is never subtracted from the main thread.

Spans stay in memory until the traced process writes them out at its end;
``aggregate`` turns them into per-function statistics.
"""

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time

LAYERS = ("cli", "config", "data_model", "screening", "glm", "lasso", "boosting", "pca", "inference")

# Called once per coordinate update inside the lasso's inner loop: a span
# there would cost more than the work it measures.
SKIP = frozenset({"lasso.soft_threshold"})


def _fit_counts(fit):
    return {"iterations": int(fit.iterations), "dropped_columns": len(fit.dropped_columns)}


def _design_counts(design):
    return {"dropped_columns": len(design.dropped_columns)}


def _path_counts(path):
    """Lambdas solved, variables entered, and lambdas up to the last new entry."""
    seen = set()
    useful = 0
    for i, beta in enumerate(path.coefficients_std_per_lambda):
        new = {j for j, b in enumerate(beta) if b != 0.0} - seen
        if new:
            seen |= new
            useful = i + 1
    return {"lambdas": len(path.lambdas), "entered": len(path.entry_order), "useful_lambdas": useful}


def _boost_counts(model):
    return {"stumps": len(model.stumps)}


def _selection_counts(selected):
    return {"selected": len(selected)}


COUNTERS = {
    "glm.fit": _fit_counts,
    "glm.make_design": _design_counts,
    "lasso.fit_path": _path_counts,
    "boosting.fit_boost": _boost_counts,
    "boosting.select_by_influence": _selection_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.wrapped = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self):
        """Wrap the public functions of every layer module that imports."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"tehscreen.{layer}")
            except ImportError:
                continue  # a removed layer reports its metrics as missing
        namespaces = [m for n, m in sys.modules.items() if n == "tehscreen" or n.startswith("tehscreen.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, bound, wrapper)
                self.wrapped.append(name)

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            thread = threading.get_ident()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, name, thread, start, time.perf_counter(), True, None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            counts = None
            if counter is not None:
                try:
                    counts = counter(result)
                except (AttributeError, TypeError):
                    counts = None  # the return value changed shape: counts go missing
            spans.append((span_id, parent, name, thread, start, end, False, counts))
            return result

        return traced


def tail_percentile(n):
    """Highest whole percentile (50..99) with at least ten of ``n`` samples beyond it."""
    if n < 20:
        return 50
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n))))


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def aggregate(spans):
    """Per-function calls, errors, total and self seconds, durations and summed counts.

    A function whose counter failed on any successful call gets ``None`` for
    its counts, so a changed return value reads as missing, not as zero.
    """
    child_time = {}
    for span_id, parent, _name, _thread, start, end, _err, _counts in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    for span_id, _parent, name, _thread, start, end, error, counts in spans:
        s = stats.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0,
                                    "durations": [], "counts": {}})
        duration = end - start
        s["calls"] += 1
        s["errors"] += int(error)
        s["total_s"] += duration
        s["self_s"] += duration - child_time.get(span_id, 0.0)
        s["durations"].append(duration)
        if error:
            continue
        if name in COUNTERS and counts is None:
            s["counts"] = None
        elif s["counts"] is not None and counts:
            for key, value in counts.items():
                s["counts"][key] = s["counts"].get(key, 0) + value
    return stats
