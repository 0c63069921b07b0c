"""Outside-in span tracer for the fbmchaos layers.

``Tracer.install`` wraps every public function and method of the layer
modules and rebinds each wrapped name wherever a package module imported
it, so calls between layers (and within one) pass through a wrapper.  Each
call records a span (name, start, end, parent) in memory plus per-function
call counts and inclusive time, per-layer self time (span time minus child
spans) and a few work counters read from the arguments.  Nothing is written
until ``dump`` is called after the timed region.
"""

import csv
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("fbm", "lift", "gaussian", "chaos", "rde", "young", "experiments",
          "cli")

# metric prefix -> traced function name, for methods
ALIASES = {"lift.signature": "lift.RoughLift.signature"}


def _sampler(tracer, args, dur, replicas):
    spec = args["spec"]
    d, size = spec.model.d, spec.size
    key = (spec.model.H, size)
    cold = key not in tracer.grids
    tracer.grids.add(key)
    tracer.timers["fbm.cold_s" if cold else "fbm.warm_s"] += dur
    tracer.count("fbm.streams", replicas * d)
    tracer.count("fbm.points", replicas * d * size)


def _simulate(tracer, args, dur):
    _sampler(tracer, args, dur, 1)


def _simulate_batch(tracer, args, dur):
    _sampler(tracer, args, dur, args["n_replicas"])


def _series_constants(tracer, args, dur):
    tracer.distinct("gaussian.series_constants.distinct", args["H"])


def _cov_K_lags(tracer, args, dur):
    lags = [int(lag) for lag in args["lags"]]
    tracer.count("chaos.cov_K_lags.lags", len(lags))
    key = (args["H"], args["pattern"], args.get("n_quad", 32),
           args.get("symmetrized", True))
    for lag in lags:
        tracer.distinct("chaos.cov_K_lags.distinct_lags", key + (lag,))


def _taylor_steps(tracer, args, dur):
    shape = np.shape(args["level1"])  # (..., cells, d)
    tracer.count("rde.taylor_steps.cell_steps", math.prod(shape[:-1]))


COUNTERS = {
    "fbm.simulate": _simulate,
    "fbm.simulate_batch": _simulate_batch,
    "gaussian.series_constants": _series_constants,
    "chaos.cov_K_lags": _cov_K_lags,
    "rde.taylor_steps": _taylor_steps,
}


class Tracer:
    """Spans and counts for one pass; ``command`` labels the current CLI call."""

    def __init__(self):
        self.command = None
        self.spans = []  # (command, name, start, end, parent span index)
        self.stack = []  # open spans: [span index, child time]
        self.depth = Counter()
        self.calls = defaultdict(Counter)  # command -> name -> calls
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # layer -> seconds
        self.counters = defaultdict(Counter)  # command -> counter -> n
        self.keys = defaultdict(lambda: defaultdict(set))  # command -> name
        self.timers = defaultdict(float)
        self.grids = set()

    def count(self, name, n):
        self.counters[self.command][name] += n

    def distinct(self, name, key):
        self.keys[self.command][name].add(key)

    def wrap(self, layer, name, fn):
        spans, stack, depth, clock = self.spans, self.stack, self.depth, \
            time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                depth[name] -= 1
                spans[frame[0]] = (self.command, name, start, end,
                                   parent[0] if parent else -1)
                if parent:
                    parent[1] += dur
                self.self_time[layer] += dur - frame[1]
                if not depth[name]:
                    self.total[name] += dur
                self.calls[self.command][name] += 1
                if counter:
                    bound = signature.bind(*args, **kwargs)
                    counter(self, bound.arguments, dur)

        return traced

    def install(self, package="fbmchaos"):
        """Wrap the layers' public functions and methods, rebinding imports."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr,
                        type(raw)(self.wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(layer, name, raw))

    def summary(self):
        """JSON-ready aggregates: per-command counts, workload totals."""
        per_command = {}
        for command in self.calls:
            counts = {f"{n}.calls": c for n, c in self.calls[command].items()}
            counts.update(self.counters[command])
            counts.update({n: len(k) for n, k in self.keys[command].items()})
            per_command[command] = dict(sorted(counts.items()))
        totals = Counter()
        for counts in self.calls.values():
            totals.update({f"{n}.calls": c for n, c in counts.items()})
        for counts in self.counters.values():
            totals.update(counts)
        union = defaultdict(set)
        for keys in self.keys.values():
            for n, k in keys.items():
                union[n] |= k
        totals.update({n: len(k) for n, k in union.items()})
        times = {f"{n}.total_s": s for n, s in self.total.items()}
        times.update({f"{layer}.self_s": s
                      for layer, s in self.self_time.items()})
        times.update(self.timers)
        return {"counts": dict(totals), "times": times,
                "per_command": per_command, "spans": len(self.spans)}

    def dump(self, path):
        """Write the spans as CSV: id, parent, command, name, start, end."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "command", "name", "start", "end"])
            for i, (command, name, start, end, parent) in \
                    enumerate(self.spans):
                out.writerow([i, parent, command, name, f"{start:.9f}",
                              f"{end:.9f}"])


def layer_metric(name, summary):
    """Value of one per-layer metric from a ``Tracer.summary``; 0 if unseen."""
    for prefix, target in ALIASES.items():
        if name.startswith(prefix + "."):
            name = target + name[len(prefix):]
    if name.endswith("_s"):
        return summary["times"].get(name, 0.0)
    return summary["counts"].get(name, 0)
