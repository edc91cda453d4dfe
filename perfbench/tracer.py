"""Span tracer for the benchmark: wraps cvmdi's public functions by name.

Nothing inside `src/` is traced. `Tracer.install` replaces each public
function of a layer module with a timing wrapper in every cvmdi module
namespace that bound it (for example `cvmdi.cli` binds `secret_key_rate`
through `from .keyrate import ...`), and `uninstall` puts the originals back.
A span is recorded only where a call crosses a boundary: into another layer,
or into another named part of the same layer (a sweep calling a point). A
function named in `SUBLAYERS` that the package no longer has is listed in
`Tracer.absent`; it is not an error.

Spans are kept in memory as lists `[name, layer, start_ns, end_ns, parent,
item, measure]`. A span's self time is its duration minus the durations of
its direct children, so the self times of all spans under an item root add
up to the root's duration exactly.

This module imports nothing outside the standard library, so that a traced
child process can import it before timing `import cvmdi.cli`.
"""

from __future__ import annotations

import functools
import re
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("kernels", "gaussian", "protocol", "keyrate", "montecarlo", "oracle", "config", "cli")

# Named parts of a layer; every other public function of the layer records as
# the plain layer name.
SUBLAYERS = {
    "keyrate.point": ("secret_key_rate",),
    "keyrate.search": ("max_total_distance_symmetric", "max_distance_asymmetric",
                       "max_distance_detection_scheme", "min_detector_efficiency"),
    "keyrate.sweep": ("sweep_symmetric", "sweep_asymmetric"),
    "keyrate.kopt": ("optimize_k_detection_scheme",),
    "montecarlo.sample": ("simulate_eb", "simulate_pm", "sample_block_cm", "lo_scaling_attack"),
    "montecarlo.moments": ("estimate_params", "batch_outcome_covariance", "covariance_z_scores",
                           "fit_amplification", "pm_eb_equivalence_test",
                           "key_rates_vs_k_from_batch", "heterodyne_image"),
    "montecarlo.export": ("export_csv",),
    "config.load": ("load_config",),
}

# Methods traced on their class (one namespace each).
METHODS = {
    "protocol": ("Scenario.with_lengths", "Scenario.resolved_gain"),
    "gaussian": ("CovarianceMatrix.__init__", "GaussianState.__init__"),
    "config": ("RunConfig.scenario", "RunConfig.l_bc_values", "RunConfig.effective_lines"),
}

# Private oracle suites `_<name>_suite` record as `oracle.suite.<name>`.
SUITE_PATTERN = re.compile(r"^_(\w+)_suite$")
SUITES = ("cov", "estimation", "equivalence", "attack")

NAME, LAYER, START, END, PARENT, ITEM, MEASURE = range(7)


def _kernel_points(args, kwargs, result):
    """Array elements evaluated: the largest argument size (scalars count 1)."""
    return max([getattr(a, "size", 1) for a in args] + [1])


def _sample_measure(args, kwargs, result):
    """(samples drawn, columns materialized) of a sampling-layer call."""
    inputs = {id(v) for a in args for v in getattr(a, "__dict__", {}).values()}
    columns = {id(v) for v in vars(result).values()
               if hasattr(v, "dtype") and getattr(v, "ndim", 0) == 1} - inputs
    drawn = 0 if any(hasattr(a, "x_b_final") for a in args) else result.n
    return drawn, len(columns) * result.n


MEASURES = {"kernels": _kernel_points, "montecarlo.sample": _sample_measure}  # keyed by span name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        measure = MEASURES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                top = spans[stack[-1]]
                if top[NAME] == name or (name == layer and top[LAYER] == layer):
                    return fn(*args, **kwargs)
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                rec[MEASURE] = measure(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def run_item(self, item: int, fn, *args):
        """Call fn under a root span `bench.item` tagged with the item id."""
        self.item = item
        return self.wrap("bench.item", fn)(*args)

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of each layer module; see module doc."""
        if self._patches:
            return
        self.absent = []
        modules = {layer: sys.modules.get(f"cvmdi.{layer}") for layer in LAYERS}
        owner = {m.__name__: layer for layer, m in modules.items() if m is not None}
        by_name = {fn: sub for sub, fns in SUBLAYERS.items() for fn in fns}
        wrapped, found = {}, set()
        for layer, module in modules.items():
            if module is None:
                continue  # not imported by this workload: its metrics stay 0
            for attr, obj in vars(module).items():
                if not callable(obj) or isinstance(obj, type) or id(obj) in wrapped:
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("cvmdi") or owner.get(home, layer) != layer:
                    continue
                suite = SUITE_PATTERN.match(attr) if layer == "oracle" else None
                if suite:
                    name = f"oracle.suite.{suite.group(1)}"
                elif attr.startswith("_"):
                    continue
                else:
                    name = by_name.get(attr, layer)
                found.add(attr)
                wrapped[id(obj)] = self.wrap(name, obj)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(f"cvmdi.{layer}.{path}")
                    continue
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(layer, fn))
        self.absent.extend(f"{sub}:{fn}" for fn, sub in by_name.items()
                           if fn not in found and modules[sub.split(".")[0]] is not None)
        if modules["oracle"] is not None:
            self.absent.extend(f"oracle.suite.{s}" for s in SUITES if f"_{s}_suite" not in found)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cvmdi" or mod_name.startswith("cvmdi.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


# -- aggregation ------------------------------------------------------------
def self_times(spans) -> list[int]:
    """Per-span duration minus the durations of its direct children (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _nearest(spans, idx: int, name: str) -> int:
    idx = spans[idx][PARENT]
    while idx >= 0 and spans[idx][NAME] != name:
        idx = spans[idx][PARENT]
    return idx


def layer_metrics(spans, items: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `items` traced items; counts and
    times are per item."""
    items = max(items, 1)
    own = self_times(spans)
    calls, self_ns, incl_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    for s, o in zip(spans, own):
        calls[s[NAME]] += 1
        self_ns[s[LAYER]] += o
        self_ns[s[NAME]] += o if s[NAME] != s[LAYER] else 0
        incl_ns[s[NAME]] += s[END] - s[START]

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.split(".", 1)[0] == layer)

    points = sum(s[MEASURE] or 0 for s in spans if s[LAYER] == "kernels")
    drawn = sum(s[MEASURE][0] for s in spans if s[NAME] == "montecarlo.sample")
    computed = sum(s[MEASURE][1] for s in spans if s[NAME] == "montecarlo.sample")
    evals = sum(1 for i, s in enumerate(spans)
                if s[NAME] in ("keyrate.point", "keyrate.kopt") and _nearest(spans, i, "keyrate.search") >= 0)
    roots = [s[END] - s[START] for s in spans if s[NAME] == "bench.item"]
    per = 1e-9 / items
    out = {
        "kernels.calls": layer_calls("kernels") / items,
        "kernels.points": points / items,
        "kernels.self_s": self_ns["kernels"] * per,
        "kernels.ns_per_point": self_ns["kernels"] / points if points else 0.0,
        "protocol.calls": layer_calls("protocol") / items,
        "protocol.self_s": self_ns["protocol"] * per,
        "keyrate.point.calls": calls["keyrate.point"] / items,
        "keyrate.self_s": self_ns["keyrate"] * per,
        "keyrate.search.calls": calls["keyrate.search"] / items,
        "keyrate.search.evals_per_call": evals / calls["keyrate.search"] if calls["keyrate.search"] else 0.0,
        "keyrate.search.s": incl_ns["keyrate.search"] * per,
        "keyrate.sweep.s": incl_ns["keyrate.sweep"] * per,
        "keyrate.kopt.s": incl_ns["keyrate.kopt"] * per,
        "gaussian.calls": layer_calls("gaussian") / items,
        "gaussian.self_s": self_ns["gaussian"] * per,
        "montecarlo.samples": drawn / items,
        "montecarlo.sample.self_s": self_ns["montecarlo.sample"] * per,
        "montecarlo.bytes_computed": computed * 8 / items,
        "montecarlo.moments.self_s": self_ns["montecarlo.moments"] * per,
        "montecarlo.export.s": incl_ns["montecarlo.export"] * per,
        "config.load_s": incl_ns["config.load"] * per,
        "cli.command_s": incl_ns["cli"] * per,
        "trace.accounted": (sum(o for s, o in zip(spans, own) if s[LAYER] in LAYERS) / sum(roots)
                            if roots else 0.0),
    }
    for suite in SUITES:
        out[f"oracle.suite.{suite}.s"] = incl_ns[f"oracle.suite.{suite}"] * per
    return out


def draw_times(cold_spans, warm_spans) -> dict[str, float]:
    """Cold first draw versus the same draw when warm, in seconds.

    `cold_spans` holds one span list per process, the spans of its first
    full-size item; the first sampling span in each is a cold draw. The warm
    draws are the first sampling spans of each item in `warm_spans`.
    """
    def first_draws(spans):
        seen, out = set(), []
        for s in spans:
            if s[NAME] == "montecarlo.sample" and s[ITEM] not in seen:
                seen.add(s[ITEM])
                out.append((s[END] - s[START]) * 1e-9)
        return out

    cold = [d for spans in cold_spans for d in first_draws(spans)[:1]]
    warm = first_draws(warm_spans)
    return {
        "montecarlo.sample.cold_s": statistics.median(cold) if cold else 0.0,
        "montecarlo.sample.warm_s": statistics.median(warm) if warm else 0.0,
    }
