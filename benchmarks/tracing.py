"""Tracing of gammapath's public functions from outside the program.

`Tracer.install()` replaces every listed function with a timing wrapper at
every place it is reachable: its module, every gammapath module that
imported it by name, and module-level dicts such as `harness.ALL_CHECKS`.
Methods are wrapped on their class.  `uninstall()` puts every original back.

Each call of a wrapped function is a span (name, start, end, parent).  Spans
are kept in memory and written out by `write()`.  The group layer runs
millions of times, so its calls are only aggregated: counted always, and
timed only when entered from outside the layer (calls nested inside another
group call are already inside that call's time).  Durations are the calling thread's CPU time, so time a thread
spends waiting for the interpreter lock under the suite's thread pool is not
counted as work; span start and end are wall-clock.  For each function the
tracer sums:

- `total_s`: duration, at its outermost call only;
- `layer_s`: duration minus the time of wrapped children in other layers
  (its time in its own layer's code), at its outermost call only, so
  recursion does not count twice;
- `boundary_s`: the same, but only for calls entered from another layer or
  from outside, so summing it over a layer gives the layer's self time;
- `calls`, `items` (paths returned, family members, frame audit entries) and
  `limit_exceeded` (LimitExceeded leaving the layer).

Functions listed as count-only (`LabelledGraph.without_vertices`) are counted
but not timed, so their time stays in their caller.

Each thread keeps its own stack and totals, so the suite's thread pool can
run under the tracer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

MARK = "__bench_wrapped__"

# layer -> (module, functions, {class name: methods})
LAYERS = {
    "groups": ("gammapath.groups", [
        "group_from_json", "element_order", "cyclic_subgroup", "subgroup_contains",
        "elements_of_order_at_most_2", "find_halving", "find_bad_pair", "has_zero_path_ep",
        "has_weight_ep", "sumset", "abelian_types",
    ], {
        "CyclicProduct": ["add", "neg", "element", "elements"],
        "CayleyGroup": ["add", "neg", "element", "elements"],
        "IntegerGroup": ["add", "neg", "element"],
    }),
    "chains": ("gammapath.chains", [
        "reachable_weights", "reroute_to_weight", "sharpness_witness", "zero_path_from_chain",
    ], {"CycleChain": ["abstract", "embedded"]}),
    "graphs": ("gammapath.graphs", [
        "enumerate_terminal_paths", "is_gamma_bipartite", "normalize_to_zero", "apply_shifts",
        "three_blocks", "nonzero_terminal_path_from_fans",
    ], {"LabelledGraph": ["without_vertices"]}),
    "packing": ("gammapath.packing", [
        "max_packing", "min_cover", "duality_report", "reduce_weight_to_zero",
    ], {"PathFamilySpec": ["members"]}),
    "frame": ("gammapath.frame", [
        "frame_pack_or_cover", "validate_frame_cover", "extract_zero_paths", "base_zero_path",
    ], {}),
    "gadgets": ("gammapath.gadgets", [
        "build_integer_gadget", "build_quotient_gadget", "build_subgroup_escape_gadget",
        "verify_gadget", "greedy_separated_sequence",
    ], {}),
    "cli": ("gammapath.cli", ["run"], {}),
    "jsonio": ("gammapath.jsonio", ["graph_from_json", "witness_from_json", "dumps", "parse_element"], {}),
    "harness": ("gammapath.harness", [
        "run_suite", "random_labelled_graph", "random_three_connected", "make_s3",
        "check_frame_random", "check_duality_random", "check_chain_exhaustive",
        "check_cauchy_davenport", "check_gadgets", "check_classification",
        "check_normalization", "check_reduction", "check_oracle_soundness",
    ], {}),
}
COUNT_ONLY = {"graphs.LabelledGraph.without_vertices"}
AGGREGATE_ONLY_LAYERS = {"groups"}
MAX_SPANS = 500_000
# functions whose result size is counted: paths returned, family members, audit entries
RESULT_COUNTS = {
    "graphs.enumerate_terminal_paths": len,
    "packing.PathFamilySpec.members": len,
    "frame.frame_pack_or_cover": lambda result: len(result.audit),
}


class _Frame:
    __slots__ = ("layer", "cpu", "foreign", "span", "wall")

    def __init__(self, layer, cpu):
        self.layer = layer
        self.cpu = cpu
        self.foreign = 0.0
        self.span = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats: list[dict] = []
        self._replaced: list[tuple] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def _thread_state(self):
        """This thread's stack, active-call counts and totals, made on first use."""
        local = self._local
        local.stack = []
        local.active = defaultdict(int)
        local.inside_aggregated = False
        local.stats = defaultdict(lambda: defaultdict(float))
        with self._lock:
            self._stats.append(local.stats)
        return local

    # --- wrappers -----------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        tls = self._local
        cpu_clock = time.thread_time
        wall_clock = time.perf_counter

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                local = tls if hasattr(tls, "stack") else tracer._thread_state()
                local.stats[name]["calls"] += 1
                return fn(*args, **kwargs)

            setattr(counted, MARK, fn)
            return counted

        if layer in AGGREGATE_ONLY_LAYERS:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                local = tls if hasattr(tls, "stack") else tracer._thread_state()
                stats = local.stats[name]
                stats["calls"] += 1
                if local.inside_aggregated:
                    # already timed by the enclosing call of this layer
                    return fn(*args, **kwargs)
                local.inside_aggregated = True
                start = cpu_clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = cpu_clock() - start
                    local.inside_aggregated = False
                    stats["total_s"] += duration
                    stats["layer_s"] += duration
                    stats["boundary_s"] += duration
                    if local.stack:
                        local.stack[-1].foreign += duration

            setattr(aggregated, MARK, fn)
            return aggregated

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tls if hasattr(tls, "stack") else tracer._thread_state()
            stack = local.stack
            active = local.active
            parent = stack[-1] if stack else None
            outermost = active[name] == 0
            boundary = parent is None or parent.layer != layer
            frame = _Frame(layer, cpu_clock())
            if len(tracer.spans) < MAX_SPANS:
                frame.span = next(tracer._ids)
                frame.wall = wall_clock()
            active[name] += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if name in RESULT_COUNTS:
                    local.stats[name]["items"] += RESULT_COUNTS[name](result)
                return result
            except Exception as exc:
                if boundary and type(exc).__name__ == "LimitExceeded":
                    local.stats[name]["limit_exceeded"] += 1
                raise
            finally:
                duration = cpu_clock() - frame.cpu
                if stack and stack[-1] is frame:
                    stack.pop()
                active[name] -= 1
                stats = local.stats[name]
                stats["calls"] += 1
                if outermost:
                    stats["total_s"] += duration
                    stats["layer_s"] += duration - frame.foreign
                if boundary:
                    stats["boundary_s"] += duration - frame.foreign
                if parent is not None:
                    parent.foreign += frame.foreign if parent.layer == layer else duration
                if frame.span is not None:
                    tracer.spans.append((
                        frame.span, parent.span if parent is not None else None, name,
                        frame.wall, wall_clock(), threading.get_ident(),
                    ))

        setattr(wrapper, MARK, fn)
        return wrapper

    # --- install / uninstall --------------------------------------------------------

    def install(self) -> None:
        import gammapath  # noqa: F401  (loads every module the layers name)

        originals = {}
        for layer, (modname, functions, classes) in LAYERS.items():
            module = importlib.import_module(modname)
            for fname in functions:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", layer, fn))
            for cname, methods in classes.items():
                cls = getattr(module, cname)
                for mname in methods:
                    raw = cls.__dict__[mname]
                    name = f"{layer}.{cname}.{mname}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, layer, raw.__func__))
                    else:
                        wrapped = self._wrap(name, layer, raw)
                    self._replace(cls, mname, raw, wrapped, attr=True)
        for modname, module in list(sys.modules.items()):
            if not (modname == "gammapath" or modname.startswith("gammapath.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._replace(module, attr, value, originals[id(value)][1], attr=True)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._replace(value, key, item, originals[id(item)][1], attr=False)

    def _replace(self, owner, key, original, wrapped, attr: bool) -> None:
        self._replaced.append((owner, key, original, attr))
        if attr:
            setattr(owner, key, wrapped)
        else:
            owner[key] = wrapped

    def uninstall(self) -> None:
        while self._replaced:
            owner, key, original, attr = self._replaced.pop()
            if attr:
                setattr(owner, key, original)
            else:
                owner[key] = original

    # --- results ----------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        merged: dict = defaultdict(lambda: defaultdict(float))
        with self._lock:
            for per_thread in self._stats:
                for name, stats in per_thread.items():
                    for key, value in stats.items():
                        merged[name][key] += value
        return merged

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end", "thread"],
                    "spans": self.spans,
                    "truncated": len(self.spans) >= MAX_SPANS,
                },
                fh,
            )


def leftover_wrappers() -> list[str]:
    """Names of gammapath attributes, class methods or dict entries still wrapped."""
    found = []
    for modname, module in list(sys.modules.items()):
        if not (modname == "gammapath" or modname.startswith("gammapath.")):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{modname}.{attr}")
            elif isinstance(value, dict):
                found += [f"{modname}.{attr}[{k!r}]" for k, v in value.items() if hasattr(v, MARK)]
            elif isinstance(value, type) and value.__module__ == modname:
                for mname, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        found.append(f"{modname}.{attr}.{mname}")
    return found
