"""Spans around calls into isonet's layers, recorded from outside.

Inside Tracer.installed(), every public function of the layer modules,
in every isonet namespace that binds it (cli, protocol and spiders import
graph functions by name, so patching graphs alone would miss their calls),
and the DensityOperator constructor are replaced by wrappers that record
one span per call: id, name, start, end, parent span, thread id, job, and
the thread's CPU time spent inside.  On exit the originals are back.  Spans stay
in memory until the run writes them out.  summarize() turns them into the
per-layer metrics; self time is computed per thread because the CLI's
thread pools run layer calls concurrently.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter, thread_time

LAYERS = ("cli", "graphs", "spiders", "hilbert", "channels", "protocol", "spectra")
# called once per edge while graphs are built: a span would cost more than the call
UNTRACED = {"graphs.canonical_edge"}


class Tracer:
    """Spans and counters of the calls made while installed(); isonet must
    be imported first."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread id, job, cpu seconds)
        self.counts = defaultdict(int)
        self.max_dense_dim = 0
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = self._plan()  # (namespace, attribute, original, wrapper)
        self.wrapped_functions = len({id(original) for _, _, original, _ in self._patches})

    def wrap(self, name: str, fn, on_result=None):
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu = thread_time()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), self.job, cpu)
                )
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count(self, key: str, value):
        self.counts[key] += value

    def _dense_built(self, args, _result):
        self.max_dense_dim = max(self.max_dense_dim, args[0].total_dim)

    @contextlib.contextmanager
    def installed(self):
        """Patch isonet in place for the duration of the block."""
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        try:
            yield self
        finally:
            for namespace, attr, original, _ in self._patches:
                setattr(namespace, attr, original)

    def _plan(self):
        import sys

        import isonet
        from isonet import hilbert

        hooks = {
            "spiders.extract_spiders": lambda a, r: self._count("spiders.found", r.count),
            "spiders.grid_spiders": lambda a, r: self._count("spiders.found", r.count),
            "spiders.spider_guarantee": lambda a, r: self._count("spiders.guaranteed", r.count),
            "protocol.simulate_partial_distillation": lambda a, r: self._count(
                "spiders.guaranteed", r.plan.spider_budget
            ),
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"isonet.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        namespaces = [isonet] + [sys.modules[f"isonet.{name}"] for name in LAYERS]
        namespaces.append(sys.modules["isonet.verification"])
        patches = []
        for namespace in namespaces:
            for attr, value in vars(namespace).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((namespace, attr, *entry))
        init = hilbert.DensityOperator.__init__
        wrapper = self.wrap("hilbert.DensityOperator", init, self._dense_built)
        patches.append((hilbert.DensityOperator, "__init__", init, wrapper))
        return patches

    def write(self, path):
        with open(path, "w", encoding="ascii") as stream:
            for span_id, name, start, end, parent, thread, job, cpu in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "thread": thread, "job": job, "cpu": cpu}
                stream.write(json.dumps(record) + "\n")


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# per-layer metric -> (span name, "incl" | "calls" | "self")
FUNCTION_METRICS = {
    "graphs.edge_connectivity_s": ("graphs.edge_connectivity", "incl"),
    "graphs.edge_connectivity_calls": ("graphs.edge_connectivity", "calls"),
    "graphs.diameter_s": ("graphs.diameter", "incl"),
    "graphs.generate_s": ("graphs.generate", "incl"),
    "graphs.shortest_path_s": ("graphs.shortest_path", "incl"),
    "graphs.shortest_path_calls": ("graphs.shortest_path", "calls"),
    "graphs.remove_path_edges_s": ("graphs.remove_path_edges", "incl"),
    "graphs.remove_path_edges_calls": ("graphs.remove_path_edges", "calls"),
    "spiders.extract_s": ("spiders.extract_spiders", "incl"),
    "spiders.extract_calls": ("spiders.extract_spiders", "calls"),
    "spiders.guarantee_s": ("spiders.spider_guarantee", "incl"),
    "channels.apply_noisy_teleport_s": ("channels.apply_noisy_teleport", "incl"),
    "channels.apply_noisy_teleport_calls": ("channels.apply_noisy_teleport", "calls"),
    "hilbert.density_operator_s": ("hilbert.DensityOperator", "incl"),
    "hilbert.density_operator_builds": ("hilbert.DensityOperator", "calls"),
    "hilbert.fidelity_s": ("hilbert.fidelity", "incl"),
    "hilbert.partial_trace_s": ("hilbert.partial_trace", "incl"),
    "protocol.simulate_s": ("protocol.simulate_partial_distillation", "self"),
    "protocol.distilled_visibility_s": ("protocol.distilled_visibility", "incl"),
    "spectra.min_eigenvalue_s": ("spectra.min_eigenvalue_teleported_ghz", "incl"),
    "spectra.min_eigenvalue_calls": ("spectra.min_eigenvalue_teleported_ghz", "calls"),
    "spectra.is_ppt_s": ("spectra.is_ppt_teleported_ghz", "incl"),
    "spectra.crossover_s": ("spectra.ppt_crossover", "incl"),
    "spectra.crossover_calls": ("spectra.ppt_crossover", "calls"),
}


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of the recorded spans.

    *_s of a function is its inclusive wall time (outermost calls only),
    *_calls its call count; protocol.simulate_s and <layer>.self_s are self
    times: span length minus the child spans on the same thread.  A thread
    of a pool that waits for the interpreter lock is still inside its span,
    so under the ppt-scan pool these sums exceed the jobs' wall time;
    <layer>.cpu_s is the same self time counted in thread CPU time, which
    leaves the waiting out (and the BLAS helper threads too).  cli.self_s
    is the job time during which no layer span runs on any thread
    (argument parsing, formatting, pool overhead), so threads waiting on a
    pool do not count twice.
    """
    by_id = {span[0]: span for span in tracer.spans}
    child_time, child_cpu = defaultdict(float), defaultdict(float)
    for _, _, start, end, parent, _, _, cpu in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
            child_cpu[parent] += cpu
    incl, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    layer_self, layer_cpu = defaultdict(float), defaultdict(float)
    job_spans, layer_intervals = {}, defaultdict(list)
    for span_id, name, start, end, parent, _, job, cpu in tracer.spans:
        layer = name.split(".", 1)[0]
        calls[name] += 1
        own = end - start - child_time[span_id]
        self_time[name] += own
        layer_cpu[layer] += cpu - child_cpu[span_id]
        ancestor = parent
        while ancestor is not None and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][4]
        if ancestor is None:
            incl[name] += end - start
        if name == "cli.main":
            job_spans[job] = end - start
        elif layer != "cli":
            layer_self[layer] += own
            if parent is None or by_id[parent][1].startswith("cli."):
                layer_intervals[job].append((start, end))
    layer_self["cli"] = sum(
        length - _union_length(layer_intervals[job]) for job, length in job_spans.items()
    )
    metrics = {}
    for metric, (name, kind) in FUNCTION_METRICS.items():
        metrics[metric] = {"incl": incl, "calls": calls, "self": self_time}[kind].get(name, 0)
    found = tracer.counts["spiders.found"]
    guaranteed = tracer.counts["spiders.guaranteed"]
    metrics["spiders.found"] = found
    metrics["spiders.yield_ratio"] = found / guaranteed if guaranteed else 0.0
    metrics["hilbert.max_dense_dim"] = tracer.max_dense_dim
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        metrics[f"{layer}.cpu_s"] = layer_cpu.get(layer, 0.0)
    return metrics
