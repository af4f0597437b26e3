"""In-process span tracing of the ringsplit modules, from outside the program.

The modules import each other's functions by name, so a call is traced by
replacing the name in the *caller's* namespace (``cli.expand``,
``discrimination.expand``, ``expansion.project_mode``, ...). Every replaced
name is restored when the ``patched`` context ends. Spans (name, start, end,
parent) stay in memory; a span's self time is its duration minus the
durations of its direct children. The prefix of a span name is the layer: the
module that does the work.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "expansion", "quadrature", "discrimination", "evolution", "ring")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.oracle_keys: set = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        """fn inside a span; hook(tracer, args, kwargs) may count and return new args."""
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, self.spans[index][3])
        return traced

    def count_calls(self, name, fn):
        """fn counted under ``name`` without a span, for O(1) closed forms."""
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def summary(self):
        """Per span name: calls, total and self seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            layer_self[name.split(".")[0]] += end - start - child[i]
        return calls, total, own, layer_self


# ---------------------------------------------------------------- hooks

def _count_integrand(tracer, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.counts["quadrature.evals"] += 1
        tracer.counts["quadrature.nodes"] += np.size(x)
        return f(x)
    return (counted, *args[1:]), kwargs


def _oracle_key(tracer, args, kwargs):
    tracer.oracle_keys.add(tuple(args[:3]))
    return args, kwargs


def _basis_bytes(tracer, args, kwargs):
    state, grid = args[:2]
    # the dense float64 N x G sine basis built by sample_amplitude, computed
    # from the array sizes, not measured
    tracer.counts["evolution.basis_bytes"] += 8 * state.base_coefficients.size * np.size(grid)
    return args, kwargs


def _samples(tracer, args, kwargs):
    tracer.counts["evolution.samples"] += np.size(args[1])
    return args, kwargs


def _rows(tracer, args, kwargs):
    tracer.counts["cli.rows"] += len(args[1])
    return args, kwargs


#: (caller module, name in it, span name, hook)
SPANS = (
    ("cli", "run_cost", "cli.run", None),
    ("cli", "run_coeffs", "cli.run", None),
    ("cli", "run_energy", "cli.run", None),
    ("cli", "run_evolve", "cli.run", None),
    ("cli", "run_parseval", "cli.run", None),
    ("cli", "_emit", "cli.emit", _rows),
    ("cli", "post_insertion_cost", "discrimination.post_insertion_cost", None),
    ("cli", "expand", "expansion.expand", None),
    ("cli", "oracle_coefficient", "expansion.oracle", _oracle_key),
    ("cli", "sign_discrepancies", "expansion.sign_discrepancies", None),
    ("cli", "delta_energy", "expansion.delta_energy", None),
    ("cli", "evolve", "evolution.evolve", None),
    ("cli", "revival_period", "evolution.revival_period", None),
    ("cli", "sample_density", "evolution.sample_density", _samples),
    ("discrimination", "expand", "expansion.expand", None),
    ("discrimination", "build_extended", "discrimination.build_extended", None),
    ("expansion", "oracle_coefficient", "expansion.oracle", _oracle_key),
    ("expansion", "project_mode", "quadrature.project_mode", None),
    ("quadrature", "integrate", "quadrature.integrate", _count_integrand),
    ("evolution", "sample_amplitude", "evolution.sample_amplitude", _basis_bytes),
)

#: ring functions called from other modules; counted only
RING_CALLS = (
    ("cli", "reference_state"), ("cli", "shifted_state"), ("cli", "ring_overlap"),
    ("discrimination", "reference_state"), ("discrimination", "shifted_state"),
    ("discrimination", "ring_overlap"),
)


@contextmanager
def patched(modules: dict, tracer: Tracer):
    """Route the calls in SPANS and RING_CALLS through ``tracer``."""
    saved = []
    try:
        for module, attr, name, hook in SPANS:
            original = getattr(modules[module], attr)
            saved.append((modules[module], attr, original))
            setattr(modules[module], attr, tracer.wrap(name, original, hook))
        for module, attr in RING_CALLS:
            original = getattr(modules[module], attr)
            saved.append((modules[module], attr, original))
            setattr(modules[module], attr, tracer.count_calls("ring.calls", original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float,
                  bytes_out: int) -> dict:
    """Per-layer metrics, per traced operation unless the unit says otherwise."""
    calls, total, own, layer_self = tracer.summary()
    c = tracer.counts
    integrate_calls = calls["quadrature.integrate"]
    oracle_calls = calls["expansion.oracle"]
    values = {
        "quadrature.integrate.calls": (integrate_calls / ops, "calls/op"),
        "quadrature.integrate_s": (total["quadrature.integrate"] / ops, "s/op"),
        "quadrature.nodes": (c["quadrature.nodes"] / ops, "nodes/op"),
        "quadrature.levels_per_call": (
            c["quadrature.evals"] / integrate_calls if integrate_calls else 0.0, "evals/call"),
        "expansion.oracle.calls": (oracle_calls / ops, "calls/op"),
        "expansion.oracle_unique_frac": (
            len(tracer.oracle_keys) / oracle_calls if oracle_calls else 0.0, "frac"),
        "expansion.oracle_self_s": (own["expansion.oracle"] / ops, "s/op"),
        "expansion.sign_discrepancies_s": (total["expansion.sign_discrepancies"] / ops, "s/op"),
        "expansion.expand.calls": (calls["expansion.expand"] / ops, "calls/op"),
        "expansion.expand_s": (total["expansion.expand"] / ops, "s/op"),
        "expansion.delta_energy_s": (total["expansion.delta_energy"] / ops, "s/op"),
        "discrimination.post_insertion_cost.calls": (
            calls["discrimination.post_insertion_cost"] / ops, "calls/op"),
        "discrimination.self_s": (layer_self["discrimination"] / ops, "s/op"),
        "discrimination.build_extended_s": (
            total["discrimination.build_extended"] / ops, "s/op"),
        "evolution.sample_density.calls": (calls["evolution.sample_density"] / ops, "calls/op"),
        "evolution.sample_density_s": (total["evolution.sample_density"] / ops, "s/op"),
        "evolution.samples": (c["evolution.samples"] / ops, "samples/op"),
        "evolution.basis_bytes": (c["evolution.basis_bytes"] / ops, "computed-B/op"),
        "cli.emit_s": (total["cli.emit"] / ops, "s/op"),
        "cli.run_self_s": (own["cli.run"] / ops, "s/op"),
        "cli.rows": (c["cli.rows"] / ops, "rows/op"),
        "cli.bytes_out": (bytes_out / ops, "B/op"),
        "ring.calls": (c["ring.calls"] / ops, "calls/op"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
    for layer in LAYERS[:-1]:
        values[f"{layer}.self_share"] = (layer_self[layer] / traced_s, "frac")
    return values
