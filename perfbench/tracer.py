"""Span tracing of irlap's layer boundaries, installed from outside the
library.

`Tracer.install()` replaces each boundary function named in
BOUNDARIES with a timing wrapper, in every irlap module namespace that
binds the same function object, so calls from one module into another
are caught.  Classes are traced by wrapping their ``__init__`` (one
span per construction).  Per-sample helpers (``moments.moments``,
``perms.rank_of``, ...) are deliberately not wrapped: they run
thousands of times per job and the wrapper would dominate them.

A span is ``(id, parent, name, start, end, item, value)``.  Spans stay
in memory until `dump` writes them at the end of a run; `layer_metrics`
turns them into per-layer calls, total and self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from math import factorial

BOUNDARIES = {
    "cli": ("main",),
    "perms": ("build_fixing_subgroup",),
    "basis": ("rho1_table", "Rho1Table", "project_to_lin"),
    "aggregators": ("profile_tables", "ProfileTables", "make_dictator",
                    "make_plurality", "make_borda", "encode_g", "to_json",
                    "from_json"),
    "laplacian": ("build_one_voter", "hat_l1", "apply_quadratic_form",
                  "apply_Ln", "build_Ln_dense", "lin_space_basis",
                  "spectral_gap"),
    "metrics": ("pair_count_tensors", "ir_combinatorial", "is_ir_single",
                "census_ir_functions", "manipulation_power"),
    "rounding": ("center_aggregator", "measured_gap", "robustness_report",
                 "fkn_diagnostics"),
    "moments": ("build_appendix", "audit_blocks", "hypercontractivity_check",
                "empirical_m0"),
    "_util": ("blocked_pmap",),
}


def layer_name(module: str, function: str) -> str:
    """Span and metric name; metric names may not start with "_"."""
    return f"{module.lstrip('_')}.{function}"


LAYERS = tuple(layer_name(mod, fn) for mod, fns in BOUNDARIES.items() for fn in fns)


def _gap_dim(args, kwargs):
    m, n = args[0], args[1]
    return factorial(m) ** n * (m - 1)


def _ln_ops(args, kwargs):
    enc = args[0]
    return enc.n * enc.m * factorial(enc.m) ** (enc.n + 1)


# Work counts computed from a call's arguments: name -> (suffix, fn).
COMPUTED = {
    "laplacian.spectral_gap": ("dim", _gap_dim),
    "laplacian.apply_Ln": ("ops", _ln_ops),
}

# Cache hit ratios: 1 - (misses / calls), where a miss is a span of the
# second name whose parent is a span of the first.
HIT_RATIOS = {
    "aggregators.profile_tables": "aggregators.ProfileTables",
    "basis.rho1_table": "basis.Rho1Table",
    "rounding.measured_gap": "laplacian.spectral_gap",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        computed = COMPUTED.get(name)
        adopt = name == "util.blocked_pmap"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            value = computed[1](args, kwargs) if computed else None
            if adopt:
                # worker threads start with an empty stack; parent their
                # spans to this call so self time stays meaningful
                args = (self._adopted(span_id, args[0]),) + args[1:]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end,
                                   self.item, value))

        return traced

    def _adopted(self, parent_id: int, fn):
        def run(item):
            stack = self._stack()
            if stack:
                return fn(item)
            stack.append(parent_id)
            try:
                return fn(item)
            finally:
                stack.pop()

        return run

    def install(self) -> None:
        mods = {m: importlib.import_module(f"irlap.{m}") for m in BOUNDARIES}
        for mod_name, names in BOUNDARIES.items():
            home = mods[mod_name]
            for attr in names:
                name = layer_name(mod_name, attr)
                original = getattr(home, attr)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._undo.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(name, init))
                    continue
                wrapper = self._wrap(name, original)
                for mod in mods.values():
                    if getattr(mod, attr, None) is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans
    (children may overlap when they ran on worker threads)."""
    children: dict = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = {}
    for span_id, _, _, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metric_names() -> list[str]:
    names = [f"{layer}.{kind}" for layer in LAYERS
             for kind in ("calls", "total_s", "self_s")]
    names += [f"{layer}.{suffix}" for layer, (suffix, _) in COMPUTED.items()]
    names += [f"{layer}.hit_ratio" for layer in HIT_RATIOS]
    return names


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer calls, total_s and self_s per traced pass, the computed
    work counts per pass, and cache hit ratios.  Spans are grouped by
    (item, id) because ids restart in every traced child process."""
    out = {name: 0.0 for name in layer_metric_names()}
    by_item: dict = {}
    for span in spans:
        by_item.setdefault(span[5], []).append(span)
    calls: dict = {}
    misses: dict = {}
    for group in by_item.values():
        selfs = self_times(group)
        names = {span[0]: span[2] for span in group}
        for span_id, parent, name, start, end, _, value in group:
            calls[name] = calls.get(name, 0) + 1
            out[f"{name}.total_s"] += (end - start) / passes
            out[f"{name}.self_s"] += selfs[span_id] / passes
            if name in COMPUTED:
                out[f"{name}.{COMPUTED[name][0]}"] += value / passes
            parent_name = names.get(parent)
            if HIT_RATIOS.get(parent_name) == name:
                misses[parent_name] = misses.get(parent_name, 0) + 1
    for name, count in calls.items():
        out[f"{name}.calls"] = count / passes
    for name in HIT_RATIOS:
        if calls.get(name):
            out[f"{name}.hit_ratio"] = 1 - misses.get(name, 0) / calls[name]
    return out
