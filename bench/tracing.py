"""Spans around the calls into each treerisk module, recorded from outside the program.

``Tracer.install`` replaces every traced public function with a wrapper in
every ``treerisk`` module namespace that binds it (the package re-exports
names and ``cli`` imports them directly, so patching the defining module
alone would miss most calls), and wraps the constructors of the validating
classes in place. Each wrapper records a span (name, start, end, parent) in
memory and adds its self time (duration minus the time covered by child
spans) to a per-layer category. Counters ride on the same wrappers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# layer -> public name -> category; the self time of a category is reported
# as "<layer>.<category>_s". Names not listed are not traced, so their time
# counts toward the caller's self time.
CATEGORIES: dict[str, dict[str, str]] = {
    "fileio": {
        name: "load"
        for name in (
            "load_tree",
            "load_process",
            "load_static",
            "load_raw_process",
            "load_bimeasure",
            "load_spec",
        )
    },
    "scenario": {"ScenarioTree": "build", "build_tree": "build", "uniform_binomial": "build"},
    "process": {
        "AdaptedProcess": "construct",
        "StaticRV": "construct",
        "RawProcess": "construct",
        "terminal_values": "construct",
        "running_sup": "construct",
        "sup_norm": "construct",
        "prob_sup_exceedance": "construct",
        "optional_projection_static": "projection",
        "optional_projection_raw": "projection",
        "predictable_projection_raw": "projection",
    },
    "bimeasure": {
        "BiMeasure": "construct",
        "RawBiMeasure": "construct",
        "as_raw": "construct",
        "jordan": "construct",
        "normalize_scenario": "construct",
        "stopping_time_measure": "construct",
        "terminal_density_measure": "construct",
        "increment_vector": "construct",
        "pairing": "pairing",
        "raw_pairing": "pairing",
        "variation": "variation",
        "variation_norm": "variation",
        "terminal_increment": "variation",
        "dual_projection": "dual_projection",
    },
    "riskcore": {
        "RiskMeasureSpec": "spec_build",
        "rho_eval": "rho_eval",
        "subgradient": "rho_eval",
        "axiom_report": "rho_eval",
        "static_rho": "static",
        "static_rho_coherent_direct": "static",
        "conjugate_combination": "conjugate",
        "conjugate_value": "conjugate",
    },
    "convexgeom": {"SimplexProgram": "solve", "min_cost_combination": "solve"},
    "instances": {
        "var_alpha": "var",
        "es_tce": "tce",
        "avar": "avar",
        "avar_max_density": "avar",
        "entropic": "entropic",
        "stopped_worst_case": "stopping",
        "worst_case_spec": "spec",
        "avar_spec": "spec",
    },
    "diagnostics": {
        "ui_modulus": "ui",
        "lebesgue_probe": "lebesgue",
        "crash_sequence": "lebesgue",
        "worst_case_crash_schedule": "lebesgue",
        "avar_crash_schedule": "lebesgue",
        "WorstCaseFamily": "lebesgue",
        "AVaRFamily": "lebesgue",
        "SpecFamily": "lebesgue",
        "decomposition_battery": "battery",
        "attainment_check": "battery",
    },
    "allocation": {"allocate": "allocate", "fairness_check": "fairness", "AllocationResult": "allocate"},
    "cli": {"main": "self", "run": "self", "render": "render"},
}

TIME_METRICS = tuple(
    f"{layer}.{cat}_s"
    for layer, table in CATEGORIES.items()
    for cat in dict.fromkeys(table.values())
)
COUNT_METRICS = (
    "fileio.bytes_read",
    "fileio.docs_loaded",
    "scenario.nodes_built",
    "process.projection_calls",
    "bimeasure.pairing_calls",
    "bimeasure.variation_calls",
    "riskcore.rho_eval_calls",
    "convexgeom.solves",
    "convexgeom.lp_rows",
    "convexgeom.lp_cols",
    "convexgeom.lp_nonzeros",
    "instances.leaves_scanned",
    "allocation.alphas_checked",
    "allocation.failed",
    "cli.bytes_written",
)


def _counts_for(layer: str, name: str):
    """Counter updates for one traced call: (args, result, raised) -> {metric: increment}."""
    if layer == "fileio":
        return lambda a, r, e: {"fileio.bytes_read": os.path.getsize(a[0]), "fileio.docs_loaded": 1}
    if name == "ScenarioTree":
        return lambda a, r, e: {"scenario.nodes_built": 0 if e else len(a[0].order)}
    if layer == "process" and CATEGORIES[layer][name] == "projection":
        return lambda a, r, e: {"process.projection_calls": 1}
    if layer == "bimeasure" and CATEGORIES[layer][name] in ("pairing", "variation"):
        key = f"bimeasure.{CATEGORIES[layer][name]}_calls"
        return lambda a, r, e: {key: 1}
    if name == "rho_eval":
        return lambda a, r, e: {"riskcore.rho_eval_calls": 1}
    if name == "min_cost_combination":
        return _lp_counts
    if name in ("var_alpha", "es_tce", "avar", "avar_max_density", "entropic"):
        return lambda a, r, e: {"instances.leaves_scanned": len(a[0].values)}
    if name == "fairness_check":
        return lambda a, r, e: {"allocation.alphas_checked": r.checked if r is not None else 0}
    if name == "allocate":
        return lambda a, r, e: {"allocation.failed": 1 if e else 0}
    if name == "render":
        return lambda a, r, e: {"cli.bytes_written": len(r.encode()) if r is not None else 0}
    return None


def _lp_counts(args, result, raised):
    prog = args[0]
    cols = len(prog.columns)
    nnz = sum(1 for col in prog.columns for x in col if x != 0.0)
    return {
        "convexgeom.solves": 1,
        "convexgeom.lp_rows": len(prog.target) + 1,  # plus the convexity row
        "convexgeom.lp_cols": cols,
        "convexgeom.lp_nonzeros": nnz + cols,
    }


class Tracer:
    """In-memory span recorder with per-category self time and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, fn, sid, metric, counts, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        stack.append(frame)
        result = None
        raised = False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            raised = True
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.spans[idx] = (sid, t0, t1, parent)
            if metric is not None:
                self.self_s[metric] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if counts is not None:
                for key, inc in counts(args, result, raised).items():
                    self.counts[key] += inc

    def root(self, name: str, fn):
        """Run a benchmark-side callable inside a span that feeds no layer metric."""
        return self.call(fn, self._name_id(name), None, None, (), {})

    def _wrap_function(self, fn, span_name, metric, counts):
        sid = self._name_id(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(fn, sid, metric, counts, args, kwargs)

        return traced

    def install(self) -> None:
        """Patch the loaded treerisk modules. Call once, after importing them."""
        modules = [m for n, m in sys.modules.items() if n == "treerisk" or n.startswith("treerisk.")]
        for layer, table in CATEGORIES.items():
            mod = sys.modules[f"treerisk.{layer}"]
            for name, cat in table.items():
                obj = getattr(mod, name)
                metric = f"{layer}.{cat}_s"
                counts = _counts_for(layer, name)
                if isinstance(obj, type):
                    obj.__init__ = self._wrap_function(obj.__init__, f"{layer}.{name}", metric, counts)
                    continue
                traced = self._wrap_function(obj, f"{layer}.{name}", metric, counts)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, attr, traced)

    def snapshot(self) -> dict[str, float]:
        out = {m: self.self_s.get(m, 0.0) for m in TIME_METRICS}
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return out

    def write(self, path) -> None:
        """Spans as JSON: a name table and [name, start, end, parent] rows."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
