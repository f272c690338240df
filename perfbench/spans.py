"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the six layer modules (and
``model._rhs``, whose share of a solver step the layer table quotes) at every
module attribute of the package that binds it, so calls through a name
imported into another module (``normalform.kepler_solve``,
``equilibria.order1_coeff_partials``, ...) are caught too.  Each call made
while an item is running records one span: name, start, end, parent span and
item id.  Spans live in flat in-memory arrays until ``save`` writes them out.

Parents include their children's wrapper cost; ``calibrate`` measures that
cost per span, and the per-call times and layer self times subtract it once
per descendant (``overhead_ns``, set by the caller in reference-speed units).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("model", "invariants", "charts", "normalform", "equilibria", "cli")
PRIVATE = {"model": ("_rhs",)}


def _split_normalized_rhs(args, kwargs):
    order = kwargs.get("order", args[2] if len(args) > 2 else 1)
    return f".o{order}"


def _count_tori3(result):
    flags = Counter(f for rec in result.records for f in rec.flags)
    return {
        "equilibria.records": len(result.records),
        "equilibria.spurious": len(result.spurious),
        "equilibria.flag.rq_mismatch": flags["rq_mismatch"],
        "equilibria.flag.circular": flags["circular"],
    }


# span name suffix chosen from the arguments, and counts read off a result
SPLIT = {"normalform.normalized_rhs": _split_normalized_rhs}
RESULT_COUNTS = {"equilibria.solve_tori3": _count_tori3}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()   # (item, key) -> count
        self._stack: list[int] = []
        self._item = [-1]                  # -1: not inside an item, record nothing
        self._patches: list[tuple[object, str, object]] = []
        self.overhead_ns = 0.0

    # -- recording ------------------------------------------------------------

    def set_item(self, item: int) -> None:
        self._item[0] = item

    def add_count(self, key: str, value: int) -> None:
        self.counts[(self._item[0], key)] += value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, qualname: str):
        nid = self._name_id(qualname)
        split = SPLIT.get(qualname)
        counter = RESULT_COUNTS.get(qualname)
        names, parents, items, starts, ends = self.name, self.parent, self.item, self.start, self.end
        stack, cur, clock = self._stack, self._item, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = cur[0]
            if item < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(self._name_id(qualname + split(args, kwargs)) if split else nid)
            parents.append(stack[-1] if stack else -1)
            items.append(item)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if counter:
                for key, value in counter(result).items():
                    self.counts[(item, key)] += value
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "resonance_lab") -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))):
                    targets[obj] = self._wrap(obj, f"{layer}.{attr}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, targets[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> float:
        """Per-span cost a parent span sees for each descendant, in ns."""
        def noop():
            return None

        def parent(fn):
            for _ in range(calls):
                fn()

        wrapped_noop = self._wrap(noop, "trace.calibration")
        wrapped_parent = self._wrap(parent, "trace.calibration_parent")
        samples = []
        self.set_item(0)
        try:
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                parent(noop)
                bare = time.perf_counter_ns() - t0
                idx = len(self.name)
                wrapped_parent(wrapped_noop)
                samples.append((self.end[idx] - self.start[idx] - bare) / calls)
        finally:
            self.set_item(-1)
        self.clear()
        return float(np.median(samples))

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.item, self.start, self.end):
            del arr[:]
        self.counts.clear()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_item_counts(self) -> dict[int, Counter]:
        """Calls of each span name and each result count, grouped by item id."""
        a = self.arrays()
        out: dict[int, Counter] = {}
        for item, nid in zip(a["item"].tolist(), a["name"].tolist()):
            out.setdefault(item, Counter())[self.names[nid] + ".calls"] += 1
        for (item, key), value in self.counts.items():
            out.setdefault(item, Counter())[key] += value
        return out

    def summary(self, item_scale) -> dict:
        """Per-name calls and compensated inclusive ns, per-layer self ns.

        ``item_scale[i]`` converts the wall time of item i's spans to
        reference-speed time; ``overhead_ns`` is already in those units.
        """
        a = self.arrays()
        n = len(a["name"])
        dur = (a["end"] - a["start"]) * np.asarray(item_scale, dtype=float)[a["item"]]
        parent = a["parent"]
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        n_children = np.bincount(parent[has_parent], minlength=n)
        # spans are appended in call order, so a child's index exceeds its parent's
        subtree = np.ones(n, dtype=np.int64)
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                subtree[p] += subtree[i]
        incl = dur - (subtree - 1) * self.overhead_ns
        self_ns = dur - child_ns - n_children * self.overhead_ns
        calls = np.bincount(a["name"], minlength=len(self.names))
        incl_by_name = np.bincount(a["name"], weights=incl, minlength=len(self.names))
        per_name = {name: (int(calls[k]), float(incl_by_name[k])) for k, name in enumerate(self.names)}
        layer_of = np.array([name.split(".")[0] for name in self.names] or [""])
        self_by_name = np.bincount(a["name"], weights=self_ns, minlength=len(self.names))
        layer_self = {layer: float(self_by_name[layer_of == layer].sum()) for layer in LAYERS}
        # solver time of model.integrate: everything but the monitors it evaluates
        integ = self._ids.get("model.integrate")
        rhs = self._ids.get("model._rhs")
        solver_ns, rhs_ns, nfev = 0.0, 0.0, 0
        if integ is not None:
            is_integ = a["name"] == integ
            solver_ns = float(incl[is_integ].sum())
            direct = has_parent & np.isin(parent, np.flatnonzero(is_integ))
            if rhs is not None:
                is_rhs = direct & (a["name"] == rhs)
                rhs_ns = float(incl[is_rhs].sum())
                nfev = int(is_rhs.sum())
            solver_ns -= float(incl[direct & (a["name"] != rhs)].sum())
        totals = Counter()
        for (_, key), value in self.counts.items():
            totals[key] += value
        return {"per_name": per_name, "layer_self_ns": layer_self,
                "integrate": {"solver_ns": solver_ns, "rhs_ns": rhs_ns, "nfev": nfev},
                "counts": dict(totals), "spans": n}


def layer_metrics(summary: dict, items: int) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from ``summary``.

    Counts are per traced item; a function the workload never calls reads 0.
    """
    per_name = summary["per_name"]
    items = max(1, items)

    def calls(name):
        return per_name.get(name, (0, 0.0))[0]

    def per_call(name, scale):
        c, ns = per_name.get(name, (0, 0.0))
        return ns / c / scale if c else 0.0

    us = lambda name: per_call(name, 1e3)  # noqa: E731
    ms = lambda name: per_call(name, 1e6)  # noqa: E731
    counts = summary["counts"]
    records = counts.get("equilibria.records", 0)
    spurious = counts.get("equilibria.spurious", 0)
    integ = summary["integrate"]
    out = {
        "charts.kepler_solve.calls": calls("charts.kepler_solve") / items,
        "charts.kepler_solve.us_per_call": us("charts.kepler_solve"),
        "charts.delaunay_to_cartesian.us_per_call": us("charts.delaunay_to_cartesian"),
        "charts.delaunay_to_andoyer.us_per_call": us("charts.delaunay_to_andoyer"),
        "charts.andoyer_to_euler.us_per_call": us("charts.andoyer_to_euler"),
        "charts.euler_to_cartesian.us_per_call": us("charts.euler_to_cartesian"),
        "charts.cartesian_to_euler.us_per_call": us("charts.cartesian_to_euler"),
        "charts.euler_to_andoyer.us_per_call": us("charts.euler_to_andoyer"),
        "charts.andoyer_to_delaunay.us_per_call": us("charts.andoyer_to_delaunay"),
        "normalform.perturbation_delaunay.calls": calls("normalform.perturbation_delaunay") / items,
        "normalform.perturbation_delaunay.us_per_call": us("normalform.perturbation_delaunay"),
        "normalform.w1.us_per_call": us("normalform.w1"),
        "normalform.average_over_ell.ms_per_call": ms("normalform.average_over_ell"),
        "normalform.order1_coeffs.us_per_call": us("normalform.order1_coeffs"),
        "normalform.order2_coeffs.us_per_call": us("normalform.order2_coeffs"),
        "normalform.normalized_rhs.calls":
            (calls("normalform.normalized_rhs.o1") + calls("normalform.normalized_rhs.o2")) / items,
        "normalform.normalized_rhs.o1.us_per_call": us("normalform.normalized_rhs.o1"),
        "normalform.normalized_rhs.o2.us_per_call": us("normalform.normalized_rhs.o2"),
        "model.integrate.calls": calls("model.integrate") / items,
        "model.grad_h_sextic.calls": calls("model.grad_h_sextic") / items,
        "model.integrate.us_per_nfev": integ["solver_ns"] / integ["nfev"] / 1e3 if integ["nfev"] else 0.0,
        "model._rhs.us_per_call": us("model._rhs"),
        "model._rhs.nfev_share": integ["rhs_ns"] / integ["solver_ns"] if integ["solver_ns"] else 0.0,
        "model.h_sextic.us_per_call": us("model.h_sextic"),
        "invariants.pi_map.us_per_call": us("invariants.pi_map"),
        "invariants.klj_map.us_per_call": us("invariants.klj_map"),
        "invariants.thrice_map.us_per_call": us("invariants.thrice_map"),
        "invariants.reduced_rhs.calls": calls("invariants.reduced_rhs") / items,
        "invariants.reduced_rhs.us_per_call": us("invariants.reduced_rhs"),
        "equilibria.solve_tori3.ms_per_call": ms("equilibria.solve_tori3"),
        "equilibria.branch_product_coeffs.us_per_call": us("equilibria.branch_product_coeffs"),
        "equilibria.branch_equation.calls": calls("equilibria.branch_equation") / items,
        "equilibria.branch_equation.us_per_call": us("equilibria.branch_equation"),
        "equilibria.cross_validate.us_per_call": us("equilibria.cross_validate"),
        "equilibria.records": records / items,
        "equilibria.spurious": spurious / items,
        "equilibria.accept_ratio": records / (records + spurious) if records + spurious else 0.0,
        "equilibria.flag.rq_mismatch": counts.get("equilibria.flag.rq_mismatch", 0) / items,
        "equilibria.flag.circular": counts.get("equilibria.flag.circular", 0) / items,
        "cli.main.ms_per_call": ms("cli.main"),
        "cli.format_float.calls": calls("cli.format_float") / items,
        "cli.bytes_written": counts.get("cli.bytes_written", 0) / items,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self_ns"][layer] / 1e9
    return out
