"""Span tracer for traced benchmark runs.

Wrappers are installed from outside the program: every function listed in
``WRAPPED`` is rebound, in every ``cellconn`` module namespace that holds it,
to a wrapper that records one span per call.  A span is (name, start, end,
parent span, op id), where the op id is the request line or CLI call the
benchmark is driving.  Spans stay in memory, in flat arrays, until ``write``.

A function that does not exist at the traced commit is listed in ``absent``
and reports zero calls; the run goes on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import sys
import time
from array import array

# (module, function) pairs wrapped in a traced run, by layer.
WRAPPED = (
    ("netmodel", "rsrp_matrix_dbm"), ("netmodel", "rsrp_dbm"),
    ("netmodel", "measurement_report"), ("netmodel", "generate_deployment"),
    ("netmodel", "load_deployment"),
    ("graph", "capacity_matrix"), ("graph", "classify_ues"), ("graph", "initial_graph"),
    ("graph", "connect"), ("graph", "input_features"), ("graph", "ue_adjacency"),
    ("gnn", "forward"), ("gnn", "backward"), ("gnn", "load_model"), ("gnn", "score_action"),
    ("metrics", "sum_throughput"), ("metrics", "fair_bonus"),
    ("dqn", "best_action"), ("dqn", "td_target"), ("dqn", "sgd_step"),
    ("dqn", "greedy_rollout"),
    ("xapp", "_parse_request"), ("xapp", "extract_subgraph"), ("xapp", "handle_event"),
    ("cli", "cmd_train"), ("cli", "cmd_eval"),
)
NAMES = tuple(f"{m}.{f}" for m, f in WRAPPED)
_ID = {name: i for i, name in enumerate(NAMES)}
_FORWARD, _BEST, _TD = _ID["gnn.forward"], _ID["dqn.best_action"], _ID["dqn.td_target"]
_EXTRACT, _HANDLE = _ID["xapp.extract_subgraph"], _ID["xapp.handle_event"]


def _cellconn_modules(package: str) -> list:
    """Import every module of the package and return them with the package."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        if not info.name.endswith(".__main__"):  # importing it would run the CLI
            importlib.import_module(info.name)
    return [m for name, m in sys.modules.items()
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records spans around the calls into the program's public functions."""

    def __init__(self, package: str = "cellconn"):
        self.package = package
        self.op = -1                      # id stamped on new spans
        self.absent: list[str] = []
        self._bound: list[tuple] = []     # (module, attribute, original)
        self._wrappers: dict[int, object] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.opid = array("q")
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self._active = [0] * len(NAMES)   # open spans per name
        self._stack: list[list] = []      # [span index, child seconds] per open span
        self.q_evals_decision = 0
        self.q_evals_target = 0
        self.sums = {"xapp.subgraph_cells": 0, "xapp.subgraph_ues": 0,
                     "xapp.reshuffled_ues": 0}

    def install(self) -> None:
        """Rebind every wrapped function wherever a cellconn module imported it."""
        if self._bound:
            return
        modules = _cellconn_modules(self.package)
        self.absent = []
        for i, (mod, fn_name) in enumerate(WRAPPED):
            home = sys.modules.get(f"{self.package}.{mod}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(NAMES[i])
                continue
            wrapper = self._wrappers.get(i)
            if wrapper is None or wrapper.__wrapped__ is not original:
                wrapper = self._wrappers[i] = self._wrap(i, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bound.append((m, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for m, attr, original in reversed(self._bound):
            setattr(m, attr, original)
        self._bound = []

    def _wrap(self, idx: int, fn):
        """One span per call: bookkeeping in closure locals keeps the cost
        per call near 2 microseconds."""
        tracer, perf = self, time.perf_counter
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.opid)
        stack, active, calls, self_s = self._stack, self._active, self.calls, self.self_s
        is_forward = idx == _FORWARD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            if is_forward:
                tracer.q_evals_decision += active[_BEST] > 0
                tracer.q_evals_target += active[_TD] > 0
            active[idx] += 1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[idx] -= 1
                ends[span] = t1
                calls[idx] += 1
                self_s[idx] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if idx == _EXTRACT or idx == _HANDLE:
                tracer._observe(idx, result)
            return result

        return traced

    def _observe(self, idx: int, result) -> None:
        if idx == _EXTRACT:
            self.sums["xapp.subgraph_cells"] += len(getattr(result, "kept_cells", ()))
            self.sums["xapp.subgraph_ues"] += len(getattr(result, "kept_ues", ()))
        elif hasattr(result, "__len__"):
            self.sums["xapp.reshuffled_ues"] += len(result)

    def count(self, name: str) -> int:
        return self.calls[_ID[name]]

    def metrics(self, units: int) -> dict[str, float]:
        """Per-function calls and self time, plus the derived layer ratios.

        ``netmodel.rsrp_per_unit`` counts RSRP-map computations made while
        driving an op (op id >= 0, so service set-up is left out) per unit:
        ``units`` is the number of requests handled or deployments visited.
        """
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_ms"] = self.self_s[i] * 1e3
        rsrp = _ID["netmodel.rsrp_matrix_dbm"]
        in_ops = sum(1 for n, op in zip(self.name, self.opid) if n == rsrp and op >= 0)
        out["netmodel.rsrp_per_unit"] = _ratio(in_ops, units)
        out["dqn.q_evals_per_decision"] = _ratio(self.q_evals_decision,
                                                 self.count("dqn.best_action"))
        out["dqn.q_evals_per_target"] = _ratio(self.q_evals_target,
                                               self.count("dqn.td_target"))
        handled = self.count("xapp.handle_event")
        for key in ("xapp.subgraph_cells", "xapp.subgraph_ues"):
            out[key] = _ratio(self.sums[key], self.count("xapp.extract_subgraph"))
        out["xapp.reshuffled_ues"] = _ratio(self.sums["xapp.reshuffled_ues"], handled)
        return out

    def write(self, path: str) -> None:
        """Write every span as a gzipped TSV row: id, name, start and end in
        microseconds from the first span, parent id, op id."""
        t_base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{NAMES[self.name[i]]}\t"
                         f"{(self.start[i] - t_base) * 1e6:.1f}\t"
                         f"{(self.end[i] - t_base) * 1e6:.1f}\t"
                         f"{self.parent[i]}\t{self.opid[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
