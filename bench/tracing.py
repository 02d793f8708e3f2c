"""Span tracing of sbpquad's public functions, from outside the package.

`Tracer.wrap` replaces a function by a timing wrapper under the name a
calling module looks it up by (`sbpquad.search.vandermonde` is the
basis function as `search` sees it), so the package itself is not
edited. Spans are kept in memory as flat arrays and written out when the
run ends. A span's self time is its duration minus that of its child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Nested spans of one thread: name, parent, start, end and a value."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.value = array("d")
        self.stop = array("l")      # one past the span's last descendant
        self._open = [-1]
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.value.append(0.0)
        self.stop.append(0)
        self._open.append(idx)
        return idx

    def _end(self, idx: int, t0: float, t1: float) -> None:
        self._open.pop()
        self.t0[idx] = t0
        self.t1[idx] = t1
        self.stop[idx] = len(self.name)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._end(idx, t0, perf_counter())

    def wrap(self, module, attr: str, name: str, value=None) -> None:
        """Trace calls of module.attr as spans called `name`.

        value(args, result) gives the number stored with the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx, t0, perf_counter())
            if value is not None:
                self.value[idx] = value(args, out)
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def arrays(self, lo: int, hi: int):
        """(name, duration, self time, value, facet flag) of spans lo..hi-1.

        The facet flag marks spans inside a `signatures.find_facet_rule`
        span.
        """
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.t1, dtype=float)
               - np.frombuffer(self.t0, dtype=float))
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        facet_id = self._ids.get("signatures.find_facet_rule", -1)
        in_facet = np.zeros(len(dur), dtype=bool)
        for i in np.flatnonzero(name == facet_id):
            in_facet[i + 1:self.stop[i]] = True
        sl = slice(lo, hi)
        return (name[sl], dur[sl], (dur - child)[sl],
                np.frombuffer(self.value, dtype=float)[sl], in_facet[sl])

    def write(self, path) -> None:
        """Every span as one JSON line [name, parent, t0, t1, value]."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name[i]],
                                     self.parent[i], self.t0[i],
                                     self.t1[i], self.value[i]]) + "\n")


def _converged(args, result) -> float:
    return float(result.converged)


def _iterations(args, result) -> float:
    return float(result.iterations)


def _dof(args, result) -> float:
    return float(args[1].size)


def trace_sbpquad(tracer: Tracer) -> None:
    """Wrap each traced function under every name a caller uses for it.

    `simplex` is reached only through `search` and `archive` and gets no
    span; `archive` serves only the checks; `cli` is not driven.
    """
    from sbpquad import advection, operators, search, signatures
    table = [
        ("basis.vandermonde", [search, operators, advection],
         "vandermonde", None),
        ("basis.grad_vandermonde", [search, operators],
         "grad_vandermonde", None),
        ("search.solve_coupled", [signatures], "solve_coupled", _converged),
        ("search.swarm_objective", [search], "swarm_objective", None),
        ("search.pso_step", [search], "pso_step", None),
        ("search.lma_solve", [search], "lma_solve", _iterations),
        ("search.residual_and_jacobian", [search],
         "residual_and_jacobian", None),
        ("signatures.find_facet_rule", [signatures], "find_facet_rule", None),
        ("operators.build_operator", [operators], "build_operator", None),
        ("operators.verify_operator", [operators], "verify_operator", None),
        ("advection.build_problem", [advection], "build_problem", None),
        ("advection.rhs", [advection], "rhs", _dof),
        ("advection.l2_error", [advection], "l2_error", None),
        ("advection.assemble_dense", [advection], "assemble_dense", None),
        ("advection.certify_stable", [advection], "certify_stable", None),
        ("advection.max_stable_dt", [advection], "max_stable_dt", None),
    ]
    for name, modules, attr, value in table:
        for module in modules:
            tracer.wrap(module, attr, name, value)


class _Window:
    """Span figures over one index range, divided by a repeat count."""

    def __init__(self, tracer: Tracer, span_range: tuple[int, int], n: int):
        (self.name, self.dur, self.self_s, self.value,
         self.in_facet) = tracer.arrays(*span_range)
        self._ids = tracer._ids
        self.n = n

    def mask(self, span: str) -> np.ndarray:
        return self.name == self._ids.get(span, -1)

    def calls(self, span: str) -> float:
        return float(self.mask(span).sum()) / self.n

    def s(self, span: str) -> float:
        return float(self.dur[self.mask(span)].sum()) / self.n

    def self_time(self, span: str) -> float:
        return float(self.self_s[self.mask(span)].sum()) / self.n

    def total(self, span: str) -> float:
        return float(self.value[self.mask(span)].sum()) / self.n


def layer_metrics(tracer: Tracer, run: tuple[int, int], rounds: int,
                  setup: tuple[int, int], setups: int) -> dict:
    """Per-layer metrics per timed round; `operators.*` per set-up.

    run and setup are span index ranges. The operators layer runs only in
    set-up, so its figures come from the set-up spans.
    """
    w = _Window(tracer, run, rounds)
    out = {}
    for span in ("basis.vandermonde", "basis.grad_vandermonde"):
        out[f"{span}.calls"] = w.calls(span)
        out[f"{span}.self_s"] = w.self_time(span)
    solves = w.calls("search.solve_coupled")
    facet = float((w.mask("search.solve_coupled") & w.in_facet).sum()) / w.n
    rhs_self = w.self_time("advection.rhs")
    out.update({
        "search.solve_coupled.calls": solves,
        "search.solve_coupled.s": w.s("search.solve_coupled"),
        "search.solve_coupled.yield": (
            w.total("search.solve_coupled") / solves if solves else 0.0),
        "search.swarm_objective.calls": w.calls("search.swarm_objective"),
        "search.pso_step.self_s": w.self_time("search.pso_step"),
        "search.lma_solve.self_s": w.self_time("search.lma_solve"),
        "search.lma_solve.iterations": w.total("search.lma_solve"),
        "search.residual_and_jacobian.self_s": w.self_time(
            "search.residual_and_jacobian"),
        "signatures.find_facet_rule.s": w.s("signatures.find_facet_rule"),
        "signatures.facet_solves": facet,
        "signatures.volume_solves": solves - facet,
        "advection.build_problem.s": w.s("advection.build_problem"),
        "advection.rhs.calls": w.calls("advection.rhs"),
        "advection.rhs.self_s": rhs_self,
        "advection.rhs.mdofs": (w.total("advection.rhs") / rhs_self / 1e6
                                if rhs_self else 0.0),
        "advection.l2_error.s": w.s("advection.l2_error"),
        "advection.assemble_dense.s": w.s("advection.assemble_dense"),
        "advection.certify_stable.calls": w.calls("advection.certify_stable"),
        "advection.certify_stable.s": w.s("advection.certify_stable"),
        "advection.max_stable_dt.s": w.s("advection.max_stable_dt"),
    })
    ws = _Window(tracer, setup, setups)
    out["operators.build_operator.s"] = ws.s("operators.build_operator")
    out["operators.verify_operator.s"] = ws.s("operators.verify_operator")
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name part."""
    last = metric.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "yield": "ratio",
            "mdofs": "Mdof/s"}.get(last, "count")
