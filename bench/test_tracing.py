"""The tracer's spans, self times and facet-stage attribution."""

import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def _module():
    mod = types.SimpleNamespace()

    def solve(x):
        time.sleep(0.01)
        return types.SimpleNamespace(converged=x > 0)

    def facet(x):
        time.sleep(0.01)
        return mod.solve(x)       # looked up through the module, as in sbpquad

    mod.solve, mod.facet = solve, facet
    return mod, solve


def test_spans_nest_and_wrappers_come_off():
    mod, solve = _module()
    tracer = tracing.Tracer()
    tracer.wrap(mod, "solve", "search.solve_coupled", tracing._converged)
    tracer.wrap(mod, "facet", "signatures.find_facet_rule")
    with tracer.span("op"):
        mod.facet(1)
        mod.solve(0)
    tracer.uninstall()
    assert mod.solve is solve
    name, dur, self_s, value, in_facet = tracer.arrays(0, len(tracer))
    assert [tracer.names[i] for i in name] == [
        "op", "signatures.find_facet_rule", "search.solve_coupled",
        "search.solve_coupled"]
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert list(in_facet) == [False, False, True, False]
    assert list(value) == [0.0, 0.0, 1.0, 0.0]
    # the facet span's self time excludes its nested solve
    assert self_s[1] < dur[1] - 0.009
    assert abs(self_s[0] - (dur[0] - dur[1] - dur[3])) < 1e-9


def test_layer_metrics_split_facet_and_volume_solves():
    mod, _ = _module()
    tracer = tracing.Tracer()
    tracer.wrap(mod, "solve", "search.solve_coupled", tracing._converged)
    tracer.wrap(mod, "facet", "signatures.find_facet_rule")
    for _ in range(2):                      # two identical rounds
        mod.facet(1)
        mod.solve(0)
    tracer.uninstall()
    m = tracing.layer_metrics(tracer, (0, len(tracer)), 2, (0, 0), 1)
    assert m["search.solve_coupled.calls"] == 2.0
    assert m["search.solve_coupled.yield"] == 0.5
    assert m["signatures.facet_solves"] == 1.0
    assert m["signatures.volume_solves"] == 1.0
    assert m["advection.rhs.calls"] == 0.0
    assert m["advection.rhs.mdofs"] == 0.0
