"""The benchmark's tracer still finds, wraps and restores every package
function it traces.

`bench/tracing.py` wraps functions by module attribute name from outside
the package, so a rename or a changed result type in the package would
break `bench/run.py --trace 1` without failing any other test.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

from sbpquad import advection, operators, search, signatures  # noqa: E402

MODULES = (advection, operators, search, signatures)


def test_trace_sbpquad_wraps_and_restores_every_attribute():
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tracer = tracing.Tracer()
    try:
        tracing.trace_sbpquad(tracer)
        wrapped = list(tracer._saved)
        assert {(m.__name__.split(".")[-1], attr)
                for m, attr, _ in wrapped} >= {
            ("signatures", "solve_coupled"),
            ("signatures", "find_facet_rule"),
            ("search", "swarm_objective"), ("search", "lma_solve"),
            ("search", "residual_and_jacobian"), ("search", "pso_step"),
            ("advection", "certify_stable")}
        for module, attr, fn in wrapped:
            assert fn is before[module.__name__][attr]
            assert getattr(module, attr).__wrapped__ is fn
        # the span values read the results' .converged and .iterations;
        # the interior degree-4 search runs the swarm before it converges
        assert signatures.find_rule("tri", 4, None).status == "ok"
        names = {tracer.names[i] for i in tracer.name}
        assert {"search.solve_coupled", "search.lma_solve",
                "search.swarm_objective", "search.pso_step",
                "basis.vandermonde"} <= names
    finally:
        tracer.uninstall()
    assert {m.__name__: dict(vars(m)) for m in MODULES} == before


def test_tet_search_attributes_solves_to_both_stages():
    """find_rule calls the facet stage through the traced
    `signatures.find_facet_rule`, so a traced tet search credits its
    face-rule solves to the facet stage and the rest to the volume
    stage."""
    tracer = tracing.Tracer()
    try:
        tracing.trace_sbpquad(tracer)
        assert signatures.find_rule("tet", 2, "gen").status == "ok"
    finally:
        tracer.uninstall()
    end = len(tracer)
    metrics = tracing.layer_metrics(tracer, (0, end), 1, (end, end), 1)
    assert metrics["signatures.facet_solves"] > 0
    assert metrics["signatures.volume_solves"] > 0
