import dataclasses

import numpy as np
import pytest

from sbpquad.advection import build_problem, max_stable_dt
from sbpquad.operators import build_operator
from sbpquad.search import lg_rule, lgl_rule
from sbpquad.signatures import find_rule

TRI_LGL_DEGREES = (1, 2, 3, 4, 5, 6)
TRI_LG_DEGREES = (1, 2, 3, 4)
VELOCITY_2D = np.array([1.25, np.sqrt(7.0) / 4.0])
VELOCITY_3D = np.array([1.5, 0.5, 1.0 / np.sqrt(2.0)])


@pytest.fixture(scope="session")
def tri_lgl_results():
    """Triangle searches against the LGL facet family, keyed by degree."""
    return {qv: find_rule("tri", qv, facet_kind="lgl", seed=0)
            for qv in TRI_LGL_DEGREES}


@pytest.fixture(scope="session")
def tri_lg_results():
    return {qv: find_rule("tri", qv, facet_kind="lg", seed=0)
            for qv in TRI_LG_DEGREES}


@pytest.fixture(scope="session")
def tet_result():
    return find_rule("tet", 2, facet_kind="gen", seed=0)


@pytest.fixture(scope="session")
def interior_lgl_rule():
    """The interior-only degree-2 triangle rule (one S21 orbit) labelled
    as a p = 1 rule of the LGL family: no volume node on any edge."""
    rule = find_rule("tri", 2, facet_kind=None, seed=0).rule
    return dataclasses.replace(rule, facet_kind="lgl", sbp_p=1,
                               facet_rule=lgl_rule(3))


@pytest.fixture(scope="session")
def all_rules(tri_lgl_results, tri_lg_results, tet_result):
    rules = {}
    for qv, res in tri_lgl_results.items():
        rules[f"tri-lgl-q{qv}"] = res.rule
    for qv, res in tri_lg_results.items():
        rules[f"tri-lg-q{qv}"] = res.rule
    rules["tet-q2"] = tet_result.rule
    for n in (2, 3, 4, 5):
        rules[f"interval-lgl-{n}"] = lgl_rule(n)
    for n in (1, 2, 3, 4):
        rules[f"interval-lg-{n}"] = lg_rule(n)
    return rules


@pytest.fixture(scope="session")
def all_operators(tri_lgl_results, tri_lg_results, tet_result):
    """Every SBP operator the suite constructs.

    Interval rules need boundary nodes for a diagonal E, so only the
    LGL family appears in 1-D.
    """
    ops = {}
    for qv, res in tri_lgl_results.items():
        ops[f"tri-lgl-q{qv}"] = build_operator(res.rule)
    for qv, res in tri_lg_results.items():
        ops[f"tri-lg-q{qv}"] = build_operator(res.rule)
    ops["tet-q2"] = build_operator(tet_result.rule)
    for n in (2, 3, 4):
        ops[f"interval-lgl-{n}"] = build_operator(lgl_rule(n), p=n - 1)
    return ops


@pytest.fixture(scope="session")
def timestep_certs(all_operators):
    """(problem, largest stable dt) on the m=4 mesh for p = 1, 2.

    Uses the odd-degree family q_v = 2p - 1, the minimal volume degree
    an SBP operator of degree p admits.
    """
    out = {}
    for p in (1, 2):
        op = all_operators[f"tri-lgl-q{2 * p - 1}"]
        prob = build_problem(op, 4, VELOCITY_2D, flux="upwind")
        out[p] = (prob, max_stable_dt(prob))
    return out
