"""Each checker accepts sbpquad's real answers and rejects corrupted ones."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from sbpquad import advection, build_operator, find_rule  # noqa: E402

C2 = (1.25, math.sqrt(7.0) / 4.0)


@pytest.fixture(scope="module")
def tri_rule():
    return find_rule("tri", 3, facet_kind="lgl", seed=0).rule


@pytest.fixture(scope="module")
def tet_rule():
    return find_rule("tet", 2, facet_kind="gen", seed=0).rule


def _drop_orbit(nodes, k):
    keep = nodes.orbit_index != k
    return nodes.coords[keep], nodes.weights[keep]


def test_dirichlet_moments_match_a_tensor_gauss_rule():
    # collapsed (Duffy) map of a 6x6 Gauss rule onto the triangle
    x, w = np.polynomial.legendre.leggauss(6)
    a, b = np.meshgrid(x, x, indexing="ij")
    wa = np.outer(w, w) * (1.0 - b) / 2.0
    px = (1.0 + a) * (1.0 - b) / 2.0 - 1.0
    pts = np.column_stack([px.ravel(), b.ravel()])
    lam = checks.barycentric(pts)
    for alpha in checks.exponents(5, 3):
        ref = float(checks.dirichlet_moment(alpha, 2))
        got = wa.ravel() @ np.prod(lam ** np.array(alpha), axis=1)
        assert got == pytest.approx(ref, rel=1e-13)


def test_edge_points_are_the_classical_tables():
    s5 = 1.0 / math.sqrt(5.0)
    assert np.allclose(checks.edge_points("lgl", 1), [-1.0, 0.0, 1.0])
    assert np.allclose(checks.edge_points("lgl", 2), [-1.0, -s5, s5, 1.0])
    s3 = 1.0 / math.sqrt(3.0)
    assert np.allclose(checks.edge_points("lg", 1), [-s3, s3])


def test_rule_checks_accept_found_rules(tri_rule, tet_rule):
    nodes = tri_rule.nodes
    assert checks.check_rule(nodes.coords, nodes.weights, 3) < 1e-13
    checks.check_triangle_edges(nodes.coords, "lgl", 2)
    checks.check_node_count("tri", "lgl", 3, tri_rule.n_nodes)
    fr = tet_rule.facet_rule.nodes
    checks.check_rule(tet_rule.nodes.coords, tet_rule.nodes.weights, 2)
    checks.check_tet_faces(tet_rule.nodes.coords, fr.coords, fr.weights, 1)


def test_perturbed_weight_is_rejected(tri_rule):
    w = tri_rule.nodes.weights.copy()
    w[-1] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_rule(tri_rule.nodes.coords, w, 3)


def test_dropped_orbit_is_rejected(tri_rule):
    coords, w = _drop_orbit(tri_rule.nodes, tri_rule.nodes.orbit_index.max())
    with pytest.raises(checks.CheckFailed):
        checks.check_rule(coords, w * (2.0 / w.sum()), 3)


def test_dropped_facet_orbit_is_rejected(tet_rule):
    coords, w = _drop_orbit(tet_rule.facet_rule.nodes, 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_tet_faces(tet_rule.nodes.coords, coords, w, 1)


def test_moved_edge_node_is_rejected(tri_rule):
    coords = tri_rule.nodes.coords.copy()
    lam = checks.barycentric(coords)
    # an edge node on y = -1 (edge 2) away from the vertices
    i = np.flatnonzero((np.abs(lam[:, 2]) < 1e-12)
                       & (np.abs(coords[:, 0]) < 0.99))[0]
    coords[i, 0] += 1e-3        # slide it along the edge
    with pytest.raises(checks.CheckFailed):
        checks.check_triangle_edges(coords, "lgl", 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_rule(coords, tri_rule.nodes.weights, 3)


def test_too_many_nodes_are_rejected():
    with pytest.raises(checks.CheckFailed):
        checks.check_node_count("tri", "lgl", 3, 11)


def test_operator_checks(tri_rule):
    op = build_operator(tri_rule)
    x = tri_rule.nodes.coords
    checks.check_operator(x, op.Q, op.E, op.D, op.p)
    Q = [q.copy() for q in op.Q]
    Q[0][0, 1] += 1e-8
    with pytest.raises(checks.CheckFailed):
        checks.check_operator(x, Q, op.E, op.D, op.p)
    D = [d.copy() for d in op.D]
    D[1][2, 0] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_operator(x, op.Q, op.E, D, op.p)


def test_convergence_checks():
    errors = [1e-2, 2.5e-3, 6.25e-4]          # rate 2
    assert checks.check_convergence((8, 16, 32), errors, 1) == [2.0, 2.0]
    with pytest.raises(checks.CheckFailed):
        checks.check_convergence((8, 16, 32), errors, 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_convergence((8, 16, 32), [1e-2, 2e-2, 1e-3], 1)


def test_timestep_check_rejects_a_scaled_certificate():
    op = build_operator(find_rule("tri", 1, facet_kind="lgl", seed=0).rule)
    prob = advection.build_problem(op, 4, C2)
    dt = advection.max_stable_dt(prob)
    shape = (prob.n_elements, op.n_nodes)
    L = checks.dense_operator(
        lambda u: advection.rhs(prob, u.reshape(shape)).reshape(-1),
        prob.n_dof)
    limit = checks.rk4_spectral_limit(np.linalg.eigvals(L))
    z = limit * np.linalg.eigvals(L)
    assert checks.rk4_amplification(z).max() <= 1.0 + 1e-12
    checks.check_timestep(dt, limit)
    with pytest.raises(checks.CheckFailed):
        checks.check_timestep(1.2 * dt, limit)
