"""Construction and verification of the diagonal-norm SBP operators."""

import copy

import numpy as np
import pytest

import sbpquad.operators as operators
from sbpquad.archive import operator_from_dict, operator_to_dict
from sbpquad.basis import grad_vandermonde, vandermonde
from sbpquad.operators import (
    _ACC_TOL,
    FacetOperator,
    SBPConstructionError,
    build_E,
    build_operator,
    match_facet_nodes,
    verify_operator,
)
from sbpquad.search import lg_rule, lgl_rule
from sbpquad.simplex import reference_simplex

import oracles

from conftest import TRI_LG_DEGREES, TRI_LGL_DEGREES

OPERATOR_KEYS = (
    [f"tri-lgl-q{q}" for q in TRI_LGL_DEGREES]
    + [f"tri-lg-q{q}" for q in TRI_LG_DEGREES]
    + ["tet-q2"]
    + [f"interval-lgl-{n}" for n in (2, 3, 4)]
)


# ----------------------------------------------------------------------
# the 1-D operators have closed forms


def test_interval_lgl3_matches_classical_operator():
    op = build_operator(lgl_rule(3), p=2)
    x_ref, w_ref = oracles.LOBATTO_3
    assert np.allclose(op.H, w_ref, atol=1e-15)
    assert np.allclose(op.E[0], [-1.0, 0.0, 1.0], atol=0.0)
    assert np.allclose(op.D[0], oracles.D_LOBATTO_3, atol=1e-13)


def test_interval_lgl2_is_trapezoid_operator():
    op = build_operator(lgl_rule(2), p=1)
    assert np.allclose(op.H, [1.0, 1.0])
    assert np.allclose(op.D[0], [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)
    assert np.allclose(op.Q[0], [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_interval_lgl_differentiates_polynomials(n):
    op = build_operator(lgl_rule(n), p=n - 1)
    x = op.rule.nodes.coords[:, 0]
    for k in range(n):
        expected = k * x ** (k - 1) if k else np.zeros_like(x)
        assert np.allclose(op.D[0] @ x ** k, expected, atol=1e-12)


def test_interval_lg_has_no_boundary_nodes():
    with pytest.raises(SBPConstructionError):
        build_operator(lg_rule(3), p=2)


# ----------------------------------------------------------------------
# facet matching


@pytest.mark.parametrize("qv", TRI_LGL_DEGREES)
def test_match_facet_nodes_bijection(tri_lgl_results, qv):
    rule = tri_lgl_results[qv].rule
    elem = reference_simplex(2)
    seen = []
    for f in range(3):
        fop = match_facet_nodes(rule, f)
        assert isinstance(fop, FacetOperator)
        assert len(fop.vol_idx) == rule.facet_rule.n_nodes
        assert len(set(fop.vol_idx.tolist())) == len(fop.vol_idx)
        assert fop.weights.sum() == pytest.approx(elem.facets[f].measure,
                                                  rel=1e-13)
        seen.extend(fop.vol_idx.tolist())
    # facet nodes may be shared between facets (vertices), interior
    # nodes never appear
    interior = np.flatnonzero(rule.nodes.bary.min(axis=1) > 1e-9)
    assert not set(interior.tolist()) & set(seen)


def test_match_facet_nodes_requires_facet_rule(tri_lgl_results):
    rule = copy.deepcopy(tri_lgl_results[1].rule)
    rule.facet_rule = None
    with pytest.raises(SBPConstructionError, match="facet rule"):
        match_facet_nodes(rule, 0)


def test_match_facet_nodes_detects_missing_node(tri_lgl_results):
    rule = copy.deepcopy(tri_lgl_results[2].rule)
    # move one facet node into the interior: its facet loses a match
    boundary = int(np.argmin(rule.nodes.bary.min(axis=1)))
    rule.nodes.bary[boundary] = [0.3, 0.3, 0.4]
    with pytest.raises(SBPConstructionError):
        build_E(rule)


def test_match_facet_nodes_detects_moved_node(tri_lgl_results):
    rule = copy.deepcopy(tri_lgl_results[3].rule)
    # slide one node along facet 0: the count holds, the match fails
    i = np.flatnonzero(rule.nodes.facet_mask(0))[0]
    rule.nodes.bary[i, 1:] += [1e-3, -1e-3]
    with pytest.raises(SBPConstructionError, match="miss"):
        match_facet_nodes(rule, 0)


def test_facet_without_volume_nodes_is_rejected(interior_lgl_rule):
    assert interior_lgl_rule.nodes.bary.min() > 0.1
    with pytest.raises(SBPConstructionError, match="holds 0 volume node"):
        build_operator(interior_lgl_rule)


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_facet_matching_agrees_with_loop_oracle(all_operators, key,
                                                monkeypatch):
    """match_points pairs the facet nodes as the per-node loop did, so an
    operator built through either matcher is the same bit for bit."""
    op = all_operators[key]
    for fop in op.facets:
        ref = oracles.match_facet_nodes(op.rule, fop.facet_id)
        assert np.array_equal(fop.vol_idx, ref.vol_idx)
        assert np.array_equal(fop.weights, ref.weights)
    monkeypatch.setattr(operators, "match_facet_nodes",
                        oracles.match_facet_nodes)
    ref = build_operator(op.rule, op.p)
    for name in ("E", "Q", "D"):
        for mine, theirs in zip(getattr(op, name), getattr(ref, name),
                                strict=True):
            assert np.array_equal(mine, theirs), name


def test_interval_boundary_facets():
    rule = lgl_rule(4)
    left = match_facet_nodes(rule, 0)
    right = match_facet_nodes(rule, 1)
    assert np.array_equal(left.weights, [1.0])
    assert np.array_equal(right.weights, [1.0])
    xl = rule.nodes.coords[left.vol_idx[0], 0]
    xr = rule.nodes.coords[right.vol_idx[0], 0]
    assert {xl, xr} == {-1.0, 1.0}


# ----------------------------------------------------------------------
# boundary operators


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_E_vanishes_at_interior_nodes(all_operators, key):
    op = all_operators[key]
    interior = op.rule.nodes.bary.min(axis=1) > 1e-9
    for Ei in op.E:
        assert np.all(Ei[interior] == 0.0)


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_E_trace_is_zero(all_operators, key):
    op = all_operators[key]
    for Ei in op.E:
        assert abs(Ei.sum()) <= 1e-13


def test_E_closed_form_for_vertex_midedge_rule(tri_lgl_results):
    """Degree-1 volume rule: a vertex accumulates two edge endpoint
    contributions, a mid-edge node sees one facet."""
    rule = tri_lgl_results[1].rule
    E, facets = build_E(rule)
    elem = reference_simplex(2)
    w_end, w_mid = 1.0 / 3.0, 4.0 / 3.0  # LGL(3) weights
    # locate the vertex at (1, -1): touching facets 0 (hypotenuse) and 2
    # (bottom edge, normal (0,-1))
    i = int(np.argmin(np.abs(rule.nodes.coords
                             - np.array([1.0, -1.0])).sum(axis=1)))
    n_hyp = elem.facets[0].normal
    expected_x = n_hyp[0] * w_end * np.sqrt(2.0) + 0.0 * w_end
    expected_y = n_hyp[1] * w_end * np.sqrt(2.0) + (-1.0) * w_end
    assert E[0][i] == pytest.approx(expected_x, rel=1e-13)
    assert E[1][i] == pytest.approx(expected_y, rel=1e-13)


# ----------------------------------------------------------------------
# operator identities


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_S_exactly_antisymmetric(all_operators, key):
    op = all_operators[key]
    for S in op.S:
        assert np.array_equal(S, -S.T)


def _oracle_S(rule, p):
    """S_i and defect of the dense least-squares oracle on rule at p."""
    E, _ = build_E(rule)
    x, H, d = rule.nodes.coords, rule.nodes.weights, rule.dim
    Vp = vandermonde(x, p, d)
    Vx = grad_vandermonde(x, p, d)
    rhs = [H[:, None] * Vx[i] - 0.5 * E[i][:, None] * Vp for i in range(d)]
    return oracles._solve_antisymmetric(Vp, rhs)


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_S_matches_least_squares_oracle(all_operators, key):
    op = all_operators[key]
    S_ref, _ = _oracle_S(op.rule, op.p)
    for S, ref in zip(op.S, S_ref):
        tol = 1e-13 * max(1.0, float(np.abs(ref).max()))
        assert np.abs(S - ref).max() <= tol


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_operator_archive_of_least_squares_S_loads(all_operators, key):
    """An archive whose Q and D come from the least-squares S still loads
    against the closed-form rebuild."""
    op = all_operators[key]
    S_ref, _ = _oracle_S(op.rule, op.p)
    data = operator_to_dict(op)
    Q = [S + 0.5 * np.diag(E) for S, E in zip(S_ref, op.E)]
    data["Q"] = [q.tolist() for q in Q]
    data["D"] = [(q / op.H[:, None]).tolist() for q in Q]
    operator_from_dict(data)


@pytest.mark.parametrize("key", ["tri-lgl-q3", "tri-lg-q2", "tet-q2"])
def test_build_operator_rejects_unsatisfiable_conditions(all_rules, key):
    """A perturbed norm breaks the accuracy conditions: the closed form
    and the least-squares oracle both leave a defect above the gate."""
    rule = copy.deepcopy(all_rules[key])
    rule.nodes.weights[np.argmax(rule.nodes.weights)] *= 1.0 + 1e-6
    p = rule.sbp_p
    _, defect = _oracle_S(rule, p)
    assert defect > _ACC_TOL * max(1.0, rule.nodes.weights.max())
    with pytest.raises(SBPConstructionError, match="unsatisfiable"):
        build_operator(rule, p)


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_sbp_identity(all_operators, key):
    op = all_operators[key]
    for Qi, Ei in zip(op.Q, op.E):
        defect = np.abs(Qi + Qi.T - np.diag(Ei)).max()
        assert defect <= 1e-14 * max(1.0, np.abs(Qi).max())


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_derivative_exact_to_degree_p(all_operators, key):
    op = all_operators[key]
    report = verify_operator(op)
    assert report.accuracy_defect <= 1e-11


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_verification_report_passes(all_operators, key):
    report = verify_operator(all_operators[key])
    assert report.passed, report.summary()
    assert report.min_weight > 0.0
    assert report.e_accuracy_defect <= 1e-11
    assert report.e_trace_defect <= 1e-12
    text = report.summary()
    assert "passed" in text and "nodes" in text


def test_report_names_the_accuracy_peak(all_operators):
    """The report's node is the row where the D defect peaks."""
    op = all_operators["tri-lgl-q3"]
    x = op.rule.nodes.coords
    Vp = vandermonde(x, op.p, 2)
    Vx = grad_vandermonde(x, op.p, 2)
    defect = [np.abs(op.D[i] @ Vp - Vx[i]) for i in range(2)]
    rows = [max(defect[0][k].max(), defect[1][k].max())
            for k in range(op.n_nodes)]
    report = verify_operator(op)
    assert report.accuracy_node == int(np.argmax(rows))
    assert report.accuracy_defect == max(e.max() for e in defect)
    assert report.accuracy_node_weight == op.H[report.accuracy_node]
    assert "at node" in report.summary()


@pytest.mark.parametrize("key", ["tri-lgl-q2", "tri-lgl-q4", "tet-q2"])
def test_quadrature_level_integration_by_parts(all_operators, key):
    """u^T Q_i v approximates the volume integral of u d_i v.

    With deg u = deg v = p and q_v >= 2p - 1 the quadrature is exact,
    so the operator value must match the closed-form moment.
    """
    op = all_operators[key]
    d = op.dim
    x = op.rule.nodes.coords
    p = op.p
    rng = np.random.default_rng(0)
    for _ in range(4):
        pu = tuple(rng.integers(0, p + 1, d))
        pv = tuple(rng.integers(0, p + 1, d))
        while sum(pu) > p or sum(pv) > p:
            pu = tuple(rng.integers(0, p + 1, d))
            pv = tuple(rng.integers(0, p + 1, d))
        u = np.prod(x ** np.array(pu), axis=1)
        v = np.prod(x ** np.array(pv), axis=1)
        for i in range(d):
            if pv[i] == 0:
                continue
            dv_pow = list(pv)
            dv_pow[i] -= 1
            exact = pv[i] * oracles.monomial_integral(
                tuple(np.add(pu, dv_pow)), d)
            assert u @ op.Q[i] @ v == pytest.approx(exact, abs=1e-11)


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_Q_annihilates_constants(all_operators, key):
    op = all_operators[key]
    ones = np.ones(op.n_nodes)
    for Qi, Ei in zip(op.Q, op.E):
        assert np.abs(Qi @ ones).max() <= 1e-12
        # column sums recover the boundary diagonal
        assert np.allclose(ones @ Qi, Ei, atol=1e-12)


# ----------------------------------------------------------------------
# construction guards


def test_build_operator_rejects_high_degree(tri_lgl_results):
    rule = tri_lgl_results[2].rule
    with pytest.raises(SBPConstructionError, match="2p-1"):
        build_operator(rule, p=2)


@pytest.mark.parametrize("p", [0, -1])
def test_build_operator_rejects_degree_below_one(tri_lgl_results, p):
    with pytest.raises(SBPConstructionError, match="< 1"):
        build_operator(tri_lgl_results[3].rule, p=p)


def test_build_operator_rejects_weak_facet_rule(tri_lgl_results):
    rule = copy.deepcopy(tri_lgl_results[3].rule)
    rule.facet_rule = lgl_rule(2)
    with pytest.raises(SBPConstructionError, match="facet degree"):
        build_operator(rule, p=2)


def test_build_operator_rejects_nonpositive_weights(tri_lgl_results):
    rule = copy.deepcopy(tri_lgl_results[2].rule)
    rule.nodes.weights[0] = -rule.nodes.weights[0]
    with pytest.raises(SBPConstructionError, match="norm"):
        build_operator(rule)


@pytest.mark.parametrize("key", ["tri-lgl-q3", "tet-q2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_operator_rejects_nonfinite_weights(all_rules, key, bad):
    rule = copy.deepcopy(all_rules[key])
    rule.nodes.weights[np.argmax(rule.nodes.weights)] = bad
    with pytest.raises(SBPConstructionError, match="norm"):
        build_operator(rule)


def test_default_degree_from_rule(tri_lgl_results):
    op = build_operator(tri_lgl_results[4].rule)
    assert op.p == 2  # (qv + 1) // 2 with qv = 4


def test_operator_shapes(all_operators):
    op = all_operators["tet-q2"]
    n = op.n_nodes
    assert op.dim == 3
    assert op.H.shape == (n,)
    assert len(op.E) == len(op.Q) == len(op.D) == len(op.S) == 3
    for i in range(3):
        assert op.E[i].shape == (n,)
        assert op.Q[i].shape == (n, n)
    assert len(op.facets) == 4
