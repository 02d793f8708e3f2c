"""Orthonormal simplex bases: values, gradients, and Gauss product rules."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbpquad
from sbpquad import basis
from sbpquad.basis import (
    _jacobi_table,
    _recurrence,
    grad_vandermonde,
    integral_vector,
    mode_indices,
    n_basis,
    simplex_gauss_rule,
    vandermonde,
)
from sbpquad.simplex import (GroupSignature, NodeSetError, SymmetryOrbit,
                             assemble_nodes, node_set_is_symmetric,
                             orbit_kinds, orbit_structure, reference_simplex)

import oracles


# ----------------------------------------------------------------------
# mode bookkeeping


@pytest.mark.parametrize(
    "q, d, expected",
    [
        (0, 1, 1), (3, 1, 4), (7, 1, 8),
        (0, 2, 1), (1, 2, 3), (2, 2, 6), (3, 2, 10), (6, 2, 28),
        (0, 3, 1), (1, 3, 4), (2, 3, 10), (3, 3, 20), (5, 3, 56),
    ],
)
def test_n_basis_counts(q, d, expected):
    assert n_basis(q, d) == expected


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [0, 1, 2, 4, 6])
def test_mode_indices_graded_and_complete(q, d):
    modes = mode_indices(q, d)
    assert len(modes) == n_basis(q, d)
    assert len(set(modes)) == len(modes)
    degrees = [sum(m) for m in modes]
    assert degrees == sorted(degrees)
    assert max(degrees) == q
    # every multi-index of total degree <= q appears
    assert all(all(k >= 0 for k in m) for m in modes)


def test_mode_indices_bad_dimension():
    with pytest.raises(ValueError):
        mode_indices(2, 4)


# ----------------------------------------------------------------------
# Jacobi polynomials, checked on the basis's one recurrence


def jacobi(x, alpha, beta, n):
    """P~_0..P~_n at the 1-D points x, shape (n+1, len(x))."""
    coeffs = _recurrence(((float(alpha), float(beta)),), n)
    return _jacobi_table(np.asarray(x, dtype=float)[None], coeffs, n)[:, 0]


def jacobi_derivative(x, alpha, beta, n):
    """d/dx P~_k = sqrt(k (k + alpha + beta + 1)) P~_{k-1} of the
    (alpha + 1, beta + 1) family, which grad_vandermonde takes from the
    same table as the values."""
    out = np.zeros((n + 1, len(x)))
    if n:
        shifted = jacobi(x, alpha + 1, beta + 1, n - 1)
        for k in range(1, n + 1):
            out[k] = math.sqrt(k * (k + alpha + beta + 1)) * shifted[k - 1]
    return out


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0),
                                         (3.0, 0.0), (2.0, 1.0)])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_jacobi_matches_classical_evaluation(alpha, beta, n):
    x = np.linspace(-1.0, 1.0, 17)
    vals = jacobi(x, alpha, beta, n)
    assert vals.shape == (n + 1, 17)
    expected = oracles.jacobi_normalized(n, alpha, beta, x)
    assert np.allclose(vals[n], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_jacobi_legendre_endpoint_values(n):
    # Legendre case: P_n(1) = 1, so the orthonormal value is sqrt(n + 1/2)
    vals = jacobi(np.array([1.0]), 0.0, 0.0, n)
    for k in range(n + 1):
        assert vals[k, 0] == pytest.approx(math.sqrt(k + 0.5), rel=1e-13)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0), (4.0, 0.0)])
def test_jacobi_orthonormality_under_gauss(alpha, beta):
    from scipy.special import roots_jacobi

    n = 6
    x, w = roots_jacobi(n + 1, alpha, beta)
    V = jacobi(x, alpha, beta, n)
    gram = (V * w) @ V.T
    assert np.allclose(gram, np.eye(n + 1), atol=1e-12)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_jacobi_derivative_matches_finite_difference(alpha, beta, n):
    x = np.linspace(-0.9, 0.9, 11)
    h = 1e-6
    dv = jacobi_derivative(x, alpha, beta, n)
    fd = (jacobi(x + h, alpha, beta, n)
          - jacobi(x - h, alpha, beta, n)) / (2.0 * h)
    assert np.allclose(dv, fd, rtol=1e-7, atol=1e-7)


def test_jacobi_derivative_constant_is_zero():
    x = np.linspace(-1.0, 1.0, 5)
    dv = jacobi_derivative(x, 0.0, 0.0, 0)
    assert np.all(dv == 0.0)


# ----------------------------------------------------------------------
# Vandermonde matrices


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 4])
def test_vandermonde_shape_and_constant_mode(q, d):
    elem = reference_simplex(d)
    pts, _ = simplex_gauss_rule(q, d)
    V = vandermonde(pts, q, d)
    assert V.shape == (len(pts), n_basis(q, d))
    # the first mode is the L2-normalized constant
    assert np.allclose(V[:, 0], 1.0 / math.sqrt(elem.measure), rtol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_vandermonde_gram_identity(q, d):
    """The basis is orthonormal w.r.t. the exact L2 inner product."""
    pts, w = simplex_gauss_rule(2 * q, d)
    V = vandermonde(pts, q, d)
    gram = V.T @ (w[:, None] * V)
    assert np.allclose(gram, np.eye(n_basis(q, d)), atol=5e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_vandermonde_finite_at_vertices(d):
    elem = reference_simplex(d)
    V = vandermonde(elem.vertices, 4, d)
    assert np.all(np.isfinite(V))


def test_vandermonde_rejects_exterior_points():
    with pytest.raises(ValueError):
        vandermonde(np.array([[0.5, 0.9]]), 2, 2)
    # same point is fine with the closure check disabled
    V = vandermonde(np.array([[0.5, 0.9]]), 2, 2, check=False)
    assert np.all(np.isfinite(V))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 4])
def test_integral_vector_matches_quadrature(q, d):
    pts, w = simplex_gauss_rule(q, d)
    V = vandermonde(pts, q, d)
    assert np.allclose(w @ V, integral_vector(q, d), atol=1e-13)


def test_integral_vector_first_entry():
    assert integral_vector(3, 1)[0] == pytest.approx(math.sqrt(2.0))
    assert integral_vector(3, 2)[0] == pytest.approx(math.sqrt(2.0))
    assert integral_vector(3, 3)[0] == pytest.approx(2.0 / math.sqrt(3.0))


# ----------------------------------------------------------------------
# derivative matrices


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 4])
def test_grad_vandermonde_matches_finite_difference(q, d):
    rng = np.random.default_rng(2024)
    elem = reference_simplex(d)
    # random strictly interior points via Dirichlet barycentric samples
    bary = rng.dirichlet(np.full(d + 1, 4.0), size=12)
    pts = bary @ elem.vertices
    grads = grad_vandermonde(pts, q, d)
    assert len(grads) == d
    h = 1e-6
    for k in range(d):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, k] += h
        dm[:, k] -= h
        fd = (vandermonde(dp, q, d, check=False)
              - vandermonde(dm, q, d, check=False)) / (2.0 * h)
        assert np.allclose(grads[k], fd, rtol=2e-6, atol=2e-6)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_grad_vandermonde_exact_on_boundary(q, d):
    """Derivatives stay exact at the collapsed-coordinate singular points.

    Projects a monomial onto the basis with a fine quadrature and compares
    the differentiated expansion against the analytic derivative at the
    vertices and facet centroids, where the (a, b, c) map degenerates.
    """
    elem = reference_simplex(d)
    pts_f, w_f = simplex_gauss_rule(2 * q + 2, d)
    Vf = vandermonde(pts_f, q, d)
    powers = (1, q - 1) if d == 2 else (1, 1, q - 2)
    mono = np.prod(pts_f ** np.array(powers), axis=1)
    coeff = Vf.T @ (w_f * mono)  # orthonormal basis: plain L2 projection

    test_pts = [elem.vertices.mean(axis=0)]
    test_pts.extend(elem.vertices)
    for facet in elem.facets:
        test_pts.append(elem.vertices[list(facet.vertex_ids)].mean(axis=0))
    test_pts = np.array(test_pts)
    grads = grad_vandermonde(test_pts, q, d)
    for k in range(d):
        dpow = list(powers)
        if dpow[k] == 0:
            exact = np.zeros(len(test_pts))
        else:
            dpow[k] -= 1
            exact = powers[k] * np.prod(
                test_pts ** np.array(dpow), axis=1)
        assert np.allclose(grads[k] @ coeff, exact, atol=1e-10)


# ----------------------------------------------------------------------
# the d-generic evaluator against the per-dimension reference


def _assert_matches_reference(pts, q, d):
    """Values equal to the bit to both references; gradients equal to
    the bit to the per-level evaluator (one recurrence per level, and a
    second for derivatives) and within rounding of the per-dimension
    one."""
    V = vandermonde(pts, q, d, check=False)
    assert np.array_equal(V, oracles.vandermonde(pts, q, d, check=False))
    assert np.array_equal(V, oracles.level_vandermonde(pts, q, d,
                                                       check=False))
    ref = oracles.grad_vandermonde(pts, q, d, check=False)
    level = oracles.level_grad_vandermonde(pts, q, d, check=False)
    for g, r, e in zip(grad_vandermonde(pts, q, d, check=False), ref,
                       level, strict=True):
        assert np.abs(g - r).max() <= 1e-15 * max(1.0, np.abs(r).max())
        assert np.array_equal(g, e)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluator_matches_reference_at_special_points(d):
    """Vertices, edge midpoints, facet centroids and interior points."""
    elem = reference_simplex(d)
    verts = elem.vertices
    mids = [verts[[i, j]].mean(axis=0)
            for i, j in itertools.combinations(range(d + 1), 2)]
    cents = [verts[list(f.vertex_ids)].mean(axis=0) for f in elem.facets]
    inner = np.random.default_rng(5).dirichlet(np.ones(d + 1), 8) @ verts
    pts = np.vstack([verts, mids, cents, inner])
    for q in range(13):
        _assert_matches_reference(pts, q, d)
        assert mode_indices(q, d) == oracles.mode_indices(q, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_recurrence_per_evaluation(monkeypatch, d):
    """Values and gradients each run every level's rows in one call;
    the gradient's adds one derivative row per value row."""
    rows = []

    def counted(x, coeffs, n):
        rows.append(len(x))
        return _jacobi_table(x, coeffs, n)

    monkeypatch.setattr(basis, "_jacobi_table", counted)
    pts = reference_simplex(d).vertices
    vandermonde(pts, 4, d)
    grad_vandermonde(pts, 4, d)
    assert rows == [rows[0], 2 * rows[0]]


def _closed_simplex_points(d):
    """Points of the closed simplex; zero barycentric entries snap them
    onto facets, edges and vertices."""
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
    rows = st.lists(st.lists(entry, min_size=d + 1, max_size=d + 1),
                    min_size=1, max_size=8)

    def to_points(rows):
        lam = np.array(rows)
        lam[lam.sum(axis=1) == 0.0, 0] = 1.0
        lam /= lam.sum(axis=1, keepdims=True)
        return lam @ reference_simplex(d).vertices
    return rows.map(to_points)


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_evaluator_matches_reference_on_closed_simplex(d, data):
    pts = data.draw(_closed_simplex_points(d))
    _assert_matches_reference(pts, data.draw(st.integers(0, 12)), d)


@settings(max_examples=60, deadline=None)
@given(x=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
       alpha=st.floats(0.0, 30.0), beta=st.sampled_from([0.0, 1.0]),
       n=st.integers(0, 12))
def test_jacobi_matches_reference(x, alpha, beta, n):
    x = np.array(x)
    assert np.array_equal(jacobi(x, alpha, beta, n),
                          oracles.jacobi(x, alpha, beta, n))
    assert np.array_equal(jacobi_derivative(x, alpha, beta, n),
                          oracles.jacobi_derivative(x, alpha, beta, n))


@pytest.mark.parametrize("d, kind", [(d, k) for d in (2, 3)
                                     for k in orbit_kinds(d)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_expansion_is_symmetric(d, kind, data):
    # parameters in [0, 1/3] keep every orbit kind inside the closure
    n = orbit_structure(kind, d).n_params
    theta = data.draw(st.lists(st.floats(0.0, 1.0 / 3.0), min_size=n,
                               max_size=n))
    try:
        nodes = assemble_nodes(GroupSignature(
            d, (SymmetryOrbit(kind, tuple(theta), 0.5),)))
    except NodeSetError:
        assume(False)   # a degenerate orbit (coincident nodes)
    assert node_set_is_symmetric(nodes)


# ----------------------------------------------------------------------
# collapsed-coordinate Gauss product rules


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
def test_simplex_gauss_rule_quality(degree, d):
    elem = reference_simplex(d)
    pts, w = simplex_gauss_rule(degree, d)
    assert np.all(w > 0.0)
    bary = elem.barycentric(pts)
    assert bary.min() > 1e-8  # strictly interior
    assert w.sum() == pytest.approx(elem.measure, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", range(20))
def test_simplex_gauss_rule_exactness(degree, d):
    pts, w = simplex_gauss_rule(degree, d)
    for powers in mode_indices(degree, d):
        num = w @ np.prod(pts ** np.array(powers), axis=1)
        ref = oracles.monomial_integral(powers, d)
        assert num == pytest.approx(ref, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_gauss_rule_matches_per_dimension_reference(d):
    # the reference takes its Gauss-Jacobi levels from scipy's
    # roots_jacobi: d = 1 (Gauss-Legendre only) is bit for bit, the
    # package's Golub-Welsch levels agree to rounding
    for degree in range(20):
        pts, w = simplex_gauss_rule(degree, d)
        ref_pts, ref_w = oracles.simplex_gauss_rule(degree, d)
        assert pts.shape == ref_pts.shape and w.shape == ref_w.shape
        if d == 1:
            assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)
        else:
            assert np.abs(pts - ref_pts).max() <= 1e-15
            assert np.abs(w / ref_w - 1.0).max() <= 1e-13
        # cached: one rule per (degree, d) that every caller shares
        assert simplex_gauss_rule(degree, d)[0] is pts
        assert not (pts.flags.writeable or w.flags.writeable)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("n", range(1, 25))
def test_gauss_jacobi_orthonormalizes_the_recurrence(n, alpha):
    # exact to degree 2n - 1, so the Gram matrix of P~_0..P~_{n-1} of
    # weight (1 - x)^alpha is the identity; scipy's roots_jacobi misses
    # this bound by up to tenfold
    x, w = basis._gauss_jacobi(n, alpha)
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(2.0 ** (alpha + 1) / (alpha + 1),
                                    rel=0, abs=1e-14)
    P = _jacobi_table(x[None], _recurrence([(alpha, 0.0)], n), n - 1)[:, 0]
    assert np.abs((P * w) @ P.T - np.eye(n)).max() <= 4e-15


def test_simplex_gauss_rule_bad_dimension():
    with pytest.raises(ValueError):
        simplex_gauss_rule(2, 4)


def test_operator_pipeline_leaves_scipy_unloaded():
    # numpy is the only run-time dependency: finding, building and
    # checking operators and convergence studies import no scipy module
    src = Path(sbpquad.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from sbpquad import (build_operator, find_rule, run_convergence,\n"
        "                     verify_operator)\n"
        "cases = [('tri', 3, (1.25, 0.75), (4, 6)),\n"
        "         ('tet', 2, (1.5, 0.5, 0.75), (2, 3))]\n"
        "for domain, qv, c, meshes in cases:\n"
        "    res = find_rule(domain, qv)\n"
        "    assert res.status == 'ok'\n"
        "    op = build_operator(res.rule)\n"
        "    assert verify_operator(op).passed\n"
        "    conv = run_convergence(op, meshes, c)\n"
        "    assert len(conv.errors) == 2\n"
        "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
