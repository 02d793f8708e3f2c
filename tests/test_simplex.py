"""Reference elements, orbits, and node-set assembly."""

import copy
import itertools

import numpy as np
import pytest

from sbpquad.simplex import (DegenerateOrbitError, GroupSignature,
                             NodeSetError, SymmetryOrbit, assemble_nodes,
                             expand_orbit, facet_restriction, match_points,
                             min_node_spacing, node_set_is_symmetric,
                             orbit_kinds, orbit_size, orbit_structure,
                             reference_simplex)

import oracles


def test_reference_measures():
    assert reference_simplex(1).measure == 2.0
    assert reference_simplex(2).measure == 2.0
    assert reference_simplex(3).measure == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("dim,facet_measures", [
    (1, [1.0, 1.0]),
    (2, [2.0 * np.sqrt(2.0), 2.0, 2.0]),
    (3, [2.0 * np.sqrt(3.0), 2.0, 2.0, 2.0]),
])
def test_facet_measures(dim, facet_measures):
    elem = reference_simplex(dim)
    got = [f.measure for f in elem.facets]
    assert got == pytest.approx(facet_measures)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reference_simplex_matches_per_dimension_reference(dim):
    """The d-generic construction reproduces the per-dimension one bit
    for bit: vertices, measure, and every facet's normal and measure."""
    elem, ref = reference_simplex(dim), oracles.reference_simplex(dim)
    assert np.array_equal(elem.vertices, ref.vertices)
    assert elem.measure == ref.measure
    for facet, rf in zip(elem.facets, ref.facets, strict=True):
        assert facet.vertex_ids == rf.vertex_ids
        assert np.array_equal(facet.normal, rf.normal)
        assert facet.measure == rf.measure


def test_reference_simplex_bad_dimension():
    with pytest.raises(ValueError):
        reference_simplex(4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_facet_normals_outward_unit(dim):
    elem = reference_simplex(dim)
    centroid = elem.vertices.mean(axis=0)
    for facet in elem.facets:
        assert np.linalg.norm(facet.normal) == pytest.approx(1.0)
        mid = elem.vertices[list(facet.vertex_ids)].mean(axis=0)
        assert np.dot(facet.normal, mid - centroid) > 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_facet_opposite_vertex_convention(dim):
    elem = reference_simplex(dim)
    for f, facet in enumerate(elem.facets):
        assert f not in facet.vertex_ids
        assert list(facet.vertex_ids) == sorted(facet.vertex_ids)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_barycentric_round_trip(dim):
    elem = reference_simplex(dim)
    rng = np.random.default_rng(7)
    lam = rng.dirichlet(np.ones(dim + 1), size=20)
    x = lam @ elem.vertices
    lam2 = elem.barycentric(x)
    assert np.abs(lam2 - lam).max() < 1e-13
    x2 = lam2 @ elem.vertices
    assert np.abs(x2 - x).max() < 1e-14


@pytest.mark.parametrize("dim,kind,size,n_params", [
    (2, "S1", 1, 0), (2, "S21", 3, 1), (2, "S111", 6, 2),
    (2, "Svert", 3, 0), (2, "SmidEdge", 3, 0), (2, "Sedge", 6, 1),
    (3, "S1", 1, 0), (3, "S31", 4, 1), (3, "S22", 6, 1),
    (3, "S211", 12, 2), (3, "S1111", 24, 3),
    (3, "SfaceCent", 4, 0), (3, "Svert", 4, 0), (3, "SmidEdge", 6, 0),
    (3, "Sface21", 12, 1), (3, "Sedge", 12, 1), (3, "Sface111", 24, 2),
])
def test_orbit_sizes_and_params(dim, kind, size, n_params):
    assert kind in orbit_kinds(dim)
    assert orbit_size(kind, dim) == size
    assert orbit_structure(kind, dim).n_params == n_params


def _feasible_params(kind, dim, rng):
    n = orbit_structure(kind, dim).n_params
    for _ in range(100):
        params = tuple(rng.uniform(0.03, 0.30, size=n))
        try:
            expand_orbit(kind, params, dim)
        except (NodeSetError, DegenerateOrbitError, ValueError):
            continue
        return params
    raise AssertionError(f"no feasible params for {kind}")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("trial", range(3))
def test_orbit_expansion_closed_under_permutations(dim, trial):
    """An orbit's barycentric rows form a permutation-invariant set."""
    rng = np.random.default_rng(100 * dim + trial)
    for kind in orbit_kinds(dim):
        params = _feasible_params(kind, dim, rng)
        bary = expand_orbit(kind, params, dim)
        assert bary.shape == (orbit_size(kind, dim), dim + 1)
        assert np.abs(bary.sum(axis=1) - 1.0).max() < 1e-14
        rows = {tuple(np.round(r, 10)) for r in bary}
        for sigma in itertools.permutations(range(dim + 1)):
            for r in bary:
                assert tuple(np.round(r[list(sigma)], 10)) in rows


def test_orbit_rows_unique():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        for kind in orbit_kinds(dim):
            bary = expand_orbit(kind, _feasible_params(kind, dim, rng), dim)
            assert len({tuple(np.round(r, 10)) for r in bary}) == len(bary)


def test_degenerate_orbit_rejected():
    # S21 at the centroid parameter collapses all three nodes
    with pytest.raises((DegenerateOrbitError, NodeSetError)):
        expand_orbit("S21", (1.0 / 3.0,), 2)
    with pytest.raises((DegenerateOrbitError, NodeSetError)):
        expand_orbit("S31", (0.25,), 3)


def test_orbit_outside_closure_rejected():
    with pytest.raises(NodeSetError):
        expand_orbit("S21", (-0.05,), 2)
    with pytest.raises(NodeSetError):
        expand_orbit("S21", (0.6,), 2)   # 1 - 2a < 0


def test_tet_s22_rows_sum_to_one():
    bary = expand_orbit("S22", (0.1,), 3)
    assert np.abs(bary.sum(axis=1) - 1.0).max() == 0.0
    # two entries a, two entries 1/2 - a in every row
    for row in bary:
        assert sorted(np.round(row, 12)) == pytest.approx([0.1, 0.1, 0.4, 0.4])


@pytest.mark.parametrize("dim,kind", [
    (2, "Svert"), (2, "SmidEdge"), (2, "Sedge"),
    (3, "SfaceCent"), (3, "Svert"), (3, "SmidEdge"),
    (3, "Sface21"), (3, "Sedge"), (3, "Sface111"),
])
def test_facet_orbits_live_on_facets(dim, kind):
    rng = np.random.default_rng(3)
    bary = expand_orbit(kind, _feasible_params(kind, dim, rng), dim)
    # every node has some zero barycentric entry
    assert (np.abs(bary).min(axis=1) < 1e-14).all()


@pytest.mark.parametrize("dim,kind", [(2, "S1"), (2, "S21"), (2, "S111"),
                                      (3, "S1"), (3, "S31"), (3, "S22"),
                                      (3, "S211"), (3, "S1111")])
def test_interior_orbits_have_no_facet_nodes(dim, kind):
    rng = np.random.default_rng(4)
    bary = expand_orbit(kind, _feasible_params(kind, dim, rng), dim)
    assert bary.min() > 1e-3


def test_assemble_nodes_and_symmetry():
    sig = GroupSignature(2, (
        SymmetryOrbit("Svert", (), 0.1),
        SymmetryOrbit("S21", (0.2,), 0.3),
    ))
    nodes = assemble_nodes(sig)
    assert len(nodes) == 6
    assert node_set_is_symmetric(nodes)
    assert np.array_equal(nodes.orbit_index, [0, 0, 0, 1, 1, 1])


def test_assemble_rejects_cross_orbit_duplicates():
    sig = GroupSignature(2, (
        SymmetryOrbit("SmidEdge", (), 0.1),
        SymmetryOrbit("Sedge", (0.5,), 0.2),   # lands on the midpoints
    ))
    with pytest.raises(NodeSetError):
        assemble_nodes(sig)


def test_node_set_symmetry_detects_asymmetry():
    sig = GroupSignature(2, (SymmetryOrbit("S21", (0.15,), 1.0),))
    nodes = assemble_nodes(sig)
    nodes.coords[0] += 1e-4
    nodes.bary[0, 0] += 1e-4
    nodes.bary[0, 1] -= 1e-4
    assert not node_set_is_symmetric(nodes)
    assert not oracles.node_set_is_symmetric(nodes)


def test_node_set_symmetry_agrees_with_rounded_key_oracle(all_rules):
    """One nearest-point match per vertex permutation gives the verdict
    the rounded-key search gave, on every fixture rule and facet rule,
    and on each with one weight perturbed."""
    for key, rule in all_rules.items():
        for nodes in (rule.nodes,) + ((rule.facet_rule.nodes,)
                                      if rule.facet_rule else ()):
            assert node_set_is_symmetric(nodes), key
            assert oracles.node_set_is_symmetric(nodes), key
            if len(nodes) > 1 and nodes.dim > 1:
                nodes = copy.deepcopy(nodes)
                nodes.weights[0] *= 1.0 + 1e-6
                assert not node_set_is_symmetric(nodes), key
                assert not oracles.node_set_is_symmetric(nodes), key


# ----------------------------------------------------------------------
# point matching


def test_match_points_tolerance_is_inclusive():
    a, b = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0], [0.0, 0.5]])
    idx, ok = match_points(a, b, 0.5)
    assert idx.tolist() == [1] and ok
    assert not match_points(a, b, np.nextafter(0.5, 0.0))[1]


def test_match_points_rejects_a_shared_match():
    a = np.array([[0.0, 0.0], [0.1, 0.0]])
    b = np.array([[0.0, 0.0], [5.0, 5.0]])
    idx, ok = match_points(a, b, 10.0)
    assert idx.tolist() == [0, 0] and not ok


def test_match_points_broadcasts_leading_axes():
    rng = np.random.default_rng(3)
    b = rng.random((4, 2))
    perms = np.array([rng.permutation(4) for _ in range(3)])
    a = b[perms]                                   # (3, 4, 2)
    a[1, 2] += 0.5                                 # batch 1 loses a match
    idx, ok = match_points(a, b, 1e-12)
    assert idx.shape == (3, 4) and ok.tolist() == [True, False, True]
    assert np.array_equal(idx[[0, 2]], perms[[0, 2]])
    for t in range(3):
        single = match_points(a[t], b, 1e-12)
        assert np.array_equal(idx[t], single[0]) and ok[t] == single[1]


def test_match_points_unequal_sizes():
    b = np.array([[0.0], [1.0], [2.0]])
    idx, ok = match_points(b[[2, 0]], b, 1e-12)
    assert idx.tolist() == [2, 0] and ok      # every point of a matched
    idx, ok = match_points(b, b[:2], 1.0)
    assert not ok                             # three points, two targets


def test_canonical_order_sorts_facet_orbits_first():
    sig = GroupSignature(2, (
        SymmetryOrbit("S21", (0.2,), 1.0),
        SymmetryOrbit("Sedge", (0.7,), 1.0),
        SymmetryOrbit("Sedge", (0.6,), 1.0),
        SymmetryOrbit("Svert", (), 1.0),
    ))
    kinds = [o.kind for o in sig.canonically_ordered().orbits]
    assert kinds == ["Svert", "Sedge", "Sedge", "S21"]
    params = [o.params for o in sig.canonically_ordered().orbits
              if o.kind == "Sedge"]
    assert params == [(0.6,), (0.7,)]


def test_facet_restriction_counts_and_local_coords():
    sig = GroupSignature(2, (
        SymmetryOrbit("Svert", (), 0.1),
        SymmetryOrbit("SmidEdge", (), 0.2),
        SymmetryOrbit("S1", (), 0.3),
    ))
    nodes = assemble_nodes(sig)
    for f in range(3):
        idx, local = facet_restriction(nodes, f)
        assert idx.size == 3           # 2 vertices + 1 midpoint
        assert local.shape == (3, 1)
        assert sorted(np.round(local[:, 0], 12)) == [-1.0, 0.0, 1.0]


def test_min_node_spacing_simple():
    sig = GroupSignature(2, (SymmetryOrbit("Svert", (), 1.0),))
    nodes = assemble_nodes(sig)
    assert min_node_spacing(nodes) == pytest.approx(2.0)
