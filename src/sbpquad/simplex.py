"""Reference simplices, barycentric symmetry orbits, and node-set assembly.

The reference elements are the bi-unit ones commonly used for nodal DG /
SBP work:

* interval  [-1, 1]                                   (measure 2)
* triangle  (-1,-1), (1,-1), (-1,1)                   (measure 2)
* tet       (-1,-1,-1), (1,-1,-1), (-1,1,-1), (-1,-1,1)  (measure 4/3)

A symmetry orbit is the set of points generated by permuting a barycentric
generator; every generator used here is affine in its free parameters, so
each orbit carries an exact (constant, coefficient) representation that
also yields node derivatives with respect to the parameters for free.

Facet f of an element is the facet opposite vertex f; its vertex list is
the remaining vertices in increasing index order, and facet-local
coordinates come from identifying the facet's barycentric coordinates (in
that vertex order) with the (d-1)-dimensional reference simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "DUPLICATE_TOL",
    "CLOSURE_TOL",
    "NodeSetError",
    "DegenerateOrbitError",
    "Facet",
    "ReferenceSimplex",
    "reference_simplex",
    "OrbitStructure",
    "orbit_structure",
    "orbit_size",
    "orbit_kinds",
    "SymmetryOrbit",
    "GroupSignature",
    "NodeSet",
    "pairwise_distances",
    "match_points",
    "expand_orbit",
    "assemble_nodes",
    "min_node_spacing",
    "facet_restriction",
    "node_set_is_symmetric",
]

#: two nodes closer than this (in barycentric distance) are duplicates
DUPLICATE_TOL = 1e-12
#: barycentric coordinates may undershoot zero by at most this much
CLOSURE_TOL = 1e-14
#: a node lies on facet f when its barycentric lam_f is at most this
_FACET_TOL = 1e-12
#: node and weight mismatch allowed under a vertex permutation
_SYMMETRY_TOL = 1e-10


class NodeSetError(ValueError):
    """A node configuration violates closure/duplication constraints."""


class DegenerateOrbitError(NodeSetError):
    """Orbit parameters collapse two or more nodes of the orbit."""


# ----------------------------------------------------------------------
# reference elements


@dataclass(frozen=True)
class Facet:
    """One facet of a reference simplex.

    index is the id of the opposite vertex; vertex_ids are the remaining
    vertices (increasing); normal is the outward unit normal; measure is
    the facet's (d-1)-measure, with point facets assigned measure 1.
    """

    index: int
    vertex_ids: tuple[int, ...]
    normal: np.ndarray
    measure: float


@dataclass(frozen=True)
class ReferenceSimplex:
    dim: int
    vertices: np.ndarray          # (d+1, d)
    measure: float
    facets: tuple[Facet, ...]

    def barycentric(self, coords: np.ndarray) -> np.ndarray:
        """Barycentric coordinates of cartesian points, shape (n, d+1)."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        n = coords.shape[0]
        # solve  [V^T; 1] lam = [x; 1]  for each point
        m = np.vstack([self.vertices.T, np.ones(self.dim + 1)])
        rhs = np.hstack([coords, np.ones((n, 1))]).T
        return np.linalg.solve(m, rhs).T


@lru_cache(maxsize=None)
def reference_simplex(d: int) -> ReferenceSimplex:
    """Bi-unit reference simplex of dimension d in {1, 2, 3}.

    Vertex 0 is (-1, ..., -1) and vertex i is -1 + 2 e_i, so the measure
    is 2^d / d!.  Row f of the inverse of [V^T; 1] is the gradient of the
    barycentric coordinate lam_f, which is constant, points inward and
    vanishes on facet f: the outward normal is -grad lam_f / |grad lam_f|,
    and the facet measure is d |Omega| |grad lam_f| (the height of vertex
    f above its facet is 1 / |grad lam_f|), which is 1 for point facets.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    verts = -1.0 + 2.0 * np.eye(d + 1, d, k=-1)
    measure = 2.0 ** d / math.factorial(d)
    grad = np.linalg.inv(np.vstack([verts.T, np.ones(d + 1)]))[:, :d]
    norms = np.linalg.norm(grad, axis=1)
    normals = -grad / norms[:, None]
    normals.flags.writeable = verts.flags.writeable = False
    facets = tuple(Facet(f, tuple(i for i in range(d + 1) if i != f),
                         normals[f], float(d * measure * norms[f]))
                   for f in range(d + 1))
    return ReferenceSimplex(d, verts, measure, facets)


# ----------------------------------------------------------------------
# orbit generators
#
# Each generator is affine in its parameters: lam = base + coeff @ theta.
# base/coeff entries are exact rationals so expanded coordinates such as
# 0 and 1/2 come out bit-exact.

_F = Fraction
_GENERATORS: dict[tuple[int, str], tuple[tuple, tuple]] = {
    # (dim, kind): (base, coeff rows)
    (2, "S1"): ((_F(1, 3),) * 3, ((), (), ())),
    (2, "S21"): ((0, 0, 1), ((1,), (1,), (-2,))),
    (2, "S111"): ((0, 0, 1), ((1, 0), (0, 1), (-1, -1))),
    (2, "Svert"): ((1, 0, 0), ((), (), ())),
    (2, "SmidEdge"): ((_F(1, 2), _F(1, 2), 0), ((), (), ())),
    (2, "Sedge"): ((0, 1, 0), ((1,), (-1,), (0,))),
    (3, "S1"): ((_F(1, 4),) * 4, ((), (), (), ())),
    (3, "S31"): ((0, 0, 0, 1), ((1,), (1,), (1,), (-3,))),
    (3, "S22"): ((0, 0, _F(1, 2), _F(1, 2)),
                 ((1,), (1,), (-1,), (-1,))),
    (3, "S211"): ((0, 0, 0, 1),
                  ((1, 0), (1, 0), (0, 1), (-2, -1))),
    (3, "S1111"): ((0, 0, 0, 1),
                   ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))),
    (3, "SfaceCent"): ((_F(1, 3), _F(1, 3), _F(1, 3), 0),
                       ((), (), (), ())),
    (3, "Svert"): ((1, 0, 0, 0), ((), (), (), ())),
    (3, "SmidEdge"): ((_F(1, 2), _F(1, 2), 0, 0), ((), (), (), ())),
    (3, "Sface21"): ((0, 0, 1, 0), ((1,), (1,), (-2,), (0,))),
    (3, "Sedge"): ((0, 1, 0, 0), ((1,), (-1,), (0,), (0,))),
    (3, "Sface111"): ((0, 0, 1, 0),
                      ((1, 0), (0, 1), (-1, -1), (0, 0))),
}

#: canonical ordering rank; facet kinds sort before interior kinds
_KIND_RANK = {
    (2, "Svert"): 0, (2, "SmidEdge"): 1, (2, "Sedge"): 2,
    (2, "S1"): 10, (2, "S21"): 11, (2, "S111"): 12,
    (3, "Svert"): 0, (3, "SmidEdge"): 1, (3, "SfaceCent"): 2,
    (3, "Sedge"): 3, (3, "Sface21"): 4, (3, "Sface111"): 5,
    (3, "S1"): 10, (3, "S31"): 11, (3, "S22"): 12,
    (3, "S211"): 13, (3, "S1111"): 14,
}


@dataclass(frozen=True)
class OrbitStructure:
    """Exact affine structure of one orbit kind in one dimension.

    Expanding with parameters theta gives barycentric rows
    base[perm] + coeff[perm] @ theta for each distinct permutation perm.
    """

    kind: str
    dim: int
    n_params: int
    base: np.ndarray        # (size, d+1)
    coeff: np.ndarray       # (size, d+1, n_params)
    size: int


@lru_cache(maxsize=None)
def orbit_structure(kind: str, d: int) -> OrbitStructure:
    key = (d, kind)
    if key not in _GENERATORS:
        raise ValueError(f"unknown orbit kind {kind!r} for dimension {d}")
    base, coeff = _GENERATORS[key]
    m = d + 1
    n_params = len(coeff[0])
    # distinct permutations, decided symbolically on (base_i, coeff_i) rows
    rowsig = [(base[i], tuple(coeff[i])) for i in range(m)]
    seen = set()
    perms = []
    for sigma in itertools.permutations(range(m)):
        sig = tuple(rowsig[sigma[i]] for i in range(m))
        if sig not in seen:
            seen.add(sig)
            perms.append(sigma)
    size = len(perms)
    base_arr = np.empty((size, m))
    coeff_arr = np.empty((size, m, n_params))
    for k, sigma in enumerate(perms):
        for i in range(m):
            base_arr[k, i] = float(base[sigma[i]])
            coeff_arr[k, i, :] = [float(c) for c in coeff[sigma[i]]]
    base_arr.flags.writeable = False
    coeff_arr.flags.writeable = False
    return OrbitStructure(kind, d, n_params, base_arr, coeff_arr, size)


def orbit_kinds(d: int) -> list[str]:
    """All orbit kinds for dimension d in canonical order."""
    kinds = [k for (dd, k) in _GENERATORS if dd == d]
    return sorted(kinds, key=lambda k: _KIND_RANK[(d, k)])


def orbit_size(kind: str, d: int) -> int:
    return orbit_structure(kind, d).size


# ----------------------------------------------------------------------
# orbits / signatures / node sets


@dataclass(frozen=True)
class SymmetryOrbit:
    """One symmetry orbit with resolved parameters and a shared weight."""

    kind: str
    params: tuple[float, ...] = ()
    weight: float = 0.0


@dataclass(frozen=True)
class GroupSignature:
    """Ordered orbit list defining a symmetric node configuration."""

    dim: int
    orbits: tuple[SymmetryOrbit, ...]
    qv: int = 0

    def sort_key(self, i: int):
        o = self.orbits[i]
        return (_KIND_RANK[(self.dim, o.kind)], o.params)

    def canonically_ordered(self) -> "GroupSignature":
        order = sorted(range(len(self.orbits)), key=self.sort_key)
        return GroupSignature(self.dim,
                              tuple(self.orbits[i] for i in order),
                              self.qv)


@dataclass
class NodeSet:
    """Expanded nodes of a signature on a reference element."""

    coords: np.ndarray       # (n, d)
    weights: np.ndarray      # (n,)
    bary: np.ndarray         # (n, d+1)
    orbit_index: np.ndarray  # (n,) int, which orbit each node came from
    dim: int

    def __len__(self) -> int:
        return self.coords.shape[0]

    def facet_mask(self, facet_id: int) -> np.ndarray:
        return np.abs(self.bary[:, facet_id]) <= _FACET_TOL


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of x, +inf on the diagonal."""
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    dist[np.diag_indices(x.shape[0])] = np.inf
    return dist


def expand_orbit(kind: str, params, d: int) -> np.ndarray:
    """Barycentric rows of an orbit; raises on degenerate/out-of-range.

    Parameters
    ----------
    kind : orbit kind name, e.g. 'S21'
    params : sequence of free parameters (may be empty)
    d : element dimension

    Returns
    -------
    (size, d+1) array of barycentric coordinates.
    """
    st = orbit_structure(kind, d)
    theta = np.asarray(params, dtype=float)
    if theta.shape != (st.n_params,):
        raise ValueError(
            f"{kind} takes {st.n_params} parameter(s), got {theta.shape}")
    bary = st.base + st.coeff @ theta
    if bary.min() < -CLOSURE_TOL or bary.max() > 1.0 + CLOSURE_TOL:
        raise NodeSetError(
            f"{kind}{tuple(theta)} leaves the closure of the simplex")
    if st.size > 1:
        if pairwise_distances(bary).min() < DUPLICATE_TOL:
            raise DegenerateOrbitError(
                f"{kind}{tuple(theta)} is degenerate "
                f"(coincident nodes within the orbit)")
    return bary


def assemble_nodes(sig: GroupSignature) -> NodeSet:
    """Expand all orbits of a signature into a cartesian node set.

    Raises NodeSetError when any orbit is degenerate, leaves the element,
    or two orbits produce coincident nodes.
    """
    barys, weights, owners = [], [], []
    for i, orb in enumerate(sig.orbits):
        b = expand_orbit(orb.kind, orb.params, sig.dim)
        barys.append(b)
        weights.append(np.full(b.shape[0], orb.weight))
        owners.append(np.full(b.shape[0], i, dtype=int))
    bary = np.vstack(barys)
    dist = pairwise_distances(bary)
    if dist.min() < DUPLICATE_TOL:
        j, k = np.unravel_index(np.argmin(dist), dist.shape)
        raise NodeSetError(
            f"orbits {sig.orbits[np.concatenate(owners)[j]].kind} and "
            f"{sig.orbits[np.concatenate(owners)[k]].kind} produce "
            f"coincident nodes")
    return NodeSet(coords=bary @ reference_simplex(sig.dim).vertices,
                   weights=np.concatenate(weights),
                   bary=bary,
                   orbit_index=np.concatenate(owners),
                   dim=sig.dim)


def min_node_spacing(nodes: NodeSet | np.ndarray) -> float:
    """Smallest pairwise cartesian distance of a node set."""
    x = nodes.coords if isinstance(nodes, NodeSet) else np.asarray(nodes)
    if x.shape[0] < 2:
        raise ValueError("need at least two nodes for a spacing")
    return float(pairwise_distances(x).min())


def facet_restriction(nodes: NodeSet, facet_id: int):
    """Indices and facet-local coordinates of the nodes on one facet.

    Returns (indices, local) where local has shape (m, d-1); for the
    interval the local block is an (m, 0) array.
    """
    facet = reference_simplex(nodes.dim).facets[facet_id]
    idx = np.flatnonzero(nodes.facet_mask(facet_id))
    sub = nodes.bary[np.ix_(idx, list(facet.vertex_ids))]
    if nodes.dim == 1:
        return idx, np.zeros((idx.size, 0))
    return idx, sub @ reference_simplex(nodes.dim - 1).vertices


def match_points(a: np.ndarray, b: np.ndarray, tol: float):
    """Pair each point of a with its nearest point of b.

    a (..., n, k) and b (..., m, k) broadcast over their leading axes.
    Returns (idx, ok): idx (..., n) indexes b, and ok (...) holds where
    every point of a lies within euclidean distance tol of its match and
    no two points of a share one.
    """
    dist = np.linalg.norm(a[..., :, None, :] - b[..., None, :, :], axis=-1)
    idx = np.argmin(dist, axis=-1)
    srt = np.sort(idx, axis=-1)
    return idx, ((dist.min(axis=-1) <= tol).all(axis=-1)
                 & (srt[..., 1:] != srt[..., :-1]).all(axis=-1))


def node_set_is_symmetric(nodes: NodeSet) -> bool:
    """Whether the weighted node set is invariant under vertex permutations."""
    w = nodes.weights
    for sigma in itertools.permutations(range(nodes.dim + 1)):
        j, ok = match_points(nodes.bary[:, list(sigma)], nodes.bary,
                             _SYMMETRY_TOL)
        if not ok or np.any(np.abs(w - w[j])
                            > _SYMMETRY_TOL * (1.0 + np.abs(w))):
            return False
    return True
