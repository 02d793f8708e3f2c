"""Checks of sbpquad's answers that do not go through sbpquad's own checks.

Nothing here imports sbpquad: every checker takes plain arrays, so it
cannot share a fault with `sbpquad.basis`, `sbpquad.search.validate_rule`
or `sbpquad.advection.assemble_dense`. Each checker raises CheckFailed
with the reason when its property does not hold.

Reference elements are sbpquad's bi-unit simplices: the triangle with
vertices (-1,-1), (1,-1), (-1,1) and the tetrahedron with vertices
(-1,-1,-1), (1,-1,-1), (-1,1,-1), (-1,-1,1); facet f is opposite vertex f.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre

VERTICES = {
    2: np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]),
    3: np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0],
                 [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]),
}
MEASURE = {2: Fraction(2), 3: Fraction(4, 3)}

#: smallest node counts the package publishes, keyed by (domain, facet
#: family) and volume degree
MIN_NODES = {
    ("tri", "lgl"): {1: 6, 2: 7, 3: 10, 4: 12, 5: 15, 6: 18},
    ("tri", "lg"): {1: 6, 2: 7, 3: 10, 4: 12},
    ("tet", "gen"): {2: 7},
}

MOMENT_TOL = 1e-11      # relative error of each barycentric moment
ON_FACET_TOL = 1e-12    # |lambda_f| below which a node lies on facet f
MATCH_TOL = 1e-10       # distance at which two nodes are the same node
SBP_TOL = 1e-13         # |Q + Q^T - E| relative to max |Q|
DIFF_TOL = 1e-10        # |D f - f'| relative to max(1, max |f'|)
DT_BAND = 0.10          # certified dt against the RK4 spectral limit


class CheckFailed(Exception):
    """An answer violates a property the method guarantees."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def barycentric(coords: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (n, d+1) of points in the reference simplex."""
    d = coords.shape[1]
    v = VERTICES[d]
    lam = np.linalg.solve((v[1:] - v[0]).T, (coords - v[0]).T).T
    return np.column_stack([1.0 - lam.sum(axis=1), lam])


def exponents(q: int, n_vars: int):
    """Every exponent tuple of n_vars variables with total degree <= q."""
    return [a for a in itertools.product(range(q + 1), repeat=n_vars)
            if sum(a) <= q]


def dirichlet_moment(alpha: tuple[int, ...], d: int) -> Fraction:
    """Exact integral of prod lambda_i^alpha_i over the reference d-simplex.

    Dirichlet's formula: |T| d! prod(alpha_i!) / (d + |alpha|)!.
    """
    num = math.factorial(d) * math.prod(math.factorial(a) for a in alpha)
    return MEASURE[d] * Fraction(num, math.factorial(d + sum(alpha)))


def check_rule(coords: np.ndarray, weights: np.ndarray, degree: int) -> float:
    """Positive, symmetric rule on the closed element, exact to `degree`.

    Returns the largest relative moment error over the barycentric
    monomials of degree <= `degree`, which span that polynomial space.
    """
    d = coords.shape[1]
    measure = float(MEASURE[d])
    _require(weights.size > 0, "rule has no nodes")
    _require(weights.min() > 0.0, f"nonpositive weight {weights.min():.3e}")
    _require(abs(weights.sum() - measure) <= 1e-12 * measure,
             f"weights sum to {weights.sum():.15g}, not {measure:.15g}")
    lam = barycentric(coords)
    _require(lam.min() >= -ON_FACET_TOL,
             f"node outside the element (lambda = {lam.min():.3e})")
    worst = 0.0
    for alpha in exponents(degree, d + 1):
        exact = float(dirichlet_moment(alpha, d))
        approx = float(weights @ np.prod(lam ** np.array(alpha), axis=1))
        worst = max(worst, abs(approx - exact) / exact)
    _require(worst <= MOMENT_TOL,
             f"degree-{degree} moment error {worst:.3e} > {MOMENT_TOL:g}")
    check_symmetric(lam, weights)
    return worst


def check_symmetric(lam: np.ndarray, weights: np.ndarray) -> None:
    """The weighted node set maps onto itself under each vertex permutation."""
    for perm in itertools.permutations(range(lam.shape[1])):
        image = lam[:, perm]
        dist = np.linalg.norm(lam[:, None, :] - image[None, :, :], axis=2)
        match = dist.argmin(axis=1)
        _require(dist[np.arange(len(lam)), match].max() <= MATCH_TOL
                 and np.unique(match).size == len(lam),
                 f"node set changes under vertex permutation {perm}")
        _require(np.abs(weights - weights[match]).max()
                 <= 1e-12 * weights.max(),
                 f"weights change under vertex permutation {perm}")


def check_node_count(domain: str, family: str, degree: int, n: int) -> None:
    limit = MIN_NODES[(domain, family)][degree]
    _require(n <= limit, f"{domain}-{family} q{degree}: {n} nodes > {limit}")


def edge_points(family: str, p: int) -> np.ndarray:
    """LGL(p+2) or LG(p+1) points on [-1, 1], ascending."""
    if family == "lgl":
        n = p + 2
        inner = legendre.legroots(legendre.legder([0.0] * (n - 1) + [1.0]))
        return np.concatenate([[-1.0], np.sort(inner), [1.0]])
    if family == "lg":
        return np.sort(legendre.legroots([0.0] * (p + 1) + [1.0]))
    raise ValueError(f"no edge points for facet family {family!r}")


def check_triangle_edges(coords: np.ndarray, family: str, p: int) -> None:
    """The nodes on each edge are exactly the facet family's 1-D points."""
    lam = barycentric(coords)
    ref = edge_points(family, p)
    for f in range(3):
        a, b = [i for i in range(3) if i != f]
        on = np.abs(lam[:, f]) <= ON_FACET_TOL
        s = np.sort(lam[on, b] - lam[on, a])
        _require(s.size == ref.size and np.abs(s - ref).max() <= 1e-12,
                 f"edge {f} nodes {s} are not the {family}({ref.size}) "
                 f"points {ref}")


def check_tet_faces(coords: np.ndarray, facet_coords: np.ndarray,
                    facet_weights: np.ndarray, p: int) -> float:
    """Each face carries exactly the facet rule's nodes; that rule is a
    checked triangle rule of degree 2p. Returns its moment error."""
    err = check_rule(facet_coords, facet_weights, 2 * p)
    lam = barycentric(coords)
    for f in range(4):
        others = [i for i in range(4) if i != f]
        on = np.abs(lam[:, f]) <= ON_FACET_TOL
        local = lam[on][:, others] @ VERTICES[2]
        _require(local.shape[0] == facet_coords.shape[0],
                 f"face {f} holds {local.shape[0]} nodes, the facet rule "
                 f"{facet_coords.shape[0]}")
        dist = np.linalg.norm(local[:, None, :] - facet_coords[None, :, :],
                              axis=2)
        match = dist.argmin(axis=1)
        _require(dist.min(axis=1).max() <= MATCH_TOL
                 and np.unique(match).size == match.size,
                 f"face {f} nodes are not the facet rule's nodes")
    return err


def check_operator(coords: np.ndarray, Q, E, D, p: int) -> float:
    """SBP property Q_i + Q_i^T = diag(E_i), and D_i exact on degree <= p.

    The derivatives of the monomials are written out, not taken from a
    basis. Returns the largest relative SBP defect.
    """
    d = coords.shape[1]
    worst = 0.0
    for i in range(d):
        defect = np.abs(Q[i] + Q[i].T - np.diag(E[i])).max()
        rel = defect / np.abs(Q[i]).max()
        _require(rel <= SBP_TOL, f"|Q{i} + Q{i}^T - E{i}| = {rel:.3e} "
                 f"relative > {SBP_TOL:g}")
        worst = max(worst, rel)
    for a in exponents(p, d):
        f = np.prod(coords ** np.array(a), axis=1)
        for i in range(d):
            if a[i] == 0:
                exact = np.zeros(len(coords))
            else:
                lower = list(a)
                lower[i] -= 1
                exact = a[i] * np.prod(coords ** np.array(lower), axis=1)
            err = np.abs(D[i] @ f - exact).max()
            _require(err <= DIFF_TOL * max(1.0, np.abs(exact).max()),
                     f"D{i} misses d/dx{i} of monomial {a} by {err:.3e}")
    return worst


def check_convergence(meshes, errors, p: int) -> list[float]:
    """Errors fall with every refinement and the last rate is >= p + 0.5."""
    _require(all(b < a for a, b in zip(errors, errors[1:])),
             f"errors do not decrease: {errors}")
    rates = [math.log(errors[i - 1] / errors[i])
             / math.log(meshes[i] / meshes[i - 1])
             for i in range(1, len(meshes))]
    _require(rates[-1] >= p + 0.5,
             f"final rate {rates[-1]:.3f} < p + 0.5 = {p + 0.5}")
    return rates


def dense_operator(apply, n: int) -> np.ndarray:
    """Matrix of a linear map on R^n, one column per unit vector."""
    L = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        L[:, j] = apply(e)
        e[j] = 0.0
    return L


def rk4_amplification(z: np.ndarray) -> np.ndarray:
    """|R(z)| with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0
                                               * (1.0 + z / 4.0))))


def rk4_spectral_limit(eigs: np.ndarray, tol: float = 1e-12) -> float:
    """Largest dt with |R(s lambda)| <= 1 for every eigenvalue and s <= dt.

    R is the RK4 amplification polynomial. Its stability region lies in
    |z| < 3, so a grid scan up to 4 / max |lambda| finds the first
    unstable dt and bisection refines it.
    """
    eigs = eigs[np.abs(eigs) > 0.0]
    top = 4.0 / np.abs(eigs).max()

    def unstable(dt: float) -> bool:
        return bool(rk4_amplification(dt * eigs).max() > 1.0 + tol)

    grid = np.linspace(0.0, top, 4001)[1:]
    first = next(i for i, dt in enumerate(grid) if unstable(dt))
    lo, hi = (grid[first - 1] if first else 0.0), grid[first]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if unstable(mid) else (mid, hi)
    return lo


def check_timestep(dt: float, limit: float) -> float:
    """The certified dt lies within DT_BAND of the spectral limit."""
    rel = dt / limit - 1.0
    _require(abs(rel) <= DT_BAND,
             f"certified dt {dt:.6e} is {100 * rel:+.1f} % from the RK4 "
             f"spectral limit {limit:.6e}")
    return rel
