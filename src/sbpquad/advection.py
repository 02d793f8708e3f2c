"""Linear advection on periodic simplicial meshes, SBP-SAT discretized.

Verification harness for the operators: u_t + c.grad(u) = 0 on the unit
square/cube with periodic boundaries, exact solution
prod_i sin(omega*pi*(x_i - c_i t)).  The mesh is an integer lattice of
m^d cells, each split alike: squares into two triangles, cubes into six
tetrahedra (Kuhn split, conforming across cells).  The mesh is built
from the unit cell alone: its simplices' facets are paired by the sum of
their integer vertices modulo d, with the lattice offset between the
two sides, and facet nodes are matched once, on cell 0.  Facet coupling
uses penalty terms on the shared facet quadrature; 'upwind' dissipates
energy, 'central' conserves it.  The boundary metric terms are formed
from J * A^{-T} N so the discrete energy identity telescopes across
interfaces to floating-point accuracy.

As every cell is split alike, the operator is one cell stencil, built
from the unit cell's simplices scaled by 1/m; rhs applies it to all
cells in two matmuls and one gather, and is the only code that does.
The operator is block-circulant over cells, so it acts on a Bloch mode
v exp(i theta.c), c a cell's lattice coordinates, as one small symbol
per wavenumber theta (Gustafsson, Kreiss & Oliger 1995): the sum over
the 3^d cells k around cell 0 of exp(-i theta.k) B_k, B_k rhs of cell
0's unit vectors on cell k; where every phase is +-1 (theta in {0, pi}^d,
every theta of m = 2, the mesh every study certifies) the symbols are
real and so is the certificate's arithmetic.  certify_timestep bisects
on them for the largest step whose RK4 propagator over the horizon
raises no initial datum's energy at any theta; every step rests on it.
A step it tries is first checked at the wavenumber that sets the RK4
spectral limit alone, which rules out every failing step the tests and
benchmark try for one propagator's cost; a step passes only once every
theta's propagator is checked.

The operator scales as m, so one 3-cell problem's blocks give every
mesh's symbols, (m / 3) sum_k exp(-2 pi i j.k / m) B_k.  A study's sine
datum is 2^d Bloch modes, conjugate in pairs; run_convergence steps one
of each pair on cell 0 through the N-step RK4 propagator of its symbol
(run_to_time's N steps on every cell, to rounding) and sums the L2
error over the modes in closed form.  Past one rhs probe on 3 cells, a
mesh costs ceil(log2 N) products of 2^(d-1) symbols of order T n and an
error sum over 2^d modes at cell 0's T n_f Gauss points.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import simplex_gauss_rule, vandermonde
from .operators import SBPOperator
from .simplex import match_points, reference_simplex

__all__ = [
    "MeshError",
    "AdvectionProblem",
    "build_problem",
    "exact_solution",
    "rhs",
    "rk4_step",
    "run_to_time",
    "energy",
    "l2_error",
    "ConvergenceResult",
    "run_convergence",
    "assemble_dense",
    "bloch_symbols",
    "step_matrix",
    "spectral_limit",
    "energy_ratios",
    "certify_stable",
    "TimestepCertificate",
    "certify_timestep",
    "max_stable_dt",
]

#: the certificate bounds the energy this many periods of the fastest
#: velocity component ahead
_HORIZON_PERIODS = 5.0
#: run_convergence certifies the _CERT_CELLS mesh and steps at _STEP_MARGIN
_CERT_CELLS = 2
_STEP_MARGIN = 0.5
#: certify_timestep's first energy check sits this far below the RK4
#: spectral limit, relative; certified steps lie 0.06-0.16 % below it
_PROBE_GAP = 2.0 ** -8


class MeshError(ValueError):
    pass


# ----------------------------------------------------------------------
# the periodic mesh: an integer lattice of cells, each split alike


@lru_cache(maxsize=None)
def _cell_simplices(d: int) -> np.ndarray:
    """(T, d+1, d) integer vertices of the simplices splitting a unit cell,
    computed once per d and read-only.

    Squares split into 2 triangles, cubes into the 6 Kuhn tetrahedra (one
    per axis order of the walk from 0 to (1,1,1)), conforming across
    cells.  Negatively oriented simplices get their last two vertices
    swapped; facets are vertex subsets, so conformity is unaffected.
    """
    if d == 2:
        simp = np.array([[[0, 0], [1, 0], [0, 1]],
                         [[1, 1], [0, 1], [1, 0]]])
    elif d == 3:
        steps = np.eye(4, 3, k=-1, dtype=int)    # rows 0, e_0, e_1, e_2
        simp = np.array([np.cumsum(steps[[0, *np.add(perm, 1)]], axis=0)
                         for perm in itertools.permutations(range(3))])
    else:
        raise MeshError(f"no periodic mesh in dimension {d}")
    neg = np.linalg.det(simp[:, 1:] - simp[:, :1]) < 0
    simp[neg, d - 1:] = simp[neg, d - 1:][:, ::-1]
    simp.flags.writeable = False
    return simp


def _cell_partners(cell: np.ndarray):
    """(t2, f2, shift): facet f of simplex t of the unit cell's simplices
    cell, shape (T, d+1, d), meets facet f2[t, f] of simplex t2[t, f] of
    the cell shift[t, f] lattice steps away.

    Facet f, opposite vertex f, is keyed by the sum s of its integer
    vertices modulo d: d times its centroid modulo the cell, computed
    exactly.  A stable sort of the keys brings the two sides of each
    interface together; the offset between them is (s - s2) / d.
    """
    T, nv, d = cell.shape
    s = cell.sum(axis=1, keepdims=True) - cell            # (T, d+1, d)
    keys = (np.mod(s, d) @ d ** np.arange(d)).ravel()
    counts = np.unique(keys, return_counts=True)[1]
    if np.any(counts != 2):
        raise MeshError(
            f"{np.count_nonzero(counts != 2)} facets are not shared by "
            f"exactly two elements (nonconforming split?)")
    order = np.argsort(keys, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    t2, f2 = np.divmod(partner.reshape(T, nv), nv)
    return t2, f2, (s - s[t2, f2]) // d


def _element_points(xi: np.ndarray, m: int) -> np.ndarray:
    """(T m^d, len(xi), d) images of reference points xi in every element
    of the m-cell mesh: the cell's lattice origin plus the barycentric
    coordinates of xi times its simplex's integer vertices, over m.
    Element k is simplex k % T of cell k // T, cells in lexicographic
    order."""
    d = xi.shape[1]
    local = reference_simplex(d).barycentric(xi) @ _cell_simplices(d)
    origins = np.indices((m,) * d).reshape(d, -1).T
    return ((origins[:, None, None] + local) / m).reshape(-1, len(xi), d)


# ----------------------------------------------------------------------
# problem assembly


@dataclass
class AdvectionProblem:
    """The operator on u as (m^d, T n), T simplices a cell, is u @ cell_own
    (volume terms, own-side SAT) + u.ravel()[ext_idx] @ cell_ext (lift of
    the partner values; rows by simplex, facet, facet node, only those
    with a nonzero SAT coefficient: upwind flux lifts nothing on an
    outflow facet)."""

    op: SBPOperator
    m: int
    c: np.ndarray
    flux: str
    omega: int
    J: np.ndarray              # (T,) Jacobians of the cell's simplices
    phys: np.ndarray           # (K, n, d) node coordinates
    hw: np.ndarray             # (K, n) physical norm J_k * H
    cell_own: np.ndarray       # (T n, T n) one cell's own block
    cell_ext: np.ndarray       # (n_lift, T n) lift of partner values
    ext_idx: np.ndarray        # (m^d, n_lift) flat partner indices

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def n_elements(self) -> int:
        return self.hw.shape[0]

    @property
    def n_dof(self) -> int:
        return self.hw.size


def _affine_maps(verts: np.ndarray):
    """(A, J) of the maps x = A xi + b from the reference simplex onto
    each simplex of verts, shape (K, d+1, d)."""
    ref_v = reference_simplex(verts.shape[-1]).vertices
    Minv = np.linalg.inv((ref_v[1:] - ref_v[0]).T)
    A = np.einsum("kix,ij->kxj", verts[:, 1:] - verts[:, :1], Minv)
    return A, np.linalg.det(A)


def _sat_metrics(op: SBPOperator, A: np.ndarray, J: np.ndarray,
                 c: np.ndarray, flux: str):
    """Gvol (K, d), c contracted with the metrics, and coef (K, d+1, n_f),
    each facet node's SAT coefficient over J H, of simplices A, J."""
    Ainv = np.linalg.inv(A)
    Gvol = np.einsum("i,kji->kj", c, Ainv)
    # signed facet scales: alpha = c . (J A^{-T} N)
    N = np.stack([f.normal for f in reference_simplex(op.dim).facets])
    alpha = (J[:, None, None] * np.einsum("kji,fj->kfi", Ainv, N)) @ c
    phi = alpha[:, :, None] * np.stack([f.weights for f in op.facets])
    s = np.minimum(phi, 0.0) if flux == "upwind" else 0.5 * phi
    H_f = op.H[np.stack([f.vol_idx for f in op.facets])]   # (d+1, n_f)
    return Gvol, s / (J[:, None, None] * H_f)


def _check_problem(d: int, m: int, c, flux: str, omega: int) -> np.ndarray:
    """The velocity c as floats, once build_problem's inputs check out."""
    if flux not in ("upwind", "central"):
        raise ValueError(f"unknown flux {flux!r}")
    if operator.index(omega) <= 0 or omega % 2 != 0:
        raise ValueError("omega must be positive and even for a periodic "
                         "exact solution on the unit domain")
    if operator.index(m) < 2:
        raise MeshError("periodic mesh needs m >= 2 cells per direction; "
                        "one cell's certificate sees only theta = 0 and "
                        "overstates the stable step of finer meshes")
    c = np.asarray(c, dtype=float)
    if c.shape != (d,):
        raise ValueError(f"velocity must have shape ({d},)")
    if not np.isfinite(c).all():
        raise ValueError("velocity must be finite")
    if not np.any(c):
        raise ValueError("velocity must be nonzero")
    return c


def build_problem(op: SBPOperator, m: int, c, flux: str = "upwind",
                  omega: int = 2) -> AdvectionProblem:
    """Assemble the periodic SBP-SAT semi-discretization."""
    c = _check_problem(op.dim, m, c, flux, omega)
    d, n = op.dim, op.n_nodes
    cell = _cell_simplices(d)
    T = len(cell)
    A, J = _affine_maps(cell / m)
    phys = _element_points(op.rule.nodes.coords, m)
    hw = np.tile(J[:, None] * op.H, (m ** d, 1))

    # match each facet's nodes to its partner's once, on cell 0
    t2, f2, shift = _cell_partners(cell)                   # (T, d+1)
    vi = np.stack([fop.vol_idx for fop in op.facets])      # (d+1, n_f)
    theirs = vi[f2]                                        # (T, d+1, n_f)
    there = phys[t2[..., None], theirs] + shift[:, :, None, :] / m
    match, ok = match_points(phys[:T, vi], there, 1e-9)    # (T, d+1, n_f)
    if not ok.all():
        raise MeshError("facet nodes of the cell's simplices do not "
                        "collocate with their partners'")
    # each facet's partner cell, flat and wrapped: (m^d, T, d+1)
    cells = np.ravel_multi_index(np.indices((m,) * d).reshape(d, -1, 1, 1)
                                 + shift.transpose(2, 0, 1)[:, None],
                                 (m,) * d, mode="wrap")
    ext_idx = ((cells * T + t2)[..., None] * n
               + np.take_along_axis(theirs, match, -1))

    Gvol, coef = _sat_metrics(op, A, J, c, flux)
    coef = coef.ravel()
    rows = (np.arange(T)[:, None, None] * n + vi).ravel()  # facet node rows
    cell_own = np.zeros((T, n, T, n))
    cell_own[range(T), :, range(T), :] = -np.einsum("tj,jab->tba", Gvol, op.D)
    cell_own = cell_own.reshape(T * n, T * n)
    np.add.at(cell_own, (rows, rows), coef)
    # only facet nodes with a coefficient lift (upwind: the inflow facets);
    # ext_idx stays C-ordered, as the gather's layout sets rhs's rounding
    lift = np.flatnonzero(coef)
    cell_ext = np.zeros((lift.size, T * n))
    cell_ext[np.arange(lift.size), rows[lift]] = -coef[lift]
    return AdvectionProblem(
        op=op, m=m, c=c, flux=flux, omega=omega, J=J, phys=phys, hw=hw,
        cell_own=cell_own, cell_ext=cell_ext,
        ext_idx=np.ascontiguousarray(ext_idx.reshape(m ** d, -1)[:, lift]))


# ----------------------------------------------------------------------
# solution, RHS, time stepping


def exact_solution(points: np.ndarray, t: float, c, omega: int = 2
                   ) -> np.ndarray:
    """prod_i sin(omega*pi*(x_i - c_i t)) at arbitrary points."""
    c = np.asarray(c, dtype=float)
    arg = omega * np.pi * (points - t * c)
    return np.sin(arg).prod(axis=-1)


def initial_condition(prob: AdvectionProblem) -> np.ndarray:
    return exact_solution(prob.phys, 0.0, prob.c, prob.omega)


def rhs(prob: AdvectionProblem, u: np.ndarray) -> np.ndarray:
    """Semi-discrete right-hand side, u of shape (K, n): the cell
    stencil applied to every cell at once."""
    tn = prob.cell_own.shape[0]
    return (u.reshape(-1, tn) @ prob.cell_own
            + u.reshape(-1)[prob.ext_idx] @ prob.cell_ext).reshape(u.shape)


def rk4_step(prob: AdvectionProblem, u: np.ndarray, dt: float
             ) -> np.ndarray:
    """One RK4 step, its stages and u + dt/6 (k1 + 2 k2 + 2 k3 + k4)
    formed in one buffer in the order of the plain expressions."""
    k1 = rhs(prob, u)
    buf = np.multiply(k1, 0.5 * dt)
    k2 = rhs(prob, np.add(u, buf, out=buf))
    k3 = rhs(prob, np.add(u, np.multiply(k2, 0.5 * dt, out=buf), out=buf))
    k4 = rhs(prob, np.add(u, np.multiply(k3, dt, out=buf), out=buf))
    buf = np.add(k1, np.multiply(k2, 2.0, out=buf), out=buf)
    buf += np.multiply(k3, 2.0, out=k3)
    buf += k4
    buf *= dt / 6.0
    return np.add(u, buf, out=buf)


def run_to_time(prob: AdvectionProblem, u: np.ndarray, t: float,
                dt: float) -> np.ndarray:
    """Advance to exactly time t with uniform steps no longer than dt."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, not {dt}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be non-negative and finite, not {t}")
    n_steps = max(1, math.ceil(t / dt))
    for _ in range(n_steps):
        u = rk4_step(prob, u, t / n_steps)
    return u


def energy(prob: AdvectionProblem, u: np.ndarray) -> float:
    return float(np.sum(prob.hw * u * u))


def _gauss_interpolation(op: SBPOperator):
    """(interp, xf, wf): the Gauss rule exact to degree 3p + 1 and the map
    of nodal values (..., n) to their degree-p H-projection at xf."""
    d, p, W = op.dim, op.p, op.H
    V = vandermonde(op.rule.nodes.coords, p, d, check=False)
    proj = np.linalg.solve(V.T @ (W[:, None] * V), V.T * W[None, :])
    xf, wf = simplex_gauss_rule(3 * p + 1, d)
    Vf = vandermonde(xf, p, d, check=False)
    return (lambda u: (u @ proj.T) @ Vf.T), xf, wf


def l2_error(prob: AdvectionProblem, u: np.ndarray, t: float) -> float:
    """L2 distance to the exact solution via modal interpolation."""
    interp, xf, wf = _gauss_interpolation(prob.op)
    ue = exact_solution(_element_points(xf, prob.m), t, prob.c, prob.omega)
    err2 = np.einsum("t,f,ctf->", prob.J, wf, ((interp(u) - ue) ** 2)
                     .reshape(-1, len(prob.J), len(wf)))
    return float(np.sqrt(err2))


# ----------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceResult:
    meshes: list[int]
    errors: list[float]
    rates: list[float]
    p: int
    flux: str
    dt_m: float        # certified dt * m on the 2-cell mesh

    def summary(self) -> str:
        lines = [f"p = {self.p}, flux = {self.flux}, dt_m = {self.dt_m:.6e}"]
        for i, m in enumerate(self.meshes):
            rate = f"{self.rates[i - 1]:6.3f}" if i else "   ---"
            lines.append(f"  m = {m:3d}  error = {self.errors[i]:.6e}"
                         f"  rate = {rate}")
        return "\n".join(lines)


def run_convergence(op: SBPOperator, meshes, c, t: float = 0.25,
                    omega: int = 2, flux: str = "upwind"
                    ) -> ConvergenceResult:
    """L2 errors and successive rates over a mesh sequence.

    Mesh m steps at dt_m / (2 m), dt_m = 2 max_stable_dt on the 2-cell
    mesh.  That rests on the measured mesh independence of the certified
    dt * m (upwind, within 2 % over m = 2-8 on the triangle and 0.1 % on
    the tet; see README) and on a factor-2 margin.  Steps and errors are
    taken in Bloch space from one 3-cell problem, so a study builds two
    problems and calls rhs 2 T n times whatever its meshes; err^2 is
    m^d sum_(t,f) J_t w_f r_a conj(r_b) over mode pairs with j_a = j_b
    mod m, r_a mode a's interpolant less its exact value on cell 0.
    Raises ValueError for a t that is not positive and finite, for fewer
    than two meshes and, before any certificate, for what build_problem
    rejects (MeshError for a mesh below 2).
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, not {t}")
    if len(meshes) < 2 or any(a >= b for a, b in zip(meshes, meshes[1:])):
        raise ValueError("need two or more strictly increasing mesh sizes")
    c = _check_problem(op.dim, meshes[0], c, flux, omega)
    dt_m = _CERT_CELLS * max_stable_dt(
        build_problem(op, _CERT_CELLS, c, flux=flux))
    symbols = _stencil(build_problem(op, 3, c, flux=flux, omega=omega))
    interp, xf, wf = _gauss_interpolation(op)
    x1 = _element_points(op.rule.nodes.coords, 1).reshape(-1, op.dim)
    xg = _element_points(xf, 1).reshape(-1, op.dim)   # cell 0's, at m = 1
    w = (_affine_maps(_cell_simplices(op.dim))[1][:, None] * wf).ravel()
    errors = []
    for m in meshes:
        s, v = _sine_modes(x1 / m, 0.0, c, omega)       # on cell 0
        n_steps = max(1, math.ceil(t / (_STEP_MARGIN * dt_m / m)))
        G = np.linalg.matrix_power(step_matrix(
            symbols(m, omega // 2 * s), t / n_steps), n_steps)
        r = (interp((G @ v[..., None]).reshape(-1, op.n_nodes))
             .reshape(len(s), -1) - _sine_modes(xg / m, t, c, omega)[1])
        r, j = np.concatenate([r, r.conj()]), omega // 2 * np.vstack([s, -s])
        alias = np.all((j[:, None] - j) % m == 0, axis=-1)
        errors.append(math.sqrt(((r * w) @ r.conj().T)[alias].sum().real))
    rates = [math.log(errors[i - 1] / errors[i])
             / math.log(meshes[i] / meshes[i - 1])
             for i in range(1, len(meshes))]
    return ConvergenceResult(list(meshes), errors, rates, op.p, flux, dt_m)


# ----------------------------------------------------------------------
# Bloch symbols, stability certification


def _unit_responses(prob: AdvectionProblem, n_cols: int):
    """rhs of the first n_cols unit vectors, one (K, n) array at a time:
    columns of the semi-discrete operator."""
    e = np.zeros((prob.n_elements, prob.op.n_nodes))
    for j in range(n_cols):
        e.flat[j] = 1.0
        yield rhs(prob, e)
        e.flat[j] = 0.0


def assemble_dense(prob: AdvectionProblem) -> np.ndarray:
    """Dense matrix of the semi-discrete operator (small meshes), one
    column per unit vector."""
    cols = np.stack(list(_unit_responses(prob, prob.n_dof)))
    return cols.reshape(prob.n_dof, -1).T


def _phases(m: int, j: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """(S, K) exp(-2 pi i j.c / m), j (S, d) and cells c (K, d) integer,
    from one table of m-th roots of unity whose entries r and m - r are
    exact conjugates and entry m / 2 is -1: -j gets j's exact conjugates."""
    roots = np.exp(2j * np.pi / m * np.arange(m))
    roots[m // 2 + 1:] = roots[1:(m + 1) // 2][::-1].conj()
    if m % 2 == 0:
        roots[m // 2] = -1.0
    return roots[-(j @ cells.T) % m]


def bloch_symbols(prob: AdvectionProblem, j: np.ndarray | None = None
                  ) -> np.ndarray:
    """(S, T n, T n) Bloch symbols at the integer wavenumbers j, shape
    (S, d), theta = 2 pi j / m; by default all m^d, lexicographic: the
    sum of exp(-i theta.k) B_k over the cells at offsets k in {-1, 0, 1}^d
    (B_k is zero elsewhere), each taken once (on m = 2, offsets -1 and 1
    are one cell, one phase), B_k rhs of cell 0's unit vectors on cell k.
    """
    d, m = prob.dim, prob.m
    j = np.indices((m,) * d).reshape(d, -1).T if j is None else np.asarray(j)
    if j.dtype.kind not in "iu" or j.ndim != 2 or j.shape[1] != d:
        raise ValueError(f"wavenumbers must be an integer array of shape "
                         f"(S, {d}), not {j.dtype} {j.shape}")
    return _stencil(prob)(m, j)


def _stencil(prob: AdvectionProblem):
    """symbols(m, j), bloch_symbols of the m-cell mesh from prob's blocks,
    probed once, times m / prob.m; for every m if prob.m >= 3."""
    d, M = prob.dim, prob.m
    cells = np.unique((np.indices((3,) * d).reshape(d, -1).T - 1) % M, axis=0)
    stencil = np.ravel_multi_index(cells.T, (M,) * d)
    tn = prob.cell_own.shape[0]
    blocks = np.stack([col.reshape(-1, tn)[stencil]
                       for col in _unit_responses(prob, tn)], axis=-1)
    k, blocks = (cells + 1) % M - 1, blocks.reshape(len(cells), -1)

    def symbols(m, j):
        phases = _phases(m, j, k)
        if not phases.imag.any():      # 2 j = 0 mod m: every phase is +-1
            phases = phases.real
        return (m / M * (phases @ blocks)).reshape(-1, tn, tn)
    return symbols


def _sine_modes(x: np.ndarray, t: float, c: np.ndarray, omega: int):
    """(s, e): exact_solution at points x (P, d) is 2 Re sum_s e_s, e_s =
    prod_i s_i / (2i)^d exp(i omega pi s.(x - c t)), e (S, P), over the
    s in {-1, 1}^d with s_0 = 1; mode s has wavenumber j = omega s / 2."""
    s = np.array([(1, *r) for r in
                  itertools.product((1, -1), repeat=x.shape[1] - 1)])
    return s, (s.prod(axis=1)[:, None] / (2j) ** x.shape[1]
               * np.exp(1j * omega * np.pi * (s @ (x - t * c).T)))


def step_matrix(L: np.ndarray, dt: float) -> np.ndarray:
    """One-step RK4 propagator I + dtL + ... + (dtL)^4/24 (L may be a
    stack of matrices)."""
    eye = np.eye(L.shape[-1])
    G = eye + (dt / 4.0) * L
    G = eye + (dt / 3.0) * (L @ G)
    G = eye + (dt / 2.0) * (L @ G)
    return eye + dt * (L @ G)


def certification_horizon(prob: AdvectionProblem) -> float:
    return _HORIZON_PERIODS / float(np.abs(prob.c).max())


@lru_cache(maxsize=None)
def _conjugate_pairs(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, inverse): the wavenumbers j (flat, lexicographic) with j at
    most -j mod m, one of each conjugate pair, and for every wavenumber
    the position of its pair's representative in reps; reps[0] = 0."""
    j = np.arange(m ** d)
    minus_j = np.ravel_multi_index(np.negative(np.unravel_index(j, (m,) * d)),
                                   (m,) * d, mode="wrap")
    reps, inverse = np.unique(np.minimum(j, minus_j), return_inverse=True)
    reps.flags.writeable = inverse.flags.writeable = False
    return reps, inverse


def _symbols(prob: AdvectionProblem, symbols: np.ndarray | None
             ) -> np.ndarray:
    """bloch_symbols(prob) if symbols is None, else symbols once their
    shape is prob's (m^d, T n, T n): another mesh's or operator's raise
    ValueError."""
    if symbols is None:
        return bloch_symbols(prob)
    tn = prob.cell_own.shape[0]
    if np.shape(symbols) != (prob.m ** prob.dim, tn, tn):
        raise ValueError(f"symbols of shape {np.shape(symbols)} are not the "
                         f"problem's {(prob.m ** prob.dim, tn, tn)}")
    return symbols


def _rk4_growth(z: np.ndarray) -> np.ndarray:
    """|R(z)|, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0
                                               * (1.0 + z / 4.0))))


def spectral_limit(prob: AdvectionProblem, symbols: np.ndarray | None = None
                   ) -> tuple[float, float, complex, tuple[int, ...]]:
    """(rho, limit, lam, j): the Bloch symbols' spectral radius, the RK4
    spectral limit, and the eigenvalue that sets it with its wavenumber.

    The limit is the largest dt with |R(dt lam)| <= 1 + 1e-12 for every
    eigenvalue lam, found by bisecting (0, 3 / rho) over all eigenvalues
    at once: along every ray of the left half-plane the RK4 region is an
    interval from 0, and |R(z)| >= 1.118 for |z| >= 3.  The tolerance
    absorbs the rounding-level real parts of central flux's neutral
    modes, and the constants' zero eigenvalue has |R| = 1 at every dt.
    Eigenvalues come from one wavenumber of each conjugate pair (the
    conjugate's are their conjugates, with the same |R|), so j is the
    representative of its pair: the smaller in lexicographic order.  A
    real symbol's (m = 2) eigenvalues come in conjugate pairs alike, so
    lam is either member of its pair.  Symbols not of prob's shape raise
    ValueError.
    """
    symbols = _symbols(prob, symbols)
    reps = _conjugate_pairs(prob.m, prob.dim)[0]
    eigs = np.linalg.eigvals(symbols[reps])
    rho = float(np.abs(eigs).max())
    lo, hi = 0.0, 3.0 / rho
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _rk4_growth(mid * eigs).max() > 1.0 + 1e-12:
            hi = mid
        else:
            lo = mid
    k = np.unravel_index(np.argmax(_rk4_growth(hi * eigs)), eigs.shape)
    j = np.unravel_index(reps[k[0]], (prob.m,) * prob.dim)
    return rho, lo, complex(eigs[k]), tuple(map(int, j))


def _propagators(prob: AdvectionProblem, dt: float, symbols: np.ndarray,
                 reps: np.ndarray) -> np.ndarray:
    """energy_ratios' H^1/2 Ghat^N H^-1/2 at the flat wavenumbers reps, in
    their order; wavenumber 0's slice, wherever it sits, with the
    constants projected out."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, not {dt}")
    n_steps = max(1, math.ceil(certification_horizon(prob) / dt))
    h = np.sqrt(prob.hw.ravel()[:symbols.shape[-1]])      # cell 0's norm
    e = h / np.linalg.norm(h)          # the constants, scaled by H^1/2
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.linalg.matrix_power(step_matrix(symbols[reps], dt), n_steps)
        G = h[:, None] * G / h
        for i in np.flatnonzero(reps == 0):
            G[i] -= np.outer(G[i] @ e, e)
    return G


def _spectral_norms(G: np.ndarray) -> np.ndarray:
    """||G_j||_2 of a stack G, possibly empty: np.linalg.norm(G, 2,
    axis=(1, 2)) without its moveaxis."""
    return np.linalg.svd(G, compute_uv=False).max(axis=-1, initial=0.0)


def energy_ratios(prob: AdvectionProblem, dt: float,
                  symbols: np.ndarray | None = None) -> np.ndarray:
    """(m^d,) worst case over initial data of the energy ratio
    E(N dt) / E(0), N = ceil(T / dt) for T the certification horizon,
    per Bloch wavenumber.

    The Bloch modes are orthogonal in the energy norm, so the worst case
    at wavenumber theta is ||H^1/2 Ghat(theta)^N H^-1/2||_2^2, with H
    the norm on one cell; a propagator that overflows scores inf.  The
    scheme keeps the constants' energy exactly, and keeps data
    H-orthogonal to them H-orthogonal, so theta = 0 (row 0) is measured
    on that data alone; with the constants it would read 1 at every dt.
    The operator is real, so Ghat(-theta) is the conjugate of
    Ghat(theta) and has the same norm: the ratio is computed for one
    wavenumber of each conjugate pair (j at most -j mod m) and copied to
    the other.  The ratio is at least the spectral growth
    rho(Ghat)^(2N), above 1 + 1e-12 at every dt beyond the RK4 spectral
    limit (spectral_limit), so no such dt certifies.  A dt that is not
    positive and finite, or symbols not of prob's shape, raise ValueError.
    """
    reps, inverse = _conjugate_pairs(prob.m, prob.dim)
    G = _propagators(prob, dt, _symbols(prob, symbols), reps)
    finite = np.isfinite(G).all(axis=(1, 2))
    ratios = np.full(len(G), np.inf)
    with np.errstate(over="ignore"):
        ratios[finite] = _spectral_norms(G[finite]) ** 2
    return ratios[inverse]


def _worst_ratio(G: np.ndarray, seed: tuple[int, float] | None = None
                 ) -> float:
    """max_j ||G_j||_2^2 of a stack G, inf if not finite (certify_stable),
    from the SVD of the largest-||G||_F slice, besides seed (k, ||G_k||_2^2)
    if one is already known, and of every other slice whose ||G||_F^2
    reaches the larger ratio."""
    with np.errstate(over="ignore", invalid="ignore"):
        F = (G.conj() * G).real.sum(axis=(1, 2))
        if not (np.isfinite(F).all() or np.isfinite(G).all()):
            return math.inf
        a = F.argmax()
        k, worst = seed or (a, _spectral_norms(G[[a]])[0] ** 2)
        if a != k:
            worst = max(worst, _spectral_norms(G[[a]])[0] ** 2)
        others = F * (1.0 + 1e-8) + np.finfo(float).tiny > worst
        others[[k, a]] = False
        rest = _spectral_norms(G[others]) ** 2
    return float(rest.max(initial=worst))


def _check_step(prob: AdvectionProblem, dt: float,
                symbols: np.ndarray | None, first=None) -> tuple[bool, float]:
    """certify_stable's (ok, ratio), or with first, a wavenumber j of d
    integers in [0, m), its decision: j's pair's propagator is powered
    alone first, and a ratio there above 1 + 1e-12 fails dt with that
    ratio.  Otherwise the other pairs' are powered and j's slice put back
    in its place, its ratio kept, so a passing step's ratio is
    certify_stable's."""
    symbols = _symbols(prob, symbols)
    reps, inverse = _conjugate_pairs(prob.m, prob.dim)
    seed = None
    if first is not None:
        j = np.asarray(first)
        if (j.dtype.kind not in "iu" or j.shape != (prob.dim,)
                or not np.all((0 <= j) & (j < prob.m))):
            raise ValueError(f"first must be {prob.dim} integers in "
                             f"[0, {prob.m}), not {first!r}")
        k = inverse[np.ravel_multi_index(j, (prob.m,) * prob.dim)]
        G = _propagators(prob, dt, symbols, reps[[k]])
        seed = k, _worst_ratio(G)
        if seed[1] > 1.0 + 1e-12:
            return False, seed[1]
        G = np.insert(_propagators(prob, dt, symbols, np.delete(reps, k)),
                      k, G[0], axis=0)
    else:
        G = _propagators(prob, dt, symbols, reps)
    ratio = _worst_ratio(G, seed)
    return ratio <= 1.0 + 1e-12, ratio


def certify_stable(prob: AdvectionProblem, dt: float,
                   symbols: np.ndarray | None = None) -> tuple[bool, float]:
    """(energy at the horizon not above the initial energy for every
    initial datum, worst-case final/initial ratio), energy_ratios' max bit
    for bit from SVDs of the largest-||G||_F propagator and those whose
    ||G||_F^2 >= ||G||_2^2 reaches its ratio: bench upwind 1-2, central all.
    Every wavenumber is checked, so a failing step reports its largest
    ratio.  A dt that is not positive and finite, or symbols not of prob's
    shape, raise ValueError."""
    return _check_step(prob, dt, symbols)


@dataclass(frozen=True, eq=False)
class TimestepCertificate:
    """certify_timestep's record; ratios(dt) checks dt on its symbols."""

    prob: AdvectionProblem
    symbols: np.ndarray        # bloch_symbols(prob), all j; real on m = 2
    dt: float                  # largest certified step
    ratio: float               # worst-case energy ratio at dt
    ruled_out: float           # smallest step ruled out: failed, or 3 / rho
    rho: float                 # the symbols' spectral radius
    limit: float               # RK4 spectral limit (spectral_limit)
    eigenvalue: complex        # the eigenvalue that sets the limit
    wavenumber: tuple[int, ...]    # and its wavenumber j

    def ratios(self, dt: float) -> np.ndarray:
        return energy_ratios(self.prob, dt, self.symbols)


def certify_timestep(prob: AdvectionProblem, rel_tol: float = 1e-4
                     ) -> TimestepCertificate:
    """The largest dt certified stable for all initial data
    (certify_stable), with what certifies it.

    Every step it returns or rules out is decided by an energy check.
    No step above the RK4 spectral limit of the Bloch symbols
    (spectral_limit) certifies (energy_ratios).  A check powers the
    propagator at the wavenumber j that sets that limit first and fails
    the step if its ratio is above 1 + 1e-12; only otherwise does it
    power the other wavenumbers', so a passed step's ratio is
    certify_stable's and a failed step fails certify_stable too.  The
    first two checks probe at (1 - 2^-8) limit and at the limit: a passed probe becomes
    the bracket's lower edge and a failed one its upper edge, so at
    rel_tol = 1e-4 six bisection checks follow.  A probe that misses
    leaves the rest of (0, 3 / rho), past which the fastest mode grows
    every step (spectral_limit).  Bisection runs until the bracket's
    relative width is at most rel_tol or it has no float strictly
    inside; dt is its certified lower edge and ruled_out its upper edge.
    The symbols are built and their eigenvalues taken once.  Raises
    RuntimeError when no step above 1e-12 of the bracket certifies.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be positive and finite, not {rel_tol}")
    symbols = bloch_symbols(prob)
    rho, limit, lam, j = spectral_limit(prob, symbols)
    top = 3.0 / rho
    lo, hi, ratio = 0.0, top, math.inf
    for probe in ((1.0 - _PROBE_GAP) * limit, limit):
        ok, r = _check_step(prob, probe, symbols, j)
        if not ok:
            hi = probe
            break
        lo, ratio = probe, r
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        ok, r = _check_step(prob, mid, symbols, j)
        if ok:
            lo, ratio = mid, r
        elif lo == 0.0 and mid < 1e-12 * top:
            raise RuntimeError("no stable timestep found")
        else:
            hi = mid
    return TimestepCertificate(prob, symbols, lo, ratio, hi, rho, limit,
                               lam, j)


def max_stable_dt(prob: AdvectionProblem, rel_tol: float = 1e-4) -> float:
    """The largest certified step: certify_timestep(prob, rel_tol).dt."""
    return certify_timestep(prob, rel_tol).dt
