"""Linear advection on periodic simplicial meshes, SBP-SAT discretized.

Verification harness for the operators: u_t + c.grad(u) = 0 on the unit
square/cube with periodic boundaries, exact solution
prod_i sin(omega*pi*(x_i - c_i t)).  The mesh is an integer lattice of
m^d cells, each split alike: squares into two triangles, cubes into six
tetrahedra (Kuhn split, conforming across cells).  Facets are paired by
exact lattice keys, the sum of their integer vertices modulo d m.
Facet coupling uses penalty terms on the shared facet quadrature;
'upwind' dissipates energy, 'central' conserves it.

The boundary metric terms are formed from J * A^{-T} N so the discrete
energy identity telescopes across interfaces to floating-point
accuracy.

The stable-timestep certificate works per Bloch wavenumber: every cell
is split alike, so the operator is block-circulant and decouples into
one small symbol per wavenumber theta.  A step dt is certified when, at
every theta, the RK4 propagator over the horizon step N = ceil(T/dt)
does not raise the energy of any initial datum (the worst case over all
data, not one sine).  Only the energy at the horizon is bounded:
intermediate steps may grow transiently, because RK4 is not strongly
stable for these non-normal operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import simplex_gauss_rule, vandermonde
from .operators import SBPOperator
from .simplex import reference_simplex

__all__ = [
    "MeshError",
    "AdvectionProblem",
    "build_problem",
    "exact_solution",
    "rhs",
    "rk4_step",
    "integrate",
    "run_to_time",
    "energy",
    "l2_error",
    "estimate_dt",
    "ConvergenceResult",
    "run_convergence",
    "assemble_dense",
    "bloch_symbols",
    "step_matrix",
    "energy_ratios",
    "certify_stable",
    "max_stable_dt",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class MeshError(ValueError):
    pass


# ----------------------------------------------------------------------
# the periodic mesh: an integer lattice of cells, each split alike


def _cell_simplices(d: int) -> np.ndarray:
    """(T, d+1, d) integer vertices of the simplices splitting a unit cell.

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
    return simp


def _lattice(d: int, m: int) -> np.ndarray:
    """(T m^d, d+1, d) integer vertices of the periodic mesh.

    Element k is simplex k % T of cell k // T, cells in lexicographic
    order; physical vertices are these divided by m.
    """
    cells = np.indices((m,) * d).reshape(d, -1).T
    return (cells[:, None, None, :]
            + _cell_simplices(d)).reshape(-1, d + 1, d)


def _pair_facets(ivert: np.ndarray, m: int) -> np.ndarray:
    """(K, d+1) flat index k2 (d+1) + f2 of each facet's periodic partner.

    Facet f, opposite vertex f, is keyed by the sum of its integer
    vertices modulo d m: d m times its wrapped centroid, computed
    exactly.  A stable sort of the keys brings the two sides of each
    interface together.
    """
    K, nv, d = ivert.shape
    ksum = np.mod(ivert.sum(axis=1, keepdims=True) - ivert, d * m)
    keys = (ksum @ (d * m) ** np.arange(d)).ravel()
    counts = np.unique(keys, return_counts=True)[1]
    if np.any(counts != 2):
        raise MeshError(
            f"{np.count_nonzero(counts != 2)} facets are not shared by "
            f"exactly two elements (nonconforming split?)")
    order = np.argsort(keys, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    return partner.reshape(K, nv)


# ----------------------------------------------------------------------
# problem assembly


@dataclass
class AdvectionProblem:
    op: SBPOperator
    m: int
    c: np.ndarray
    flux: str
    omega: int
    verts: np.ndarray          # (K, d+1, d)
    A: np.ndarray              # (K, d, d) columns (v_i - v_0)/2 style map
    b: np.ndarray              # (K, d)
    J: np.ndarray              # (K,)
    phys: np.ndarray           # (K, n, d) node coordinates
    hw: np.ndarray             # (K, n) physical norm J_k * H
    Gvol: np.ndarray           # (K, d) contraction of c with metrics
    vol_idx: list[np.ndarray]  # per reference facet
    ext_flat: list[np.ndarray]  # (K, n_f) flat indices into u.ravel()
    coef: list[np.ndarray]     # (K, n_f) SAT coefficients / (J H)
    _spec_radius_bound: float = field(default=0.0)

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def n_elements(self) -> int:
        return self.verts.shape[0]

    @property
    def n_dof(self) -> int:
        return self.verts.shape[0] * self.op.n_nodes


def build_problem(op: SBPOperator, m: int, c, flux: str = "upwind",
                  omega: int = 2) -> AdvectionProblem:
    """Assemble the periodic SBP-SAT semi-discretization."""
    if flux not in ("upwind", "central"):
        raise ValueError(f"unknown flux {flux!r}")
    if omega % 2 != 0:
        raise ValueError("omega must be even for a periodic exact "
                         "solution on the unit domain")
    if m < 2:
        raise MeshError("periodic mesh needs m >= 2 cells per direction; "
                        "with m = 1 a facet spans the full period and its "
                        "endpoints alias under the wrap")
    d = op.dim
    c = np.asarray(c, dtype=float)
    if c.shape != (d,):
        raise ValueError(f"velocity must have shape ({d},)")
    ivert = _lattice(d, m)
    verts = ivert / m
    elem = reference_simplex(d)
    ref_v = elem.vertices

    # affine maps x = A xi + b fitted through the vertices
    M = np.column_stack([ref_v[i] - ref_v[0] for i in range(1, d + 1)])
    Minv = np.linalg.inv(M)
    span = np.stack([verts[:, i] - verts[:, 0]
                     for i in range(1, d + 1)], axis=2)   # (K, d, d)
    A = np.einsum("kxi,ij->kxj", span, Minv)
    bvec = verts[:, 0] - np.einsum("kxj,j->kx", A, ref_v[0])
    J = np.linalg.det(A)
    if np.any(J <= 0):
        raise MeshError("negatively oriented element in the split")
    Ainv = np.linalg.inv(A)

    x = op.rule.nodes.coords
    phys = np.einsum("kxj,nj->knx", A, x) + bvec[:, None, :]
    hw = J[:, None] * op.H[None, :]
    Gvol = np.einsum("i,kji->kj", c, Ainv)

    # signed facet scales: alpha = c . (J A^{-T} N)
    N = np.stack([f.normal for f in elem.facets])          # (d+1, d)
    area_vec = J[:, None, None] * np.einsum("kji,fj->kfi", Ainv, N)
    alpha = area_vec @ c                                   # (K, d+1)

    # match each facet's nodes to its partner's by periodic minimum image
    k2, f2 = np.divmod(_pair_facets(ivert, m), d + 1)      # (K, d+1)
    vol_idx = [fop.vol_idx for fop in op.facets]
    vi = np.stack(vol_idx)                                 # (d+1, n_f)
    ext_flat, coef = [], []
    for f, fop in enumerate(op.facets):
        theirs = vi[f2[:, f]]                              # (K, n_f)
        diff = (phys[:, vi[f], None, :]
                - phys[k2[:, f, None], theirs][:, None, :, :])
        diff -= np.round(diff)
        dist = np.linalg.norm(diff, axis=3)                # (K, n_f, n_f)
        match = np.argmin(dist, axis=2)
        srt = np.sort(match, axis=1)
        bad = ((dist.min(axis=2).max(axis=1) > 1e-9)
               | np.any(srt[:, 1:] == srt[:, :-1], axis=1))
        if np.any(bad):
            k = np.flatnonzero(bad)[0]
            raise MeshError(f"facet nodes of elements {k}/{k2[k, f]} do "
                            f"not collocate")
        ext_flat.append(k2[:, f, None] * op.n_nodes
                        + np.take_along_axis(theirs, match, 1))
        phi = alpha[:, f, None] * fop.weights[None, :]     # (K, n_f)
        s = np.minimum(phi, 0.0) if flux == "upwind" else 0.5 * phi
        coef.append(s / (J[:, None] * op.H[vi[f]][None, :]))

    prob = AdvectionProblem(
        op=op, m=m, c=c, flux=flux, omega=omega, verts=verts, A=A,
        b=bvec, J=J, phys=phys, hw=hw, Gvol=Gvol, vol_idx=vol_idx,
        ext_flat=ext_flat, coef=coef)
    prob._spec_radius_bound = _row_sum_bound(prob)
    return prob


def _row_sum_bound(prob: AdvectionProblem) -> float:
    """Infinity-norm bound on the semi-discrete operator."""
    op = prob.op
    d = op.dim
    rs = np.zeros((prob.n_elements, op.n_nodes))
    drow = [np.abs(op.D[j]).sum(axis=1) for j in range(d)]
    for j in range(d):
        rs += np.abs(prob.Gvol[:, j])[:, None] * drow[j][None, :]
    for f in range(d + 1):
        rs[:, prob.vol_idx[f]] += 2.0 * np.abs(prob.coef[f])
    return float(rs.max())


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
    """Semi-discrete right-hand side, u of shape (K, n)."""
    op = prob.op
    du = -prob.Gvol[:, 0, None] * (u @ op.D[0].T)
    for j in range(1, op.dim):
        du -= prob.Gvol[:, j, None] * (u @ op.D[j].T)
    flat = u.reshape(-1)
    for f in range(op.dim + 1):
        ui = u[:, prob.vol_idx[f]]
        ue = flat[prob.ext_flat[f]]
        du[:, prob.vol_idx[f]] += prob.coef[f] * (ui - ue)
    return du


def rk4_step(prob: AdvectionProblem, u: np.ndarray, dt: float
             ) -> np.ndarray:
    k1 = rhs(prob, u)
    k2 = rhs(prob, u + 0.5 * dt * k1)
    k3 = rhs(prob, u + 0.5 * dt * k2)
    k4 = rhs(prob, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(prob: AdvectionProblem, u: np.ndarray, dt: float,
              n_steps: int) -> np.ndarray:
    for _ in range(n_steps):
        u = rk4_step(prob, u, dt)
    return u


def estimate_dt(prob: AdvectionProblem, safety: float = 1.0) -> float:
    """Timestep from the row-sum spectral bound; safe for RK4."""
    return safety / prob._spec_radius_bound


def run_to_time(prob: AdvectionProblem, u: np.ndarray, t: float,
                dt: float | None = None) -> np.ndarray:
    """Advance to exactly time t with uniform steps."""
    if dt is None:
        dt = estimate_dt(prob)
    n_steps = max(1, math.ceil(t / dt))
    return integrate(prob, u, t / n_steps, n_steps)


def energy(prob: AdvectionProblem, u: np.ndarray) -> float:
    return float(np.sum(prob.hw * u * u))


def l2_error(prob: AdvectionProblem, u: np.ndarray, t: float) -> float:
    """L2 distance to the exact solution via modal interpolation."""
    op = prob.op
    d = op.dim
    p = op.p
    V = vandermonde(op.rule.nodes.coords, p, d, check=False)
    W = op.H
    G = V.T @ (W[:, None] * V)
    proj = np.linalg.solve(G, V.T * W[None, :])     # (nb, n)
    coeffs = u @ proj.T                             # (K, nb)
    xf, wf = simplex_gauss_rule(3 * p + 1, d)
    Vf = vandermonde(xf, p, d, check=False)
    uh = coeffs @ Vf.T                              # (K, nf)
    pf = np.einsum("kxj,nj->knx", prob.A, xf) + prob.b[:, None, :]
    ue = exact_solution(pf, t, prob.c, prob.omega)
    err2 = np.einsum("k,f,kf->", prob.J, wf, (uh - ue) ** 2)
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

    def summary(self) -> str:
        lines = [f"p = {self.p}, flux = {self.flux}"]
        for i, m in enumerate(self.meshes):
            rate = f"{self.rates[i - 1]:6.3f}" if i else "   ---"
            lines.append(f"  m = {m:3d}  error = {self.errors[i]:.6e}"
                         f"  rate = {rate}")
        return "\n".join(lines)


def run_convergence(op: SBPOperator, meshes, c, t: float = 0.25,
                    omega: int = 2, flux: str = "upwind",
                    safety: float = 1.0) -> ConvergenceResult:
    """L2 errors and successive rates over a mesh sequence."""
    errors = []
    for m in meshes:
        prob = build_problem(op, m, c, flux=flux, omega=omega)
        u = initial_condition(prob)
        u = run_to_time(prob, u, t, dt=estimate_dt(prob, safety))
        errors.append(l2_error(prob, u, t))
    rates = [math.log(errors[i - 1] / errors[i])
             / math.log(meshes[i] / meshes[i - 1])
             for i in range(1, len(meshes))]
    return ConvergenceResult(list(meshes), errors, rates, op.p, flux)


# ----------------------------------------------------------------------
# Bloch symbols, stability certification


def _operator_rows(prob: AdvectionProblem, n_el: int) -> np.ndarray:
    """(n_el n, K n) rows of the semi-discrete operator for elements
    0..n_el-1."""
    op = prob.op
    n = op.n_nodes
    own = np.arange(n_el)
    L = np.zeros((n_el, n, prob.n_elements, n))
    L[own, :, own, :] = -np.einsum("kj,jab->kab", prob.Gvol[:n_el], op.D)
    L = L.reshape(n_el * n, prob.n_dof)
    for f in range(op.dim + 1):
        rows = own[:, None] * n + prob.vol_idx[f]
        L[rows, rows] += prob.coef[f][:n_el]
        L[rows, prob.ext_flat[f][:n_el]] -= prob.coef[f][:n_el]
    return L


def assemble_dense(prob: AdvectionProblem) -> np.ndarray:
    """Dense matrix of the semi-discrete operator (small meshes)."""
    return _operator_rows(prob, prob.n_elements)


def bloch_symbols(prob: AdvectionProblem) -> np.ndarray:
    """(m^d, T n, T n) Bloch symbols of the operator, T simplices a cell.

    Every cell of the lattice is split alike, so the operator is
    block-circulant over cells: on a Bloch mode u_c = v exp(i theta.c),
    cell c in lattice coordinates, it acts as the symbol Lhat(theta)
    on v.  Lhat is summed from the rows of cell 0, each neighbour's
    column block times exp(i theta.c); row j of the stack has
    theta = 2 pi j / m, j running over the cells' lexicographic order.
    """
    d, m, n = prob.dim, prob.m, prob.op.n_nodes
    tn = prob.n_elements // m ** d * n
    rows = _operator_rows(prob, tn // n).reshape(tn, *(m,) * d, tn)
    symbols = np.fft.ifftn(rows, axes=range(1, d + 1), norm="forward")
    return np.moveaxis(symbols, 0, -2).reshape(m ** d, tn, tn)


def step_matrix(L: np.ndarray, dt: float) -> np.ndarray:
    """One-step RK4 propagator I + dtL + ... + (dtL)^4/24 (L may be a
    stack of matrices)."""
    eye = np.eye(L.shape[-1])
    G = eye + (dt / 4.0) * L
    G = eye + (dt / 3.0) * (L @ G)
    G = eye + (dt / 2.0) * (L @ G)
    return eye + dt * (L @ G)


def certification_horizon(prob: AdvectionProblem, periods: float = 5.0
                          ) -> float:
    return periods / float(np.abs(prob.c).max())


def energy_ratios(prob: AdvectionProblem, dt: float, T: float | None = None,
                  symbols: np.ndarray | None = None) -> np.ndarray:
    """(m^d,) worst case over initial data of the energy ratio
    E(N dt) / E(0), N = ceil(T / dt), per Bloch wavenumber.

    The Bloch modes are orthogonal in the energy norm, so the worst case
    at wavenumber theta is ||H^1/2 Ghat(theta)^N H^-1/2||_2^2, with H
    the norm on one cell; a propagator that overflows scores inf.  The
    scheme keeps the constants' energy exactly, and keeps data
    H-orthogonal to them H-orthogonal, so theta = 0 (row 0) is measured
    on that data alone; with the constants it would read 1 at every dt.
    """
    if T is None:
        T = certification_horizon(prob)
    if symbols is None:
        symbols = bloch_symbols(prob)
    n_steps = max(1, math.ceil(T / dt))
    h = np.sqrt(prob.hw.ravel()[:symbols.shape[-1]])      # cell 0's norm
    e = h / np.linalg.norm(h)          # the constants, scaled by H^1/2
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.linalg.matrix_power(step_matrix(symbols, dt), n_steps)
        G = h[:, None] * G / h
        G[0] -= np.outer(G[0] @ e, e)
        finite = np.isfinite(G).all(axis=(1, 2))
        ratios = np.full(len(G), np.inf)
        ratios[finite] = np.linalg.norm(G[finite], ord=2, axis=(1, 2)) ** 2
    return ratios


def certify_stable(prob: AdvectionProblem, dt: float,
                   T: float | None = None,
                   symbols: np.ndarray | None = None) -> tuple[bool, float]:
    """(energy at the horizon not above the initial energy for every
    initial datum, worst-case final/initial ratio)."""
    ratio = float(energy_ratios(prob, dt, T, symbols).max())
    return ratio <= 1.0 + 1e-12, ratio


def max_stable_dt(prob: AdvectionProblem, T: float | None = None,
                  dt_init: float = 1e-3, rel_tol: float = 1e-4
                  ) -> float:
    """Largest dt certified stable for all initial data (certify_stable).

    Doubles/halves to bracket the threshold, then golden-section
    shrinks the bracket to the requested relative width, or until the
    bracket has no float strictly inside; returns the certified-stable
    lower edge.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be positive and finite, not {rel_tol}")
    if T is None:
        T = certification_horizon(prob)
    symbols = bloch_symbols(prob)

    def stable(dt: float) -> bool:
        return certify_stable(prob, dt, T=T, symbols=symbols)[0]

    lo = hi = dt_init
    if stable(dt_init):
        while True:
            hi *= 2.0
            if not stable(hi):
                break
            lo = hi
            if hi > 1e6:
                raise RuntimeError("no unstable timestep found")
    else:
        while True:
            lo /= 2.0
            if stable(lo):
                break
            hi = lo
            if lo < 1e-12:
                raise RuntimeError("no stable timestep found")
    while (hi - lo) > rel_tol * lo:
        mid = hi - (hi - lo) / _GOLDEN
        if not lo < mid < hi:
            break
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
