"""Symmetric quadrature search: moment residual, LMA, PSO, coupling.

A candidate rule is a design vector tau = [orbit parameters..., orbit
weights...] over a fixed list of symmetry orbits.  The residual is the
moment mismatch g = V^T w - f against the orthonormal basis of degree
q_v, so g = 0 with positive weights is a quadrature rule.

The solver couples a damped Levenberg-Marquardt iteration (with a
positivity-preserving step rescale) and a particle swarm over the free
entries of tau; facet-orbit parameters can be frozen so facet nodes stay
collocated with a fixed facet rule, which is what the SBP construction
requires.  One residual evaluation scores the whole swarm: the nodes of
every particle go through one vandermonde call (swarm_objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import integral_vector, vandermonde, grad_vandermonde, n_basis
from .simplex import (CLOSURE_TOL, DUPLICATE_TOL, GroupSignature, NodeSet,
                      NodeSetError, SymmetryOrbit, assemble_nodes,
                      min_node_spacing, node_set_is_symmetric,
                      orbit_structure, pairwise_distances, reference_simplex)

__all__ = [
    "EPS_WEIGHT",
    "InfeasibleDesignError",
    "QuadratureRule",
    "RuleValidationError",
    "validate_rule",
    "lgl_rule",
    "lg_rule",
    "SearchSpec",
    "random_design",
    "residual_and_jacobian",
    "nnls",
    "floor_residual",
    "lma_step",
    "apply_update_with_positivity",
    "LmaState",
    "lma_solve",
    "SwarmState",
    "init_swarm",
    "pso_step",
    "SearchResult",
    "solve_coupled",
]

#: random_design and the LMA steps keep weights at or above this floor;
#: pso_step resets only weights <= 0 to it, so swarm weights may be below.
#: A sweep ends at the first swarm round whose LMA polish stalls with a
#: weight on the floor (solve_coupled)
EPS_WEIGHT = 1e-4
#: a design solves its moments once ||g||_inf <= TOL
TOL = 5e-14
#: particles per swarm; velocity weights of the inertia, of the pull to
#: a particle's own best and of the pull to the swarm's best
N_PARTICLES = 20
INERTIA, COGNITIVE, SOCIAL = 0.6, 1.5, 1.5
#: LMA damping factors on an accepted and a rejected step, the damping
#: cap, and the rejected steps one iteration may try
NU_DEC, NU_INC, NU_MAX = 0.2, 5.0, 1e18
MAX_REJECTS = 30
#: the damping an LMA solve starts from, and its iteration cap
NU_INIT, LMA_ITERS = 1e3, 100
#: random designs keep their free orbit nodes this far from the boundary
MARGIN = 0.025

#: the reference simplex of dimension d is domain DOMAINS[d - 1]
DOMAINS = ("interval", "tri", "tet")


class InfeasibleDesignError(ValueError):
    """Design vector leaves the feasible region (nodes leave the element)."""


class RuleValidationError(ValueError):
    """A candidate rule violates the quadrature-rule invariants."""


# ----------------------------------------------------------------------
# quadrature rules


@dataclass
class QuadratureRule:
    """A quadrature rule on a reference simplex.

    For symmetric 2-D/3-D rules the orbit signature is the source of
    truth and `nodes` is its expansion; 1-D rules carry nodes directly.
    `facet_rule`, which find_rule sets, links the facet rule whose nodes
    are collocated with this rule's facet nodes (SBP mode).
    """

    domain: str
    qv: int
    nodes: NodeSet
    signature: GroupSignature | None = None
    facet_rule: "QuadratureRule | None" = None
    facet_kind: str | None = None
    sbp_p: int | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.nodes.dim

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def residual_inf(self) -> float:
        V = vandermonde(self.nodes.coords, self.qv, self.dim, check=False)
        g = V.T @ self.nodes.weights - integral_vector(self.qv, self.dim)
        return float(np.abs(g).max())

    def min_spacing(self) -> float:
        return min_node_spacing(self.nodes)


def validate_rule(rule: QuadratureRule, res_tol: float = 1e-12) -> None:
    """Check the rule invariants; raises RuleValidationError on failure."""
    w = rule.nodes.weights
    if not w.min() > 0.0:  # NaN fails too
        raise RuleValidationError(f"nonpositive weight {w.min():.3e}")
    elem = reference_simplex(rule.dim)
    if abs(w.sum() - elem.measure) > 1e-12 * elem.measure:
        raise RuleValidationError("weights do not sum to the element measure")
    res = rule.residual_inf()
    if not res <= res_tol:
        raise RuleValidationError(f"moment residual {res:.3e} > {res_tol:g}")
    if rule.nodes.bary.min() < -CLOSURE_TOL:
        raise RuleValidationError("node outside the closed element")
    if rule.dim >= 2:
        if not node_set_is_symmetric(rule.nodes):
            raise RuleValidationError("node set is not fully symmetric")
    if rule.n_nodes >= 2 and min_node_spacing(rule.nodes) < 10 * DUPLICATE_TOL:
        raise RuleValidationError("coincident nodes")


# ----------------------------------------------------------------------
# 1-D facet rules


def _interval_nodeset(x: np.ndarray, w: np.ndarray) -> NodeSet:
    lam = np.column_stack([(1.0 - x) / 2.0, (1.0 + x) / 2.0])
    return NodeSet(coords=x[:, None].copy(), weights=w.copy(), bary=lam,
                   orbit_index=np.full(x.size, -1, dtype=int), dim=1)


def _symmetrize_1d(x: np.ndarray, w: np.ndarray):
    # enforce exact +/- pairing so orbit extraction sees clean pairs
    xs = 0.5 * (x - x[::-1])
    ws = 0.5 * (w + w[::-1])
    return xs, ws


def lgl_rule(n: int) -> QuadratureRule:
    """Legendre-Gauss-Lobatto rule with n nodes on [-1, 1], degree 2n-3."""
    if n < 2:
        raise ValueError("LGL needs at least 2 nodes")
    pn1 = np.polynomial.legendre.Legendre.basis(n - 1)
    interior = np.sort(np.real(pn1.deriv().roots()))
    x = np.concatenate([[-1.0], interior, [1.0]])
    leg = np.polynomial.legendre.legval(
        x, [0.0] * (n - 1) + [1.0])
    w = 2.0 / (n * (n - 1) * leg ** 2)
    x, w = _symmetrize_1d(x, w)
    x[0], x[-1] = -1.0, 1.0
    rule = QuadratureRule("interval", 2 * n - 3,
                          _interval_nodeset(x, w), facet_kind="lgl",
                          provenance={"method": "lgl", "n": n})
    return rule


def lg_rule(n: int) -> QuadratureRule:
    """Legendre-Gauss rule with n nodes on (-1, 1), degree 2n-1."""
    if n < 1:
        raise ValueError("LG needs at least 1 node")
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = _symmetrize_1d(x, w)
    return QuadratureRule("interval", 2 * n - 1, _interval_nodeset(x, w),
                          facet_kind="lg",
                          provenance={"method": "lg", "n": n})


# ----------------------------------------------------------------------
# search specification / design vectors


@dataclass(eq=False)
class SearchSpec:
    """Fixed orbit layout for one search.

    kinds lists the orbit kinds in order (facet orbits first); frozen
    maps orbit index -> fixed parameter values (facet orbits in SBP
    mode).  All orbit weights are always free.  The rules it builds
    carry no facet rule: find_rule stamps that on the rule it returns.
    """

    dim: int
    qv: int
    kinds: tuple[str, ...]
    frozen: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        elem = reference_simplex(self.dim)
        structs = [orbit_structure(k, self.dim) for k in self.kinds]
        off = 0
        pslices = []
        for st in structs:
            pslices.append(slice(off, off + st.n_params))
            off += st.n_params
        self._structs = structs
        self.param_slices = pslices
        self.n_params = off
        self.n_orbits = len(structs)
        self.n_tau = off + self.n_orbits
        self.weight_slice = slice(off, self.n_tau)
        sizes = [st.size for st in structs]
        self.n_nodes = int(sum(sizes))
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.node_starts = starts            # len n_orbits + 1
        free = np.ones(self.n_tau, dtype=bool)
        for i in self.frozen:
            free[pslices[i]] = False
        self.free_mask = free
        # stacked affine expansion: bary = base + dbary @ tau_params
        m = self.dim + 1
        base = np.vstack([st.base for st in structs])
        dbary = np.zeros((self.n_nodes, m, self.n_params))
        for i, st in enumerate(structs):
            rows = slice(starts[i], starts[i + 1])
            dbary[rows, :, pslices[i]] = st.coeff
        self._base = base
        self._dbary = dbary
        # node derivative w.r.t. parameters, cartesian: (n, P, d)
        self._dx = np.tensordot(dbary, elem.vertices, axes=(1, 0))
        self._f = integral_vector(self.qv, self.dim)
        self._elem = elem

    @property
    def n_moments(self) -> int:
        return n_basis(self.qv, self.dim)

    def frozen_template(self) -> np.ndarray:
        """tau with frozen parameters filled in, everything else zero."""
        tau = np.zeros(self.n_tau)
        for i, params in self.frozen.items():
            tau[self.param_slices[i]] = params
        return tau

    def expand_stack(self, taus: np.ndarray):
        """(bary, coords, node_weights, feasible) of a stack of designs,
        shape (n_c, n_tau); feasible marks the rows whose nodes all stay
        in the closed element."""
        bary = self._base + (self._dbary
                             @ taus[:, None, :self.n_params, None])[..., 0]
        feasible = ~((bary.min(axis=(1, 2)) < -CLOSURE_TOL)
                     | (bary.max(axis=(1, 2)) > 1.0 + CLOSURE_TOL))
        coords = bary @ self._elem.vertices
        w = np.repeat(taus[:, self.weight_slice], np.diff(self.node_starts),
                      axis=1)
        return bary, coords, w, feasible

    def expand(self, tau: np.ndarray):
        """(bary, coords, node_weights) of a design; raises when
        any node leaves the closed element."""
        bary, coords, w, feasible = self.expand_stack(tau[None])
        if not feasible[0]:
            raise InfeasibleDesignError("nodes leave the element")
        return bary[0], coords[0], w[0]

    def build_rule(self, tau: np.ndarray, provenance: dict | None = None
                   ) -> QuadratureRule:
        """Resolve tau into a validated QuadratureRule."""
        orbits = []
        for i, kind in enumerate(self.kinds):
            params = tuple(float(v) for v in tau[self.param_slices[i]])
            wt = float(tau[self.n_params + i])
            orbits.append(SymmetryOrbit(kind, params, wt))
        sig = GroupSignature(self.dim, tuple(orbits),
                             self.qv).canonically_ordered()
        nodes = assemble_nodes(sig)
        rule = QuadratureRule(DOMAINS[self.dim - 1], self.qv, nodes,
                              signature=sig, provenance=provenance or {})
        validate_rule(rule)
        return rule


def random_design(spec: SearchSpec, rng: np.random.Generator) -> np.ndarray:
    """Random feasible design: interior orbit parameters uniform in the
    feasible box shrunk by MARGIN away from the boundary, weights uniform
    in (0, 2|Omega|/n_nodes] and at least EPS_WEIGHT.  Each orbit keeps
    the first of 200 draws that passes, or the last.  A facet orbit
    (Sedge, Sface21, Sface111) has a coordinate fixed at 0, which no draw
    passes, so it takes its 200th draw without the loop."""
    tau = spec.frozen_template()
    for i, st in enumerate(spec._structs):
        if i in spec.frozen or st.n_params == 0:
            continue
        sl = spec.param_slices[i]
        fixed = st.base[~st.coeff.any(axis=2)]
        if ((fixed < MARGIN) | (fixed > 1.0 - MARGIN)).any():
            tau[sl] = rng.random((200, st.n_params))[-1]
            continue
        ok = False
        for _ in range(200):
            theta = rng.random(st.n_params)
            bary = st.base + st.coeff @ theta
            if bary.min() < MARGIN or bary.max() > 1.0 - MARGIN:
                continue
            if pairwise_distances(bary).min() < 1e-3:
                continue
            tau[sl] = theta
            ok = True
            break
        if not ok:
            tau[sl] = theta  # last draw; solver will sort it out
    wmax = 2.0 * spec._elem.measure / spec.n_nodes
    tau[spec.weight_slice] = np.maximum(
        rng.random(spec.n_orbits) * wmax, EPS_WEIGHT)
    return tau


# ----------------------------------------------------------------------
# residual and jacobian


def _moments(spec: SearchSpec, coords: np.ndarray, w: np.ndarray):
    """V (..., n_nodes, n_moments) and g = V^T w - f (..., n_moments) of
    one expanded design, coords (n_nodes, d), or of a stack of them,
    coords (n_c, n_nodes, d), from one vandermonde call.  g is a
    (stacked) row-vector matmul, which sums each design in the order of
    V^T w for that design alone."""
    V = vandermonde(coords.reshape(-1, spec.dim), spec.qv, spec.dim,
                    check=False).reshape(coords.shape[:-1] + (-1,))
    return V, (w[..., None, :] @ V)[..., 0, :] - spec._f


def residual_and_jacobian(spec: SearchSpec, tau: np.ndarray):
    """Residual and its Jacobian w.r.t. the full tau layout.

    Parameter columns: sum_k Vx_k^T diag(w) dx_k/dtheta; weight columns:
    V^T summed over each orbit's nodes.
    """
    _, coords, w = spec.expand(tau)
    V, g = _moments(spec, coords, w)
    return g, _jacobian(spec, coords, w, V)


def _jacobian(spec: SearchSpec, coords: np.ndarray, w: np.ndarray,
              V: np.ndarray) -> np.ndarray:
    """Jacobian of an expanded design whose V _moments has evaluated."""
    J = np.empty((spec.n_moments, spec.n_tau))
    if spec.n_params:
        Vx = grad_vandermonde(coords, spec.qv, spec.dim, check=False)
        Jp = np.zeros((spec.n_moments, spec.n_params))
        for k in range(spec.dim):
            Jp += Vx[k].T @ (w[:, None] * spec._dx[:, :, k])
        J[:, :spec.n_params] = Jp
    J[:, spec.weight_slice] = np.add.reduceat(
        V, spec.node_starts[:-1], axis=0).T
    return J


# ----------------------------------------------------------------------
# the weight floor of layouts without free parameters


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x >= 0 minimising ||A x - b||_2, by the active-set method of
    Lawson & Hanson (1974).

    Each outer step frees the bound entry with the largest gradient
    A^T (b - A x) and solves least squares on the free entries; while
    that solution has a nonpositive entry, x moves toward it as far as
    positivity allows and the entry that reaches zero is bound again.
    Gradients within rounding of ||A||_1 count as zero.  At most 3n outer
    steps, as scipy.optimize.nnls.
    """
    m, n = A.shape
    eps = np.finfo(float).eps
    tol = 10.0 * max(m, n) * eps * np.abs(A).sum(axis=0).max(initial=0.0)
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        grad = np.where(free, -np.inf, A.T @ (b - A @ x))
        if free.all() or grad.max() <= tol:
            break
        free[np.argmax(grad)] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
            if (z[free] > 0.0).all():
                break
            ratio = np.full(n, np.inf)
            neg = free & (z <= 0.0)
            # x = z = 0, the entry freed last, gives ratio 0, not 0/0
            ratio[neg] = x[neg] / np.maximum(x[neg] - z[neg], eps * eps)
            k = int(np.argmin(ratio))
            x += ratio[k] * (z - x)
            free &= x > 0.0
            free[k] = False
            x[~free] = 0.0
        x = z
    return x


def floor_residual(spec: SearchSpec) -> np.ndarray | None:
    """Moment residual g of the least-squares weights at or above
    EPS_WEIGHT of a layout whose parameters are all frozen or absent;
    None for a layout with free parameters.

    Such a layout's residual is linear in the weights, g = A w - f, with
    A the vandermonde rows at its fixed nodes summed over each orbit.  So
    no weights on the floor reach a smaller ||g||_2: nnls on the shifted
    weights w - EPS_WEIGHT decides the layout in one solve.
    """
    if spec.free_mask[:spec.n_params].any():
        return None
    tau = spec.frozen_template()
    tau[spec.weight_slice] = EPS_WEIGHT
    _, coords, w = spec.expand(tau)
    V, g = _moments(spec, coords, w)
    A = np.add.reduceat(V, spec.node_starts[:-1], axis=0).T
    return g + A @ nnls(A, -g)


# ----------------------------------------------------------------------
# Levenberg-Marquardt


def lma_step(g: np.ndarray, J: np.ndarray, free_mask: np.ndarray,
             nu: float | np.ndarray) -> np.ndarray:
    """One damped step on the free entries; frozen entries get zero.

    h = -pinv(J~^T J~ + nu diag(J~^T J~)) J~^T g with singular values
    below 1e-12 of the largest truncated, so rank-deficient (symmetric
    or underdetermined) systems produce the minimum-norm step.  For a
    1-D array of dampings nu, one stacked pinv solves every damped
    system and h has one row per damping, each the step of that damping
    alone.
    """
    nu = np.asarray(nu)
    Jf = J[:, free_mask]
    JtJ = Jf.T @ Jf
    A = JtJ + nu[..., None, None] * np.diag(np.diag(JtJ))
    rhs = Jf.T @ g
    hf = -np.linalg.pinv(A, rcond=1e-12, hermitian=True) @ rhs
    h = np.zeros(nu.shape + free_mask.shape)
    h[..., free_mask] = hf
    return h


def apply_update_with_positivity(spec: SearchSpec, tau: np.ndarray,
                                 h: np.ndarray) -> np.ndarray:
    """tau + eta*h with eta shrunk so no weight crosses the floor eps =
    EPS_WEIGHT; for a stack of steps h (n, n_tau), one row per step, each
    with its own eta.

    eta = min over entries that would land below eps of (eps - w_i)/h_i,
    which parks the worst offender exactly at the floor.  Keeping all
    weights >= eps (not merely positive) is what rejects layouts whose
    only solutions have vanishing weights: their residual stalls at the
    floor and the search moves to the next candidate.  A weight already
    below the floor (a swarm design may hold one) gets eta = 0 on every
    step that lowers it, so such a step returns tau unchanged; lma_solve
    rejects those trials without scoring them.  A layout whose unknowns
    are all weights is not left to stall: floor_residual tells before
    any solve whether weights on the floor can solve it.
    """
    ws = spec.weight_slice
    w = tau[ws]
    hw = h[..., ws]
    viol = w + hw < EPS_WEIGHT
    if not viol.any():              # eta = 1 on every row
        return tau + h
    ratio = np.divide(EPS_WEIGHT - w, hw, out=np.full(hw.shape, np.inf),
                      where=viol)
    eta = ratio.min(axis=-1, keepdims=True)
    # clamp to [0, 1] as min(1, max(0, eta)) does: a ratio of -0.0 (a
    # weight parked on the floor) or NaN gives +0.0
    eta = np.where(eta > 0.0, eta, 0.0)
    eta = np.where(eta < 1.0, eta, 1.0)
    return tau + eta * h


@dataclass
class LmaState:
    tau: np.ndarray
    nu: float
    res_inf: float
    iterations: int
    converged: bool
    message: str = ""


def _damped_trials(spec: SearchSpec, tau: np.ndarray, g: np.ndarray,
                   J: np.ndarray, nu: float):
    """Yield, for each damping trial of one LMA iteration in order, the
    trial design, its residual (None where it leaves the element) and
    the (coords, w, V) that scored it.

    The trials' dampings are nu and its products by NU_INC capped at
    NU_MAX, MAX_REJECTS in all, as the rejection loop raises nu.  The
    first trial is solved and scored alone; the rest, which only a
    rejected first trial asks for, in one stacked lma_step, positivity
    guard and _moments call.  A trial equal to tau (a weight below the
    floor blocks its step, or the step is below rounding) gets g
    unscored, so it cannot pass ||g_try|| < ||g||.
    """
    ladder = [nu]
    for _ in range(MAX_REJECTS - 1):
        ladder.append(min(ladder[-1] * NU_INC, NU_MAX))
    for nus in (ladder[:1], ladder[1:]):
        taus = apply_update_with_positivity(
            spec, tau, lma_step(g, J, spec.free_mask, nus))
        _, coords, w, feasible = spec.expand_stack(taus)
        moved = feasible & (taus != tau).any(axis=1)
        if moved.any():
            scored = zip(*_moments(spec, coords[moved], w[moved]))
        for k, tau_try in enumerate(taus):
            if not feasible[k]:
                yield tau_try, None, None
            elif not moved[k]:
                yield tau, g, None
            else:
                V, g_try = next(scored)
                yield tau_try, g_try, (coords[k], w[k], V)


def lma_solve(spec: SearchSpec, tau0: np.ndarray) -> LmaState:
    """Damped LMA from tau0 until ||g||_inf <= TOL or LMA_ITERS
    iterations.

    The damping nu starts at NU_INIT, shrinks by NU_DEC on residual
    decrease and grows by NU_INC on a rejected step; infeasible
    proposals are rejected the same way.  Once the
    first trial of an iteration is rejected, the rest of its damping
    ladder is solved and scored in one stacked evaluation
    (_damped_trials), and the loop walks those outcomes in order.  A
    design entering with a weight below the floor gets eta = 0 on every
    step that lowers that weight; such a trial leaves tau unchanged and
    is rejected without scoring.  The next Jacobian is built from the
    basis values that scored the accepted design.
    """
    tau = np.asarray(tau0, dtype=float).copy()
    try:
        _, coords, w = spec.expand(tau)
    except InfeasibleDesignError:
        return LmaState(tau, NU_INIT, np.inf, 0, False, "infeasible start")
    V, g = _moments(spec, coords, w)
    nu = NU_INIT
    it = 0
    while it < LMA_ITERS:
        res_inf = float(np.abs(g).max())
        if res_inf <= TOL:
            return LmaState(tau, nu, res_inf, it, True)
        J = _jacobian(spec, coords, w, V)
        gnorm = float(np.linalg.norm(g))
        accepted = False
        for tau_try, g_try, basis in _damped_trials(spec, tau, g, J, nu):
            if g_try is None:
                nu = min(nu * NU_INC, NU_MAX)
                continue
            if np.linalg.norm(g_try) < gnorm:
                tau, g, (coords, w, V) = tau_try, g_try, basis
                nu = max(nu * NU_DEC, 1e-300)
                accepted = True
                break
            nu = min(nu * NU_INC, NU_MAX)
            if nu >= NU_MAX:
                break
        it += 1
        if not accepted:
            return LmaState(tau, nu, float(np.abs(g).max()), it, False,
                            "stalled")
    res_inf = float(np.abs(g).max())
    return LmaState(tau, nu, res_inf, it, res_inf <= TOL, "iteration cap")


# ----------------------------------------------------------------------
# particle swarm


@dataclass
class SwarmState:
    positions: np.ndarray      # (n_c, n_tau)
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_obj: np.ndarray      # (n_c,)
    gbest_pos: np.ndarray
    gbest_obj: float


def swarm_objective(spec: SearchSpec, taus: np.ndarray) -> np.ndarray:
    """0.5 ||g||^2 of every design in a stack (n_c, n_tau), +inf for the
    rows whose nodes leave the element.

    The feasible rows share one _moments call, which residual makes for
    one design.  Both reductions are stacked matmuls, which sum each row
    in the order of V^T w and g @ g for that row alone (einsum reorders
    them).
    """
    _, coords, w, feasible = spec.expand_stack(taus)
    obj = np.full(len(taus), np.inf)
    if feasible.any():
        _, g = _moments(spec, coords[feasible], w[feasible])
        obj[feasible] = 0.5 * (g[:, None, :] @ g[:, :, None])[:, 0, 0]
    return obj


def init_swarm(spec: SearchSpec, rng: np.random.Generator,
               seeds: tuple[np.ndarray, ...] = ()) -> SwarmState:
    pos = np.empty((N_PARTICLES, spec.n_tau))
    for i in range(N_PARTICLES):
        pos[i] = random_design(spec, rng)
    for i, tau in enumerate(seeds[:N_PARTICLES]):
        pos[i] = tau
    obj = swarm_objective(spec, pos)
    best = int(np.argmin(obj))
    return SwarmState(pos, np.zeros_like(pos), pos.copy(), obj.copy(),
                      pos[best].copy(), float(obj[best]))


def _record_best(swarm: SwarmState, idx: np.ndarray, taus: np.ndarray,
                 objs: np.ndarray) -> None:
    """Make taus[k] particle idx[k]'s personal best where it improves on
    it, and the lowest of those (the first on a tie) the global best
    where it improves on that.  The global best is never worse than a
    personal best, so it can only improve where a particle's does."""
    better = objs < swarm.pbest_obj[idx]
    idx, taus, objs = idx[better], taus[better], objs[better]
    swarm.pbest_obj[idx] = objs
    swarm.pbest_pos[idx] = taus
    if objs.size:
        k = int(np.argmin(objs))
        if objs[k] < swarm.gbest_obj:
            swarm.gbest_obj = float(objs[k])
            swarm.gbest_pos = taus[k].copy()


def pso_step(spec: SearchSpec, swarm: SwarmState,
             rng: np.random.Generator) -> None:
    """One swarm update on the free entries of every particle."""
    free = spec.free_mask
    n_c = swarm.positions.shape[0]
    nf = int(free.sum())
    r1 = rng.random((n_c, nf))
    r2 = rng.random((n_c, nf))
    pos_f = swarm.positions[:, free]
    vel_f = swarm.velocities[:, free]
    vel_f = (INERTIA * vel_f
             + COGNITIVE * r1 * (swarm.pbest_pos[:, free] - pos_f)
             + SOCIAL * r2 * (swarm.gbest_pos[free] - pos_f))
    pos_f = pos_f + vel_f
    swarm.positions[:, free] = pos_f
    swarm.velocities[:, free] = vel_f
    # absorbing floor for weights
    ws = spec.weight_slice
    wview = swarm.positions[:, ws]
    bad = wview <= 0.0
    if bad.any():
        wview[bad] = EPS_WEIGHT
        swarm.velocities[:, ws][bad] = 0.0
    _record_best(swarm, np.arange(n_c), swarm.positions,
                 swarm_objective(spec, swarm.positions))


# ----------------------------------------------------------------------
# coupled driver


@dataclass
class SearchResult:
    rule: QuadratureRule | None
    converged: bool
    residual_inf: float
    rounds: int
    lma_iterations: int
    pso_iterations: int
    message: str = ""
    best_tau: np.ndarray | None = None


def _converged_rule(spec: SearchSpec, state: LmaState):
    """The validated rule of a converged LMA state, or None when it fails
    validation."""
    try:
        return spec.build_rule(state.tau, {"qv": spec.qv,
                                           "residual_inf": state.res_inf})
    except (NodeSetError, RuleValidationError):
        return None


def solve_coupled(spec: SearchSpec, rng: np.random.Generator,
                  max_rounds: int = 10, pso_iters: int = 40) -> SearchResult:
    """Coupled LMA/PSO search for one orbit layout.

    Deterministic for a given (spec, rng state, max_rounds, pso_iters).
    Round zero is a plain LMA solve from a random design; afterwards each
    of up to max_rounds rounds runs pso_iters swarm steps, polishes the
    swarm's global best with LMA and feeds the result back as a particle.
    The swarm's global best never gets worse, so an unconverged search
    reports it (with max_rounds 0, no swarm: round zero's LMA endpoint).
    A converged LMA state is the result as it stands, once its rule
    passes validation; a rule that fails validation leaves the sweep to
    its next round.

    The sweep ends early, with message "floor", after the first swarm
    round whose polish fails with a weight parked on the floor
    EPS_WEIGHT; on a layout whose solutions need vanishing weights the
    later rounds only repeat that stall.  Round zero does not end the
    sweep: its solve may stall on the floor and round one still
    converge.  A sweep that runs out of rounds reports "no
    convergence".
    """
    lma_total = 0
    pso_total = 0

    tau0 = random_design(spec, rng)
    state = lma_solve(spec, tau0)
    lma_total += state.iterations
    if state.converged:
        rule = _converged_rule(spec, state)
        if rule is not None:
            return SearchResult(rule, True, state.res_inf, 0, lma_total,
                                pso_total, best_tau=state.tau)
    if max_rounds <= 0:
        return SearchResult(None, False, state.res_inf, 0, lma_total,
                            pso_total, "no convergence", best_tau=state.tau)

    swarm = init_swarm(spec, rng, seeds=(state.tau, tau0))
    message = "no convergence"
    for rnd in range(1, max_rounds + 1):
        for _ in range(pso_iters):
            pso_step(spec, swarm, rng)
        pso_total += pso_iters
        state = lma_solve(spec, swarm.gbest_pos.copy())
        lma_total += state.iterations
        if state.converged:
            rule = _converged_rule(spec, state)
            if rule is not None:
                return SearchResult(rule, True, state.res_inf, rnd,
                                    lma_total, pso_total,
                                    best_tau=state.tau)
        # feed the LMA endpoint back into the swarm
        obj = swarm_objective(spec, state.tau[None])
        worst = np.argmax(swarm.pbest_obj, keepdims=True)
        swarm.positions[worst] = state.tau
        swarm.velocities[worst] = 0.0
        _record_best(swarm, worst, state.tau[None], obj)
        # the guard parks a stalled weight within rounding of the floor
        if (not state.converged and state.tau[spec.weight_slice].min()
                <= EPS_WEIGHT * (1.0 + 1e-9)):
            message = "floor"
            break
    best = swarm.gbest_obj
    res = math.sqrt(2.0 * best) if np.isfinite(best) else np.inf
    return SearchResult(None, False, res, rnd, lma_total, pso_total,
                        message, best_tau=swarm.gbest_pos.copy())
