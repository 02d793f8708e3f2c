"""Diagonal-norm, diagonal-E summation-by-parts operators.

Given a symmetric volume rule whose facet nodes are collocated with a
fixed facet rule, the boundary operators E_i are diagonal: each facet
contributes (outward normal component) x (facet-rule weight scaled to
the facet measure) at the matching volume node, with contributions
accumulating at shared vertex/edge nodes.  Q_i = S_i + E_i/2 with S_i
the minimum-norm antisymmetric solution of the degree-p exactness
conditions S_i V_p = H dV_p/dx_i - E_i V_p / 2 (Hicken, Del Rey Fernandez
& Zingg 2016), built in closed form on an orthonormal basis of
range(V_p), and D_i = H^{-1} Q_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (grad_vandermonde, n_basis, simplex_gauss_rule,
                    vandermonde)
from .search import QuadratureRule
from .simplex import facet_restriction, match_points, reference_simplex

__all__ = [
    "SBPConstructionError",
    "FacetOperator",
    "SBPOperator",
    "match_facet_nodes",
    "build_E",
    "build_operator",
    "SBPReport",
    "verify_operator",
]

_ACC_TOL = 1e-11       # max|S_i V_p - rhs_i| allowed, times max(1, max H)
_MATCH_TOL = 1e-9      # facet-rule node to volume node distance allowed


class SBPConstructionError(ValueError):
    """Rule cannot support the requested SBP operator."""


@dataclass
class FacetOperator:
    """Boundary-quadrature data of one facet.

    vol_idx orders the volume nodes on the facet like the facet rule's
    own nodes; weights are the facet-rule weights scaled to the facet
    measure of the reference element.
    """

    facet_id: int
    vol_idx: np.ndarray
    weights: np.ndarray
    normal: np.ndarray


@dataclass
class SBPOperator:
    rule: QuadratureRule
    p: int
    H: np.ndarray                  # (n,) diagonal norm = rule weights
    E: list[np.ndarray]            # d diagonals, (n,) each
    Q: list[np.ndarray]            # d dense (n, n)
    D: list[np.ndarray]
    S: list[np.ndarray]
    facets: list[FacetOperator]

    @property
    def dim(self) -> int:
        return self.rule.dim

    @property
    def n_nodes(self) -> int:
        return self.rule.n_nodes


def match_facet_nodes(rule: QuadratureRule, facet_id: int
                      ) -> FacetOperator:
    """Pair the facet rule's nodes with the volume nodes on one facet."""
    facet = reference_simplex(rule.dim).facets[facet_id]
    idx, local = facet_restriction(rule.nodes, facet_id)
    if rule.dim == 1:
        if idx.size != 1:
            raise SBPConstructionError(
                "interval rule lacks a boundary node (need LGL-type)")
        return FacetOperator(facet_id, idx, np.array([1.0]),
                             facet.normal.copy())
    frule = rule.facet_rule
    if frule is None:
        raise SBPConstructionError("rule carries no facet rule")
    if idx.size != frule.n_nodes:
        raise SBPConstructionError(
            f"facet {facet_id} holds {idx.size} volume node(s), not the "
            f"facet rule's {frule.n_nodes}")
    k, ok = match_points(frule.nodes.coords, local, _MATCH_TOL)
    if not ok:
        raise SBPConstructionError(
            f"facet {facet_id}: volume nodes miss the facet-rule nodes")
    scale = facet.measure / reference_simplex(rule.dim - 1).measure
    return FacetOperator(facet_id, idx[k],
                         frule.nodes.weights * scale, facet.normal.copy())


def build_E(rule: QuadratureRule):
    """Diagonal boundary operators; returns (diagonals, facet data)."""
    d = rule.dim
    n = rule.n_nodes
    facets = [match_facet_nodes(rule, f) for f in range(d + 1)]
    E = [np.zeros(n) for _ in range(d)]
    for fop in facets:
        for i in range(d):
            np.add.at(E[i], fop.vol_idx, fop.normal[i] * fop.weights)
    return E, facets


def _solve_antisymmetric(Vp: np.ndarray, rhs: np.ndarray):
    """Minimum-norm antisymmetric S_i with S_i Vp ~= rhs_i, in closed form.

    With U an orthonormal basis of range(Vp) and C_i = rhs_i Vp^+ U, the
    conditions fix S_i U = C_i, and the minimum-norm S_i vanishes on
    range(Vp)^perp x range(Vp)^perp: S_i = X_i - X_i^T with
    X_i = (C_i - U U^T C_i / 2) U^T.  rhs stacks the d directions.
    """
    U, s, Wt = np.linalg.svd(Vp, full_matrices=False)
    # drop modes below lstsq's default cutoff: a rank-deficient Vp then
    # leaves a finite defect for the gate, not a division by zero
    r = int((s > s[0] * max(Vp.shape) * np.finfo(float).eps).sum())
    U, C = U[:, :r], rhs @ (Wt[:r].T / s[:r])
    X = (C - 0.5 * U @ (U.T @ C)) @ U.T
    S = X - X.transpose(0, 2, 1)
    return list(S), float(np.abs(S @ Vp - rhs).max())


def build_operator(rule: QuadratureRule, p: int | None = None
                   ) -> SBPOperator:
    """Build H, E_i, Q_i, D_i of degree p from a compatible rule."""
    d = rule.dim
    if p is None:
        p = rule.sbp_p if rule.sbp_p is not None else (rule.qv + 1) // 2
    if p < 1:
        raise SBPConstructionError(f"operator degree p = {p} < 1")
    if rule.qv < 2 * p - 1:
        raise SBPConstructionError(
            f"volume degree {rule.qv} < 2p-1 = {2 * p - 1}")
    if d >= 2 and rule.facet_rule is not None and \
            rule.facet_rule.qv < 2 * p:
        raise SBPConstructionError(
            f"facet degree {rule.facet_rule.qv} < 2p = {2 * p}")
    w = rule.nodes.weights
    if not (np.isfinite(w).all() and w.min() > 0):
        raise SBPConstructionError("norm entry not finite and positive")
    E, facets = build_E(rule)
    x = rule.nodes.coords
    H = w.copy()
    Vp = vandermonde(x, p, d, check=False)
    Vx = grad_vandermonde(x, p, d, check=False)
    rhs = H[:, None] * np.array(Vx) - 0.5 * np.array(E)[:, :, None] * Vp
    S, defect = _solve_antisymmetric(Vp, rhs)
    scale = max(float(np.abs(H).max()), 1.0)
    if defect > _ACC_TOL * scale:
        raise SBPConstructionError(
            f"accuracy conditions unsatisfiable (defect {defect:.2e}); "
            f"rule is not SBP-compatible at p={p}")
    Q = [S[i] + 0.5 * np.diag(E[i]) for i in range(d)]
    D = [Q[i] / H[:, None] for i in range(d)]
    return SBPOperator(rule, p, H, E, Q, D, S, facets)


# ----------------------------------------------------------------------
# verification


def _facet_fine_points(rule: QuadratureRule, facet_id: int, degree: int):
    """High-degree quadrature on one facet, mapped to volume coords."""
    elem = reference_simplex(rule.dim)
    facet = elem.facets[facet_id]
    verts = elem.vertices[list(facet.vertex_ids)]
    if rule.dim == 1:
        return verts[0:1].copy(), np.array([facet.measure])
    ref = reference_simplex(rule.dim - 1)
    fp, fw = simplex_gauss_rule(degree, rule.dim - 1)
    return ref.barycentric(fp) @ verts, fw * (facet.measure / ref.measure)


@dataclass
class SBPReport:
    p: int
    n_nodes: int
    min_weight: float
    accuracy_defect: float       # max |D_i V_p - Vx_i|
    accuracy_node: int           # the node (row) where it peaks
    accuracy_node_weight: float  # that node's norm weight
    sbp_defect: float            # max |Q_i + Q_i^T - E_i|
    sbp_defect_rel: float        # relative to max |Q_i|
    e_accuracy_defect: float     # E_i vs boundary integrals, degree-p pairs
    e_trace_defect: float        # max |sum diag E_i|
    facet_degree: int | None
    min_spacing: float

    @property
    def passed(self) -> bool:
        return (self.min_weight > 0.0
                and self.accuracy_defect <= 1e-10
                and self.sbp_defect_rel <= 1e-13
                and self.e_accuracy_defect <= 1e-11
                and self.e_trace_defect <= 1e-12)

    def summary(self) -> str:
        lines = [
            f"degree p                    : {self.p}",
            f"nodes                       : {self.n_nodes}",
            f"min norm weight             : {self.min_weight:.6e}",
            f"accuracy defect |D V - Vx|  : {self.accuracy_defect:.3e}",
            f"  at node, its weight       : {self.accuracy_node}, "
            f"{self.accuracy_node_weight:.6e}",
            f"SBP defect |Q+Q'-E| (rel)   : {self.sbp_defect_rel:.3e}",
            f"E boundary-integral defect  : {self.e_accuracy_defect:.3e}",
            f"E trace defect |sum E_i|    : {self.e_trace_defect:.3e}",
            f"min node spacing            : {self.min_spacing:.4f}",
            f"passed                      : {self.passed}",
        ]
        return "\n".join(lines)


def verify_operator(op: SBPOperator) -> SBPReport:
    """Check the SBP identities; all quantities are max-abs defects."""
    rule = op.rule
    d = op.dim
    x = rule.nodes.coords
    Vp = vandermonde(x, op.p, d, check=False)
    Vx = grad_vandermonde(x, op.p, d, check=False)
    acc = np.max([np.abs(op.D[i] @ Vp - Vx[i]).max(axis=1)
                  for i in range(d)], axis=0)
    node = int(np.argmax(acc))
    qmax = max(float(np.abs(op.Q[i]).max()) for i in range(d))
    sbp = max(float(np.abs(op.Q[i] + op.Q[i].T - np.diag(op.E[i])).max())
              for i in range(d))
    trace = max(float(abs(op.E[i].sum())) for i in range(d))
    # E against exact boundary integrals of degree-p basis pairs
    nb = n_basis(op.p, d)
    exact = np.zeros((d, nb, nb))
    for f in range(d + 1):
        pts, w = _facet_fine_points(rule, f, 2 * op.p + 2)
        Vf = vandermonde(pts, op.p, d, check=False)
        normal = reference_simplex(d).facets[f].normal
        G = Vf.T @ (w[:, None] * Vf)
        for i in range(d):
            exact[i] += normal[i] * G
    e_acc = max(
        float(np.abs(Vp.T @ (op.E[i][:, None] * Vp) - exact[i]).max())
        for i in range(d))
    return SBPReport(
        p=op.p, n_nodes=op.n_nodes,
        min_weight=float(op.H.min()),
        accuracy_defect=float(acc[node]),
        accuracy_node=node,
        accuracy_node_weight=float(op.H[node]),
        sbp_defect=sbp,
        sbp_defect_rel=sbp / qmax if qmax > 0 else sbp,
        e_accuracy_defect=e_acc,
        e_trace_defect=trace,
        facet_degree=(rule.facet_rule.qv if rule.facet_rule is not None
                      else None),
        min_spacing=rule.min_spacing(),
    )
