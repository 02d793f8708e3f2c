"""Orbit-layout selection and the two-stage rule search.

A tet rule needs a symmetric triangle rule of degree >= 2p for its faces
(the facet stage, find_facet_rule); a triangle rule takes the 1-D LGL or
LG rule for its edges.  find_rule makes that face rule first, then runs
the volume stage over the layouts volume_search_specs freezes to it.
Both stages draw layouts from one enumerator and solve them in one
restart loop; find_rule logs every solve with its stage, and its budget
caps both stages.

Volume layouts add interior orbit multisets, fewest nodes first, that
have at least as many unknowns as permutation-invariant moments of
degree <= q_v; this reproduces the published minimal node counts
without hand-tuned tables.  Facet layouts are ordered by the volume-node
cost they induce on the tet, and their cheap prefix is deliberately
*not* DOF-filtered, because classical consistent-but-overdetermined
layouts (the 3-point mid-edge degree-2 rule) would otherwise be lost.
"""

from __future__ import annotations

import math
import operator
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .search import (DOMAINS, TOL, QuadratureRule, SearchSpec,
                     floor_residual, lg_rule, lgl_rule, solve_coupled)
from .simplex import _KIND_RANK, orbit_kinds, orbit_size, orbit_structure

__all__ = [
    "FACET_FAMILIES",
    "EDGE_RULES",
    "invariant_moment_count",
    "interior_candidates",
    "facet_layout",
    "volume_search_specs",
    "FacetSearchError",
    "find_facet_rule",
    "FindResult",
    "check_request",
    "find_rule",
]


class FacetSearchError(RuntimeError):
    """No facet rule reachable within the facet-stage search budget."""


#: facet families each domain's search accepts, the default first: 1-D
#: LGL or LG rules on triangle edges, a searched triangle rule ("gen") on
#: tet faces
FACET_FAMILIES = {"tri": ("lgl", "lg"), "tet": ("gen",)}
#: triangle-edge families: the 1-D rule constructor and its fewest nodes;
#: a degree-p operator takes rule(p + fewest)
EDGE_RULES = {"lgl": (lgl_rule, 2), "lg": (lg_rule, 1)}
_FIRST_FAMILY = object()   # find_rule default: FACET_FAMILIES[domain][0]

# triangle orbit -> tet facet orbit when a triangle rule is pushed onto
# the faces of the tet
_TRI_TO_TET_FACE = {
    "Svert": "Svert", "SmidEdge": "SmidEdge", "Sedge": "Sedge",
    "S1": "SfaceCent", "S21": "Sface21", "S111": "Sface111",
}


def invariant_moment_count(q: int, d: int) -> int:
    """Moments of degree <= q surviving full vertex-permutation symmetry.

    Invariant polynomials on the simplex are generated by the elementary
    symmetric polynomials e_2 .. e_{d+1} of the barycentric coordinates
    (degrees 2 .. d+1), so the count is the number of monomials in those
    generators with weighted degree <= q.
    """
    gens = list(range(2, d + 2))

    def count(rem: int, idx: int) -> int:
        if idx == len(gens):
            return 1
        total = 0
        k = 0
        while k * gens[idx] <= rem:
            total += count(rem - k * gens[idx], idx + 1)
            k += 1
        return total

    return count(q, 0)


def _layouts(d: int, kinds, node_cap: int) -> list:
    """(kinds, nodes, unknowns) of every orbit multiset over `kinds` with
    at most node_cap nodes; a kind without parameters appears at most
    once.  Unknowns are the orbit weights plus the orbit parameters.
    Each kind's count comes out of the nodes the earlier kinds left."""
    layouts = [((), 0, 0)]
    for kind in kinds:
        st = orbit_structure(kind, d)
        layouts = [(combo + (kind,) * c, nodes + c * st.size,
                    unknowns + c * (1 + st.n_params))
                   for combo, nodes, unknowns in layouts
                   for c in range(min((node_cap - nodes) // st.size,
                                      node_cap if st.n_params else 1) + 1)]
    return layouts


def interior_candidates(d: int, qv: int, n_facet_orbits: int) -> list:
    """At most 60 interior orbit multisets (tuples of kind names), fewest
    nodes first, whose unknowns with the n_facet_orbits facet weights
    reach invariant_moment_count(qv, d)."""
    need = invariant_moment_count(qv, d)
    # interior kinds rank after every facet kind
    kinds = [k for k in orbit_kinds(d) if _KIND_RANK[d, k] >= 10]
    ranked = sorted((nodes, -unknowns, combo) for combo, nodes, unknowns
                    in _layouts(d, kinds, 3 * need + 24)
                    if n_facet_orbits + unknowns >= need)
    return [combo for *_, combo in ranked[:60]]


def _tri_facet_candidates(q: int) -> list:
    """Symmetric triangle layouts of degree q ordered by induced tet cost.

    A triangle orbit induces the nodes of its tet facet orbit: vertex and
    edge orbits are shared between faces, interior facet orbits are not.
    """
    need = invariant_moment_count(q, 2)
    ranked = sorted(
        (sum(orbit_size(_TRI_TO_TET_FACE[k], 3) for k in combo), nodes,
         -unknowns, combo)
        for combo, nodes, unknowns
        in _layouts(2, orbit_kinds(2), 3 * need + 18) if nodes)
    # at high q the cheap prefix is all underdetermined layouts, which
    # only work in special cases like the mid-edge rule; every determined
    # layout after it follows, so high degrees stay reachable
    determined = [combo for _, _, neg_unknowns, combo in ranked[24:]
                  if -neg_unknowns >= need]
    return [combo for *_, combo in ranked[:24]] + determined


def facet_layout(facet_rule: QuadratureRule, d: int):
    """Facet orbit kinds and frozen parameters induced on a d-simplex.

    d=2: decompose the 1-D facet rule into vertex / mid-edge / edge-pair
    orbits (edge pairs at local +/-s freeze Sedge(alpha=(1+s)/2)).
    d=3: push the triangle facet rule's own orbits onto the faces.
    """
    layout: list[tuple[str, tuple[float, ...]]] = []
    if d == 2:
        x = facet_rule.nodes.coords[:, 0]
        tol = 1e-12
        if np.any(np.abs(np.abs(x) - 1.0) <= tol):
            layout.append(("Svert", ()))
        if np.any(np.abs(x) <= tol):
            layout.append(("SmidEdge", ()))
        pos = np.sort(x[(x > tol) & (x < 1.0 - tol)])
        for s in pos:
            layout.append(("Sedge", (float((1.0 + s) / 2.0),)))
        return layout
    if d == 3:
        if facet_rule.signature is None:
            raise ValueError("tet facet rule needs an orbit signature")
        for orb in facet_rule.signature.orbits:
            layout.append((_TRI_TO_TET_FACE[orb.kind], orb.params))
        # canonical order: facet kinds by rank, then params
        layout.sort(key=lambda kp: (_KIND_RANK[3, kp[0]], kp[1]))
        return layout
    raise ValueError("facet layouts exist for d in {2, 3}")


def check_request(domain: str, qv: int, facet_kind: str | None,
                  sweeps: int = 1) -> None:
    """Raise TypeError for a non-integer degree or sweep count, and
    ValueError for an unknown domain, a facet family of another domain, a
    negative degree, degree 0 with a facet family (SBP degree p = 0), or
    fewer than one sweep."""
    qv, sweeps = operator.index(qv), operator.index(sweeps)
    if domain not in FACET_FAMILIES:
        raise ValueError(f"unknown domain {domain!r}; use one of "
                         f"{tuple(FACET_FAMILIES)}")
    if facet_kind not in (None, *FACET_FAMILIES[domain]):
        raise ValueError(f"facet family {facet_kind!r} does not apply to "
                         f"the {domain}; use one of {FACET_FAMILIES[domain]}")
    if qv < (0 if facet_kind is None else 1) or sweeps < 1:
        raise ValueError(f"no {domain} rule of degree {qv} with facet "
                         f"family {facet_kind!r} in {sweeps} sweep(s)")


def volume_search_specs(domain: str, qv: int,
                        facet_rule: QuadratureRule | None):
    """Iterator over the candidate SearchSpecs of a degree-qv rule on
    `domain`, facet orbits frozen to facet_rule (None: interior-only),
    cheapest first, each built when reached; it runs no search.
    """
    d = DOMAINS.index(domain) + 1
    layout = [] if facet_rule is None else facet_layout(facet_rule, d)
    fkinds = tuple(k for k, _ in layout)
    frozen = {i: params for i, (_, params) in enumerate(layout)}
    return (SearchSpec(d, qv, fkinds + tuple(combo), frozen=dict(frozen))
            for combo in interior_candidates(d, qv, len(layout))
            if fkinds + tuple(combo))


# ----------------------------------------------------------------------
# the restart loop shared by both stages, and the stages


@dataclass
class FindResult:
    rule: QuadratureRule | None
    status: str                 # 'ok' | 'budget' | 'exhausted'
    attempts: list
    elapsed: float


class _BudgetSpent(Exception):
    """The wall-clock budget of find_rule ran out."""


@dataclass
class _Run:
    """Attempt log and wall-clock budget of one find_rule call."""

    budget_s: float | None = None
    t0: float = field(default_factory=time.monotonic)
    attempts: list = field(default_factory=list)

    def check_budget(self) -> None:
        """Raise _BudgetSpent once the budget has run out."""
        if (self.budget_s is not None
                and time.monotonic() - self.t0 > self.budget_s):
            raise _BudgetSpent

    def result(self, rule: QuadratureRule | None, status: str) -> FindResult:
        return FindResult(rule, status, self.attempts,
                          time.monotonic() - self.t0)


# The find_rule call in progress.  find_facet_rule is public and takes no
# log or budget, so the facet stage's solves reach those of the call
# through this variable.
_RUN: ContextVar[_Run | None] = ContextVar("sbpquad_find_rule", default=None)


def _solve_layouts(stage: str, specs, sweeps: int, seed: int,
                   **solve_args):
    """Rule of the first converged solve over specs, or None.

    Each layout gets `sweeps` restart seeds, children of
    SeedSequence(seed) taken in order, before the next layout is tried,
    so how many rounds one sweep runs changes no other sweep's seed;
    solve_args go to every solve_coupled call.  A layout with fewer free
    unknowns than invariant moments solves them only in a special
    consistent case, which round zero finds: it gets one round-zero
    solve, from its first sweep's seed, and its other seeds are spent
    unused (screen "count", one record with sweep 0).  A layout whose
    unknowns are all weights is not left to stall at the weight floor:
    when floor_residual shows that no weights on the floor reach
    ||g||_inf <= TOL, it is screened without a solve (screen "floor",
    one record with sweep None) and its seeds are spent unused.  Every
    solve is logged to the find_rule call in progress with the work it
    did (rounds, lma_iterations and pso_iterations) and, when it failed,
    the reason its sweep stopped ("floor" when a swarm round stalled on
    the weight floor, "no convergence" when it ran out of rounds); all
    four are None on a floor-screened record, and the reason is None on
    a converged one.  No solve starts once the budget has run out
    (_BudgetSpent).
    """
    run = _RUN.get() or _Run()
    ss = np.random.SeedSequence(seed)
    for spec in specs:
        unknowns = int(spec.free_mask.sum())
        moments = invariant_moment_count(spec.qv, spec.dim)
        screen = "count" if unknowns < moments else None
        args = dict(solve_args, max_rounds=0) if screen else solve_args
        layout = {"stage": stage, "kinds": list(spec.kinds),
                  "unknowns": unknowns, "moments": moments}
        children = ss.spawn(sweeps)[:1 if screen else sweeps]
        run.check_budget()
        g = floor_residual(spec)
        if g is not None and (np.linalg.norm(g)
                              > math.sqrt(spec.n_moments) * TOL):
            run.attempts.append(dict(layout, sweep=None, converged=False,
                                     residual=float(np.abs(g).max()),
                                     screen="floor", reason=None,
                                     rounds=None, lma_iterations=None,
                                     pso_iterations=None))
            continue
        for sweep, child in enumerate(children):
            run.check_budget()
            res = solve_coupled(spec, np.random.default_rng(child), **args)
            run.attempts.append(dict(layout, sweep=sweep,
                                     converged=res.converged,
                                     residual=res.residual_inf,
                                     screen=screen,
                                     reason=res.message or None,
                                     rounds=res.rounds,
                                     lma_iterations=res.lma_iterations,
                                     pso_iterations=res.pso_iterations))
            if res.converged:
                return res.rule
    return None


def find_facet_rule(p: int, seed: int = 0) -> QuadratureRule:
    """Symmetric triangle rule of degree 2p for the faces of a tet.

    Prefers layouts whose nodes sit at triangle vertices and edges so the
    induced tet volume rule is as small as possible.  Each layout gets 3
    restart seeds and a shorter solve (at most 4 rounds of 25 swarm
    steps) than the volume stage's, until one converges or the budget of
    the find_rule call runs out.  A layout short of unknowns gets one
    round-zero solve instead of 3 sweeps: for p = 1-3 at seeds 0-3 and
    p = 4 at seed 0, no such layout converged on a later sweep.  Before
    any solve, a non-integer p or seed raises TypeError, and p < 1 or a
    negative seed ValueError.
    """
    p, seed = operator.index(p), operator.index(seed)
    if p < 1 or seed < 0:
        raise ValueError(f"need p >= 1 and seed >= 0, not p = {p}, "
                         f"seed = {seed}")
    q = 2 * p
    specs = (SearchSpec(2, q, combo) for combo in _tri_facet_candidates(q))
    rule = _solve_layouts("facet", specs, 3, seed, max_rounds=4,
                          pso_iters=25)
    if rule is None:
        raise FacetSearchError(f"no degree-{q} triangle facet rule found")
    rule.provenance.update(role="tet-facet", seed=seed)
    return rule


def find_rule(domain: str, qv: int, facet_kind: str | None = _FIRST_FAMILY,
              seed: int = 0, sweeps: int = 5,
              budget_s: float | None = None) -> FindResult:
    """Search for a rule: the face rule, then volume layouts by size.

    The face rule of SBP degree p = (qv + 1) // 2 is the EDGE_RULES rule
    of p + fewest nodes on the triangle and find_facet_rule(p, seed) on
    the tet; the rule returned carries it as facet_rule, with facet_kind
    and sbp_p (all None for an interior-only rule).  Each volume layout,
    fewest nodes first, gets `sweeps` restart seeds before the next, so
    the returned rule has the smallest reachable node count.  facet_kind
    defaults to the domain's first FACET_FAMILIES entry; None asks for
    an interior-only rule.  The attempt log holds the facet stage's
    solves, stage "facet", before the volume stage's, stage "volume".
    Deterministic for fixed arguments; budget_s caps both stages' wall
    time (None: no cap).  Before any search, a non-integer qv, seed or
    sweeps raises TypeError, and a request check_request rejects, a
    negative seed or a NaN or negative budget_s raises ValueError.
    """
    if facet_kind is _FIRST_FAMILY and domain in FACET_FAMILIES:
        facet_kind = FACET_FAMILIES[domain][0]
    qv, seed, sweeps = map(operator.index, (qv, seed, sweeps))
    check_request(domain, qv, facet_kind, sweeps)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")
    if budget_s is not None and not budget_s >= 0.0:
        raise ValueError(f"budget_s must be None or at least 0, "
                         f"not {budget_s!r}")
    p = None if facet_kind is None else (qv + 1) // 2
    run = _Run(budget_s)
    token = _RUN.set(run)
    try:
        if facet_kind in EDGE_RULES:
            edge_rule, fewest = EDGE_RULES[facet_kind]
            frule = edge_rule(p + fewest)
        else:
            frule = None if p is None else find_facet_rule(p, seed=seed)
        rule = _solve_layouts("volume", volume_search_specs(
            domain, qv, frule), sweeps, seed)
    except FacetSearchError as exc:
        run.attempts.append({"stage": "facet", "converged": False,
                             "error": str(exc)})
        return run.result(None, "exhausted")
    except _BudgetSpent:
        return run.result(None, "budget")
    finally:
        _RUN.reset(token)
    if rule is None:
        return run.result(None, "exhausted")
    rule.facet_rule, rule.facet_kind, rule.sbp_p = frule, facet_kind, p
    rule.provenance.update(seed=seed, sweep=run.attempts[-1]["sweep"],
                           n_nodes=rule.n_nodes)
    return run.result(rule, "ok")
