"""Interval rules, moment residuals, and the damped least-squares search."""

import copy
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sbpquad import search
from sbpquad.archive import rule_to_dict
from sbpquad.search import (
    EPS_WEIGHT,
    InfeasibleDesignError,
    RuleValidationError,
    SearchSpec,
    SwarmState,
    TOL,
    apply_update_with_positivity,
    floor_residual,
    lg_rule,
    lgl_rule,
    lma_solve,
    lma_step,
    nnls,
    random_design,
    residual_and_jacobian,
    solve_coupled,
    swarm_objective,
    validate_rule,
)
from sbpquad.signatures import EDGE_RULES, find_rule, volume_search_specs

import oracles


# ----------------------------------------------------------------------
# interval rules


def test_lgl_three_nodes():
    rule = lgl_rule(3)
    x_ref, w_ref = oracles.LOBATTO_3
    assert np.allclose(rule.nodes.coords[:, 0], x_ref, atol=1e-15)
    assert np.allclose(rule.nodes.weights, w_ref, atol=1e-15)


def test_lgl_four_nodes():
    rule = lgl_rule(4)
    x_ref, w_ref = oracles.LOBATTO_4
    assert np.allclose(rule.nodes.coords[:, 0], x_ref, atol=1e-14)
    assert np.allclose(rule.nodes.weights, w_ref, atol=1e-14)


def test_lgl_two_nodes_is_trapezoid():
    rule = lgl_rule(2)
    assert np.array_equal(rule.nodes.coords[:, 0], [-1.0, 1.0])
    assert np.allclose(rule.nodes.weights, [1.0, 1.0])
    assert rule.qv == 1


@pytest.mark.parametrize("n", range(2, 8))
def test_lgl_basic_invariants(n):
    rule = lgl_rule(n)
    x = rule.nodes.coords[:, 0]
    w = rule.nodes.weights
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    # exact symmetry after the symmetrization pass
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n", range(3, 8))
def test_lgl_degree_is_sharp(n):
    rule = lgl_rule(n)
    x = rule.nodes.coords[:, 0]
    w = rule.nodes.weights
    q = 2 * n - 3
    assert rule.qv == q
    for k in range(q + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert w @ x ** k == pytest.approx(exact, abs=1e-13)
    # one degree higher must fail: that is what makes the degree sharp
    k = q + 1
    assert abs(w @ x ** k - 2.0 / (k + 1)) > 1e-4


def test_lgl_too_few_nodes():
    with pytest.raises(ValueError):
        lgl_rule(1)


def test_lg_one_node_is_midpoint():
    rule = lg_rule(1)
    assert np.array_equal(rule.nodes.coords[:, 0], [0.0])
    assert np.array_equal(rule.nodes.weights, [2.0])


def test_lg_two_nodes():
    rule = lg_rule(2)
    x_ref, w_ref = oracles.GAUSS_2
    assert np.allclose(rule.nodes.coords[:, 0], x_ref, atol=1e-15)
    assert np.allclose(rule.nodes.weights, w_ref, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_lg_degree_is_sharp(n):
    rule = lg_rule(n)
    x = rule.nodes.coords[:, 0]
    w = rule.nodes.weights
    q = 2 * n - 1
    assert rule.qv == q
    assert np.all(np.abs(x) < 1.0)  # interior nodes only
    for k in range(q + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert w @ x ** k == pytest.approx(exact, abs=1e-13)
    k = q + 1
    assert abs(w @ x ** k - 2.0 / (k + 1)) > 1e-4


@pytest.mark.parametrize("p, n_expected", [(1, 3), (2, 4), (3, 5)])
def test_facet_quadrature_lgl(tri_lgl_results, p, n_expected):
    """find_rule freezes a degree-p LGL request's edges to LGL(p + 2)."""
    rule = tri_lgl_results[2 * p - 1].rule.facet_rule
    assert rule.n_nodes == n_expected
    assert rule.qv >= 2 * p
    x = rule.nodes.coords[:, 0]
    assert x[0] == -1.0 and x[-1] == 1.0


@pytest.mark.parametrize("p, n_expected", [(1, 2), (2, 3), (3, 4)])
def test_facet_quadrature_lg(p, n_expected):
    """find_rule freezes a degree-p LG request's edges to LG(p + 1)."""
    rule = find_rule("tri", 2 * p - 1, "lg").rule.facet_rule
    assert rule.n_nodes == n_expected
    assert rule.qv >= 2 * p
    assert np.all(np.abs(rule.nodes.coords[:, 0]) < 1.0)


def test_facet_quadrature_rejects_unknown_kind():
    with pytest.raises(ValueError):
        find_rule("tri", 2, "chebyshev")
    with pytest.raises(ValueError):
        find_rule("interval", 2, "lgl")


# ----------------------------------------------------------------------
# rule validation


def test_validate_rule_accepts_interval_rules():
    validate_rule(lgl_rule(5))
    validate_rule(lg_rule(4))


def test_validate_rule_negative_weight():
    rule = copy.deepcopy(lgl_rule(4))
    rule.nodes.weights[1] *= -1.0
    with pytest.raises(RuleValidationError, match="weight"):
        validate_rule(rule)


@pytest.mark.parametrize("field", ["weights", "coords"])
def test_validate_rule_rejects_nan(field):
    rule = copy.deepcopy(lgl_rule(4))
    getattr(rule.nodes, field)[1] = np.nan
    with pytest.raises(RuleValidationError):
        validate_rule(rule)


def test_validate_rule_wrong_weight_sum():
    rule = copy.deepcopy(lgl_rule(4))
    rule.nodes.weights[:] = rule.nodes.weights * 1.01
    with pytest.raises(RuleValidationError):
        validate_rule(rule)


def test_validate_rule_moment_residual():
    rule = copy.deepcopy(lgl_rule(4))
    # shifting one interior node breaks exactness but not the weight sum
    rule.nodes.coords[1, 0] += 1e-3
    with pytest.raises(RuleValidationError, match="residual"):
        validate_rule(rule)


def test_validate_rule_asymmetric_nodes(tri_lgl_results):
    rule = copy.deepcopy(tri_lgl_results[2].rule)
    # move one non-centroid node off its orbit (bary sum stays 1)
    spread = rule.nodes.bary.max(axis=1) - rule.nodes.bary.min(axis=1)
    node = int(np.argmax(spread))
    rule.nodes.bary[node] += np.array([2e-3, -1e-3, -1e-3])
    with pytest.raises(RuleValidationError):
        validate_rule(rule, res_tol=1.0)


def test_validate_rule_exterior_node():
    rule = copy.deepcopy(lg_rule(3))
    rule.nodes.coords[2, 0] = 1.5
    rule.nodes.bary[2] = [-0.25, 1.25]
    with pytest.raises(RuleValidationError):
        validate_rule(rule, res_tol=1.0)


# ----------------------------------------------------------------------
# design vectors and residuals


def spec_cases():
    return [
        SearchSpec(2, 2, ("Svert", "SmidEdge", "S1")),
        SearchSpec(2, 4, ("S1", "S21", "S21", "S111")),
        SearchSpec(3, 2, ("SmidEdge", "S1")),
        SearchSpec(3, 3, ("S31", "S31", "S22")),
    ]


@pytest.mark.parametrize("spec", spec_cases(),
                         ids=lambda s: f"d{s.dim}q{s.qv}")
def test_spec_layout_bookkeeping(spec):
    assert spec.n_tau == spec.n_params + spec.n_orbits
    assert spec.node_starts[-1] == spec.n_nodes
    assert spec.free_mask.sum() == spec.n_tau - sum(
        len(spec.frozen.get(i, ())) for i in spec.frozen)
    tau = random_design(spec, np.random.default_rng(0))
    bary, coords, w = spec.expand(tau)
    assert coords.shape == (spec.n_nodes, spec.dim)
    assert w.shape == (spec.n_nodes,)
    assert np.all(w >= EPS_WEIGHT * (1.0 - 1e-12))


@pytest.mark.parametrize("seed", range(5))
def test_random_design_feasible(seed):
    spec = SearchSpec(2, 5, ("S1", "S21", "S111"))
    tau = random_design(spec, np.random.default_rng(seed))
    bary, _, w = spec.expand(tau)  # must not raise
    assert bary.min() > 0.0
    assert np.all(w >= EPS_WEIGHT)


@pytest.mark.parametrize("d, kinds", [
    (2, ("Sedge",)), (2, ("Svert", "Sedge", "S1")), (2, ("S1", "S21", "S111")),
    (3, ("Sedge", "S31")), (3, ("Sface21", "S22")), (3, ("Sface111", "S211"))])
def test_random_design_matches_rejection_loop(d, kinds):
    """A facet orbit's parameters are the last of 200 draws, as the
    rejection loop ends on them; the generator ends where the loop's
    does, so every later draw is the same too."""
    spec = SearchSpec(d, 4, kinds)
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_design(spec, rng),
                              oracles.random_design(spec, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_expand_rejects_exterior_designs():
    spec = SearchSpec(2, 2, ("S21",))
    tau = np.array([0.7, 0.1])  # bary (0.7, 0.7, -0.4)
    with pytest.raises(InfeasibleDesignError):
        spec.expand(tau)
    with pytest.raises(InfeasibleDesignError):
        oracles.residual(spec, tau)


def fd_jacobian(spec, tau, h=1e-7):
    """Central-difference Jacobian over the free design entries."""
    g0 = oracles.residual(spec, tau)
    J = np.zeros((g0.size, spec.n_tau))
    for j in np.flatnonzero(spec.free_mask):
        tp = tau.copy()
        tm = tau.copy()
        tp[j] += h
        tm[j] -= h
        J[:, j] = (oracles.residual(spec, tp)
                   - oracles.residual(spec, tm)) / (2.0 * h)
    return J


@pytest.mark.parametrize("spec", spec_cases(),
                         ids=lambda s: f"d{s.dim}q{s.qv}")
@pytest.mark.parametrize("seed", [3, 11])
def test_jacobian_matches_finite_difference(spec, seed):
    rng = np.random.default_rng(seed)
    tau = random_design(spec, rng)
    g, J = residual_and_jacobian(spec, tau)
    assert np.allclose(g, oracles.residual(spec, tau), atol=0.0)
    fd = fd_jacobian(spec, tau)
    free = spec.free_mask
    scale = max(1.0, np.abs(J[:, free]).max())
    assert np.abs(J[:, free] - fd[:, free]).max() / scale < 1e-6


def test_jacobian_frozen_columns():
    """Frozen facet parameters never receive finite-difference probes,
    but the analytic Jacobian still fills those columns; only the free
    part is ever used by the step."""
    spec = next(volume_search_specs("tri", 3, lgl_rule(4)))
    assert spec.frozen  # LGL facet layouts freeze the edge parameter
    tau = random_design(spec, np.random.default_rng(5))
    _, J = residual_and_jacobian(spec, tau)
    fd = fd_jacobian(spec, tau)
    free = spec.free_mask
    scale = max(1.0, np.abs(J[:, free]).max())
    assert np.abs(J[:, free] - fd[:, free]).max() / scale < 1e-6


# ----------------------------------------------------------------------
# damped steps and the positivity guard


def test_lma_step_zero_residual_is_zero():
    spec = SearchSpec(2, 2, ("Svert", "SmidEdge", "S1"))
    tau = random_design(spec, np.random.default_rng(1))
    _, J = residual_and_jacobian(spec, tau)
    h = lma_step(np.zeros(spec.n_moments), J, spec.free_mask, 1.0)
    assert np.allclose(h, 0.0)


def test_lma_step_respects_frozen_entries():
    spec = next(volume_search_specs("tri", 3, lgl_rule(4)))
    tau = random_design(spec, np.random.default_rng(2))
    g, J = residual_and_jacobian(spec, tau)
    h = lma_step(g, J, spec.free_mask, 1e-2)
    assert np.all(h[~spec.free_mask] == 0.0)


def test_positivity_guard_shrinks_step():
    spec = SearchSpec(2, 2, ("S21", "S1"))
    # tau layout: [param, w_S21, w_S1]
    tau = np.array([0.2, 0.3, 0.001])
    h = np.array([0.1, 0.0, -0.00182])
    out = apply_update_with_positivity(spec, tau, h)
    eta = (1e-4 - 0.001) / (-0.00182)
    assert eta == pytest.approx(0.4945054945054945)
    assert out[2] == pytest.approx(1e-4, rel=1e-12)  # parked at the floor
    assert out[0] == pytest.approx(0.2 + eta * 0.1)
    assert out[1] == pytest.approx(0.3)


def test_positivity_guard_full_step_when_safe():
    spec = SearchSpec(2, 2, ("S21", "S1"))
    tau = np.array([0.2, 0.3, 0.4])
    h = np.array([0.05, -0.1, 0.2])
    out = apply_update_with_positivity(spec, tau, h)
    assert np.array_equal(out, tau + h)


def test_positivity_guard_blocks_at_floor():
    spec = SearchSpec(2, 2, ("S21", "S1"))
    tau = np.array([0.2, 1e-4, 0.4])
    h = np.array([0.05, -0.1, 0.2])
    out = apply_update_with_positivity(spec, tau, h)
    assert np.array_equal(out, tau)


# ----------------------------------------------------------------------
# solvers


def test_lma_solve_weights_only_layout():
    """Vertex + mid-edge + centroid weights solve the degree-2 moments."""
    spec = SearchSpec(2, 2, ("Svert", "SmidEdge", "S1"))
    tau0 = random_design(spec, np.random.default_rng(0))
    state = lma_solve(spec, tau0)
    assert state.converged
    assert state.res_inf <= TOL
    rule = spec.build_rule(state.tau)
    assert rule.n_nodes == 7
    assert rule.nodes.weights.min() > 0.0


def test_lma_solve_reports_infeasible_start():
    spec = SearchSpec(2, 2, ("S21",))
    state = lma_solve(spec, np.array([0.9, 0.1]))
    assert not state.converged
    assert state.message == "infeasible start"


# ----------------------------------------------------------------------
# the stacked damping ladder against the one-trial-at-a-time reference

#: (NU_INIT, LMA_ITERS) pairs lma_solve is checked at: the package's
#: own, and the small starting damping and short cap of the polish that
#: converged designs once got
LMA_SETTINGS = [(search.NU_INIT, search.LMA_ITERS), (1e-8, 40)]


def damping_ladder(nu):
    """The dampings one LMA iteration tries, as its rejections raise nu."""
    nus = [nu]
    for _ in range(search.MAX_REJECTS - 1):
        nus.append(min(nus[-1] * search.NU_INC, search.NU_MAX))
    return np.array(nus)


def floor_stall():
    """A tri q3 design that LMA has left with the centroid weight parked
    on the floor, a rounding below it, so every step that lowers it is
    blocked."""
    spec = SearchSpec(2, 3, ("S1", "S21"))
    state = oracles.lma_solve(spec, random_design(spec,
                                                  np.random.default_rng(1)))
    assert state.message == "stalled"
    w = state.tau[spec.weight_slice][0]
    assert w <= EPS_WEIGHT and w == pytest.approx(EPS_WEIGHT, rel=1e-12)
    return spec, state.tau


def lma_cases():
    """(name, spec, tau0): layouts short of unknowns that stall, a weight
    on the floor and one below it (as a swarm design may hold), a start
    next to an edge, and the floor stall."""
    cases = []
    for kinds in [("S21",), ("Sedge", "S1")]:
        spec = SearchSpec(2, 4, kinds)
        for seed in range(4):
            cases.append((f"{'-'.join(kinds)}-seed{seed}", spec,
                          random_design(spec, np.random.default_rng(seed))))
    spec = SearchSpec(2, 4, ("S1", "S21", "S21", "S111"))
    for seed in (1, 2):
        tau = random_design(spec, np.random.default_rng(seed))
        floor, below, edge = tau.copy(), tau.copy(), tau.copy()
        floor[spec.n_params + 1] = EPS_WEIGHT
        below[spec.n_params + 1] = 1e-9
        edge[1] = 0.499            # second S21 orbit 0.002 from an edge
        cases += [(f"floor-seed{seed}", spec, floor),
                  (f"below-floor-seed{seed}", spec, below),
                  (f"edge-seed{seed}", spec, edge)]
    cases.append(("floor-stall", *floor_stall()))
    return cases


def traced_reference(monkeypatch, spec, tau0, **kw):
    """The reference LMA's state and which of its rejection branches it
    reached: an infeasible trial, the break at NU_MAX, or MAX_REJECTS
    rejected trials in its last iteration."""
    events = []
    scored = oracles.residual

    def residual(spec, tau):
        try:
            g = scored(spec, tau)
        except InfeasibleDesignError:
            events.append("infeasible")
            raise
        events.append("trial")
        return g

    def residual_and_jacobian(spec, tau):
        events.append("iteration")
        return search.residual_and_jacobian(spec, tau)

    monkeypatch.setattr(oracles, "residual", residual)
    monkeypatch.setattr(oracles, "residual_and_jacobian",
                        residual_and_jacobian)
    state = oracles.lma_solve(spec, tau0, **kw)
    monkeypatch.undo()
    trials = events[len(events) - events[::-1].index("iteration"):]
    branches = set()
    if "infeasible" in events:
        branches.add("infeasible")
    if state.message == "stalled":
        if state.nu == search.NU_MAX and trials[-1] == "trial" \
                and len(trials) < search.MAX_REJECTS:
            branches.add("nu-max break")
        if len(trials) == search.MAX_REJECTS and state.nu < search.NU_MAX:
            branches.add("rejects exhausted")
    return state, branches


def assert_same_state(got, ref, name=""):
    assert np.array_equal(got.tau, ref.tau), name
    assert (got.nu, got.res_inf, got.iterations, got.converged,
            got.message) == (ref.nu, ref.res_inf, ref.iterations,
                             ref.converged, ref.message), name


def test_lma_solve_matches_one_trial_at_a_time(monkeypatch):
    """Scoring each damping ladder in one stacked evaluation leaves every
    field of the LMA state as the loop that scored one trial at a time
    left it, through every rejection branch."""
    reached = set()
    for name, spec, tau0 in lma_cases():
        for nu_init, max_iters in LMA_SETTINGS:
            ref, branches = traced_reference(monkeypatch, spec, tau0,
                                             nu_init=nu_init,
                                             max_iters=max_iters,
                                             nu_floor=0.0)
            monkeypatch.setattr(search, "NU_INIT", nu_init)
            monkeypatch.setattr(search, "LMA_ITERS", max_iters)
            assert_same_state(lma_solve(spec, tau0), ref, name)
            monkeypatch.undo()
            reached |= branches
    assert reached == {"infeasible", "nu-max break", "rejects exhausted"}


@pytest.mark.parametrize("name", ["tri-lgl-q3", "tri-free", "tet-frozen"])
@pytest.mark.parametrize("nu", [1e3, 1e-8])
def test_stacked_damping_steps_match_one_step_per_damping(name, nu):
    spec = (next(volume_search_specs("tri", 3, lgl_rule(4)))
            if name == "tri-lgl-q3"
            else scoring_specs()[name])
    if name != "tri-free":
        assert not spec.free_mask.all()    # frozen facet parameters
    tau = random_design(spec, np.random.default_rng(4))
    g, J = residual_and_jacobian(spec, tau)
    nus = damping_ladder(nu)
    steps = lma_step(g, J, spec.free_mask, nus)
    assert steps.shape == (search.MAX_REJECTS, spec.n_tau)
    for nu_k, h in zip(nus, steps):
        assert np.array_equal(h, lma_step(g, J, spec.free_mask, nu_k))
    assert np.array_equal(lma_step(g, J, spec.free_mask, nus[:1])[0],
                          steps[0])


def guard_kind(spec, tau, h, out):
    """'full', 'blocked' or 'partial' as the guard took all of step h,
    none of it, or a part; 'blocked' only counts when a weight sits
    below the floor or on it and h lowers it."""
    if np.array_equal(out, tau + h):
        return "full"
    w, hw = tau[spec.weight_slice], h[spec.weight_slice]
    if np.array_equal(out, tau) and ((w <= EPS_WEIGHT) & (hw < 0.0)).any():
        return "blocked"
    return "partial"


def test_stacked_positivity_guard_matches_one_step_at_a_time():
    """Guarding a damping ladder in one array pass leaves every row as
    the guard applied to that step alone does, bit for bit and signed
    zeros included: steps taken whole, steps a weight below the floor
    blocks, and steps shrunk to park a weight on the floor."""
    ladders = []
    for _, spec, tau in lma_cases():
        g, J = residual_and_jacobian(spec, tau)
        for nu in (1e3, 1e-8):
            ladders.append((spec, tau, lma_step(g, J, spec.free_mask,
                                                damping_ladder(nu))))
    # a weight exactly on the floor that every step lowers: each ratio is
    # -0.0, and the guard must take +0.0 from it, which turns the -0.0
    # parameter into +0.0 where np.clip would keep -0.0
    spec = SearchSpec(2, 2, ("S21", "S1"))
    tau = np.array([-0.0, EPS_WEIGHT, 0.4])
    ladders.append((spec, tau, np.array([[0.0, -s, 0.1]
                                         for s in (1e-3, 1.0, 1e3)])))
    kinds = set()
    for spec, tau, steps in ladders:
        got = apply_update_with_positivity(spec, tau, steps)
        want = np.array([oracles.positivity_update(spec, tau, h)
                         for h in steps])
        assert got.shape == steps.shape
        assert got.tobytes() == want.tobytes()
        assert apply_update_with_positivity(spec, tau, steps[0]).tobytes() \
            == want[0].tobytes()
        kinds |= {guard_kind(spec, tau, h, out)
                  for h, out in zip(steps, want)}
    assert kinds == {"full", "blocked", "partial"}
    # the hand-built ladder came last: its -0.0 parameter came out +0.0
    assert not np.signbit(got[:, 0]).any()


@pytest.mark.parametrize("floor", [True, False])
def test_a_stalled_iteration_makes_two_solves(monkeypatch, floor):
    """An iteration that rejects its whole damping ladder makes at most
    two pinv and two _moments calls (the first trial, then the rest of
    the ladder), where one call per trial made 22 or more of each; trials
    a weight on the floor blocks are not scored at all."""
    if floor:
        spec, tau = floor_stall()
    else:
        spec = SearchSpec(2, 4, ("S21",))
        tau = lma_solve(spec, random_design(spec,
                                            np.random.default_rng(0))).tau
    calls = {"_moments": 0, "pinv": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(search, "_moments", counted(search._moments))
    monkeypatch.setattr(np.linalg, "pinv", counted(np.linalg.pinv))
    monkeypatch.setattr(search, "LMA_ITERS", 1)
    state = lma_solve(spec, tau)
    assert (state.iterations, state.message) == (1, "stalled")
    # one _moments call scores the start
    assert calls["pinv"] <= 2 and calls["_moments"] <= 1 + 2
    if floor:
        assert calls == {"_moments": 1, "pinv": 2}
    calls.update(_moments=0, pinv=0)
    assert_same_state(state, oracles.lma_solve(spec, tau,
                                               nu_init=search.NU_INIT,
                                               max_iters=1, nu_floor=0.0))
    assert calls["pinv"] >= 22 and calls["_moments"] >= 1 + 22


@pytest.mark.parametrize("seed", [0, 7])
def test_solve_coupled_deterministic(seed):
    spec = SearchSpec(2, 2, ("Svert", "SmidEdge", "S1"))
    a, b = (solve_coupled(SearchSpec(2, 2, spec.kinds),
                          np.random.default_rng(seed), max_rounds=3,
                          pso_iters=10) for _ in range(2))
    assert a.converged and b.converged
    assert np.array_equal(a.rule.nodes.coords, b.rule.nodes.coords)
    assert np.array_equal(a.rule.nodes.weights, b.rule.nodes.weights)


def test_solve_coupled_converges_with_free_parameters():
    spec = SearchSpec(2, 4, ("S1", "S21", "S21", "S111"))
    res = solve_coupled(spec, np.random.default_rng(0))
    assert res.converged
    assert res.rule.residual_inf() <= 5e-14


# ----------------------------------------------------------------------
# batched swarm scoring against the one-design reference


def scoring_specs():
    """2-D and 3-D layouts, with free and with frozen parameters."""
    return {
        "tri-free": SearchSpec(2, 4, ("S1", "S21", "S21", "S111")),
        "tri-frozen": SearchSpec(2, 4, ("Sedge", "S1", "S21", "S21"),
                                 frozen={0: (0.2,)}),
        "tet-free": SearchSpec(3, 3, ("S31", "S31", "S22")),
        "tet-frozen": SearchSpec(3, 4, ("Sedge", "Sface21", "S1", "S211"),
                                 frozen={0: (0.2,), 1: (0.15,)}),
    }


def design_stack(spec, seed, n=40):
    """Feasible random designs, then the same designs pushed by noise
    large enough that some leave the element."""
    rng = np.random.default_rng(seed)
    taus = np.array([random_design(spec, rng) for _ in range(n // 2)])
    noisy = taus + 0.5 * rng.standard_normal(taus.shape) * spec.free_mask
    return np.vstack([taus, noisy])


def rowwise_objective(spec, taus):
    return np.array([oracles.swarm_objective(spec, tau) for tau in taus])


def rowwise_record_best(swarm, idx, taus, objs):
    for i, tau, obj in zip(idx, taus, objs):
        oracles.record_best(swarm, int(i), tau, float(obj))


@pytest.mark.parametrize("name", sorted(scoring_specs()))
def test_swarm_objective_matches_reference_rowwise(name):
    spec = scoring_specs()[name]
    taus = design_stack(spec, 3)
    ref = rowwise_objective(spec, taus)
    got = swarm_objective(spec, taus)
    assert got.shape == (len(taus),)
    assert np.isfinite(ref).any() and np.isinf(ref).any()
    assert np.array_equal(got, ref)


def test_swarm_objective_infeasible_rows_score_inf():
    spec = SearchSpec(2, 2, ("S21", "S1"))
    inside = np.array([0.2, 0.3, 0.1])
    outside = np.array([0.7, 0.3, 0.1])   # bary (0.7, 0.7, -0.4)
    got = swarm_objective(spec, np.array([inside, outside, inside, outside,
                                          outside]))
    assert np.array_equal(np.isinf(got), [False, True, False, True, True])
    assert got[0] == got[2] == oracles.swarm_objective(spec, inside)
    assert np.all(swarm_objective(spec, np.array([outside] * 3)) == np.inf)


def test_record_best_matches_reference_on_ties():
    """Equal objectives neither replace a personal best nor, past the
    first, claim the global best; infeasible designs never improve."""
    rng = np.random.default_rng(0)
    pos = rng.random((6, 3))

    def swarm():
        return SwarmState(pos.copy(), np.zeros_like(pos), pos[::-1].copy(),
                          np.array([1.0, 3.0, 2.0, np.inf, 5.0, 0.5]),
                          pos[0].copy(), 0.8)

    taus = rng.random((6, 3))
    objs = np.array([0.5, 3.0, 0.5, np.inf, 2.0, 0.5])
    got, ref = swarm(), swarm()
    search._record_best(got, np.arange(6), taus, objs)
    rowwise_record_best(ref, np.arange(6), taus, objs)
    for f in dataclasses.fields(SwarmState):
        assert np.array_equal(getattr(got, f.name), getattr(ref, f.name))
    assert np.array_equal(got.gbest_pos, taus[0])


def assert_same_result(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "rule":
            assert (x is None) == (y is None)
            if x is not None:
                assert rule_to_dict(x) == rule_to_dict(y)
        elif f.name == "best_tau":
            assert np.array_equal(x, y)
        else:
            assert x == y, f.name


@pytest.mark.parametrize("spec_fn, seed", [
    (lambda: SearchSpec(2, 4, ("S21", "S21")), 0),
    (lambda: SearchSpec(2, 4, ("S21", "S21")), 1),
    (lambda: next(volume_search_specs("tri", 2, lgl_rule(3))), 0),
    (lambda: SearchSpec(3, 4, ("S1", "S31", "S22")), 0),
], ids=["tri-unconverged", "tri-converged", "tri-frozen", "tet"])
def test_solve_coupled_matches_rowwise_scoring(monkeypatch, spec_fn, seed):
    """Batched scoring and best updates leave every field of a search
    result as the one-design scorer and update applied particle by
    particle do, through the swarm rounds."""
    def solve():
        return solve_coupled(spec_fn(), np.random.default_rng(seed),
                             max_rounds=3, pso_iters=10)

    batched = solve()
    monkeypatch.setattr(search, "swarm_objective", rowwise_objective)
    monkeypatch.setattr(search, "_record_best", rowwise_record_best)
    rowwise = solve()
    assert batched.pso_iterations > 0
    assert_same_result(batched, rowwise)


def test_round_zero_solve_matches_full_solve():
    """The mid-edge layout converges in round zero, so a solve that stops
    after round zero returns every field the full facet solve does."""
    short = midedge_solve(max_rounds=0)
    assert short.converged and short.rounds == 0
    assert_same_result(short, midedge_solve(max_rounds=4, pso_iters=25))


def test_round_zero_solve_builds_no_swarm(monkeypatch):
    def no_swarm(*args, **kwargs):
        raise AssertionError("round-zero solve built a swarm")

    monkeypatch.setattr(search, "init_swarm", no_swarm)
    res = solve_coupled(SearchSpec(2, 2, ("Svert",)),
                        np.random.default_rng(0), max_rounds=0)
    assert not res.converged
    assert (res.rounds, res.pso_iterations) == (0, 0)
    assert res.residual_inf > 1e-3


def midedge_solve(solve=solve_coupled, **rounds):
    """The mid-edge layout's solve from the first facet sweep's seed,
    which converges in round zero."""
    child = np.random.SeedSequence(0).spawn(1)[0]
    return solve(SearchSpec(2, 2, ("SmidEdge",)),
                 np.random.default_rng(child), **rounds)


def test_converged_solve_makes_one_lma_solve(monkeypatch):
    """A converged state becomes the rule as it stands: no second LMA
    solve polishes it."""
    calls = []

    def counted(spec, tau0):
        calls.append(tau0)
        return lma_solve(spec, tau0)

    monkeypatch.setattr(search, "lma_solve", counted)
    res = midedge_solve()
    assert res.converged and res.rounds == 0
    assert len(calls) == 1


def test_rule_failing_validation_keeps_the_sweep(monkeypatch):
    """A converged state whose rule fails validation does not end the
    sweep: a later round converges and returns a validated rule, every
    field as the reference that polished each converged state."""
    build_rule = SearchSpec.build_rule

    def rejected_once():
        failed = []

        def build(spec, tau, provenance=None):
            if not failed:
                failed.append(tau)
                raise RuleValidationError("rejected for the test")
            return build_rule(spec, tau, provenance)
        return build

    results = []
    for solve in (solve_coupled, oracles.solve_coupled):
        monkeypatch.setattr(SearchSpec, "build_rule", rejected_once())
        results.append(midedge_solve(solve, max_rounds=4, pso_iters=25))
    res, ref = results
    assert res.converged and res.rounds >= 1
    validate_rule(res.rule)
    assert_same_result(res, ref)


# ----------------------------------------------------------------------
# the sweep's stop at the weight floor against the all-rounds reference


def edge_specs(qv, family):
    """volume_search_specs of a triangle request, frozen to the edge rule
    find_rule makes for it."""
    rule, fewest = EDGE_RULES[family]
    return volume_search_specs("tri", qv, rule((qv + 1) // 2 + fewest))


def first_sweep(qv, family):
    """The first volume layout of a triangle request and the generator of
    its first sweep, as find_rule at seed 0 draws it."""
    child = np.random.SeedSequence(0).spawn(5)[0]
    return (next(edge_specs(qv, family)),
            lambda: np.random.default_rng(child))


def at_floor(spec, tau):
    return tau[spec.weight_slice].min() <= EPS_WEIGHT * (1.0 + 1e-9)


def test_sweep_ends_at_first_round_stalled_on_floor():
    """tri LGL q6's first sweep stalls with a weight on the floor in
    swarm round 1 and ends there; run through all 10 rounds it fails
    too."""
    spec, rng = first_sweep(6, "lgl")
    res = solve_coupled(spec, rng())
    assert (res.converged, res.rounds, res.message) == (False, 1, "floor")
    assert res.rule is None and res.pso_iterations == 40
    assert at_floor(spec, res.best_tau)
    full = oracles.solve_coupled(spec, rng())
    assert (full.converged, full.rounds, full.message) \
        == (False, 10, "no convergence")
    assert full.residual_inf <= res.residual_inf


def test_round_zero_floor_stall_keeps_the_sweep():
    """tri LG q7's winning sweep stalls on the floor in round zero and
    converges in swarm round 1, every field as the all-rounds solve."""
    spec, rng = first_sweep(7, "lg")
    state = lma_solve(spec, random_design(spec, rng()))
    assert not state.converged and at_floor(spec, state.tau)
    res = solve_coupled(spec, rng())
    assert res.converged and res.rounds == 1
    assert_same_result(res, oracles.solve_coupled(spec, rng()))


# ----------------------------------------------------------------------
# non-negative least squares and the weight floor


def entries(shape):
    """Multiples of 1/8 in [-4, 4]: exact zeros, ties and repeats are
    common, and a nonzero column is of order one.  (nnls counts a
    gradient within rounding of ||A||_1 as zero, so it, unlike scipy,
    ignores a column 1e-38 the size of the others.)"""
    return arrays(np.float64, shape,
                  elements=st.integers(-32, 32).map(lambda k: k / 8.0))


@st.composite
def nnls_problems(draw, kind):
    """(A, b) with m <= 8 rows and n <= 6 columns: a random A, a product
    of lower rank, one with repeated columns, or a nonnegative A with a
    nonpositive b (whose solution is zero)."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    if kind == "rank-deficient":
        r = draw(st.integers(1, max(1, min(m, n) - 1)))
        A = draw(entries((m, r))) @ draw(entries((r, n)))
    elif kind == "duplicate-columns":
        B = draw(entries((m, n)))
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=3))
        A = np.hstack([B, B[:, picks]])
    elif kind == "zero-solution":
        A = np.abs(draw(entries((m, n))))
        return A, -np.abs(draw(entries((m,))))
    else:
        A = draw(entries((m, n)))
    return A, draw(entries((m,)))


def exact_residual(A, x, b) -> float:
    """||A x - b||_2 of the given floats, summed in exact rationals: on a
    rank-deficient A scipy's x can reach 1e14, where A @ x in floating
    point is off by about 0.1."""
    r = [sum(Fraction(a) * Fraction(v) for a, v in zip(row, x)) - Fraction(c)
         for row, c in zip(A.tolist(), b.tolist())]
    return math.sqrt(sum(ri * ri for ri in r))


def assert_nnls_optimal(A, b):
    """nnls(A, b) is nonnegative, its residual is no larger than that of
    scipy's x, and it meets the optimality conditions: no entry's
    gradient A^T (b - A x) is positive, and it vanishes where x is
    positive.  (scipy's own reported residual is not the oracle: on
    RANK3 below it reports one that no x reaches.)"""
    from scipy.optimize import nnls as scipy_nnls
    x = nnls(A, b)
    x_scipy, _ = scipy_nnls(A, b)
    scale = 1.0 + np.linalg.norm(A) * (1.0 + np.linalg.norm(b))
    assert x.min() >= 0.0
    assert (np.linalg.norm(A @ x - b)
            <= exact_residual(A, x_scipy, b) + 1e-9 * scale)
    grad = A.T @ (b - A @ x)
    assert grad.max(initial=0.0) <= 1e-9 * scale
    assert np.abs(grad[x > 0.0]).max(initial=0.0) <= 1e-9 * scale
    return x


@pytest.mark.parametrize("kind", ["random", "rank-deficient",
                                  "duplicate-columns", "zero-solution"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nnls_matches_scipy(kind, data):
    A, b = data.draw(nnls_problems(kind))
    x = assert_nnls_optimal(A, b)
    if kind == "zero-solution":
        assert not x.any()


#: 6 x 6, rank 3, rows 0 and 5 equal, b = -e_0 / 8: rows 0 and 5 alone
#: force ||A x - b|| >= 0.125 / sqrt(2) = 0.088.  scipy's nnls returns an
#: x near 5e13 with a residual of 0.13 and reports 0.014.
RANK3 = (np.array([[0.375, -3.25, -0.375], [-0.875, -0.875, -2.5],
                   [-3.625, -3.125, -3.375], [-1.125, -2.875, 2.625],
                   [-3.0, -3.125, -1.375], [0.375, -3.25, -0.375]])
         @ np.array([[-2.375, -1.625, 3.875, -1.125, -1.5, -1.0],
                     [-0.125, -1.625, 2.0, -3.25, -1.125, -0.625],
                     [0.75, 1.375, -3.125, 3.75, -2.375, -0.5]]),
         -np.eye(6)[0] / 8)


@settings(phases=[Phase.explicit], deadline=None)
@given(problem=nnls_problems("rank-deficient"))
@example(problem=RANK3)
def test_nnls_where_scipy_misreports_its_residual(problem):
    assert_nnls_optimal(*problem)


@settings(max_examples=60, deadline=None)
@given(A=entries((8, 4)),
       x0=arrays(np.float64, 4, elements=st.floats(0.1, 2.0)))
def test_nnls_recovers_an_interior_solution(A, x0):
    """b = A x0 with x0 > 0 and A well conditioned: x0 is the unique
    minimiser, at zero residual."""
    assume(np.linalg.cond(A) < 1e3)
    x = assert_nnls_optimal(A, A @ x0)
    assert np.allclose(x, x0, rtol=0.0, atol=1e-10)


def weight_only_specs():
    """Layouts without free parameters: every vertex, mid-edge and
    centroid triangle layout of the tet face degrees 2, 4 and 6, and the
    weight-only volume layouts of the pinned triangle requests."""
    specs = {}
    for q in (2, 4, 6):
        for k in (1, 2, 3):
            for combo in itertools.combinations(("Svert", "SmidEdge", "S1"),
                                                k):
                specs[f"face-q{q}-{'-'.join(combo)}"] = SearchSpec(2, q,
                                                                   combo)
    for family, degrees in (("lgl", range(1, 7)), ("lg", range(1, 5))):
        for q in degrees:
            for spec in edge_specs(q, family):
                if not spec.free_mask[:spec.n_params].any():
                    specs[f"tri-{family}-q{q}-{'-'.join(spec.kinds)}"] = spec
    return specs


@pytest.mark.parametrize("name", sorted(weight_only_specs()))
def test_floor_residual_matches_support_enumeration(name):
    """||g||_2 of floor_residual is the least over weights at or above
    EPS_WEIGHT, by the reference evaluator and support enumeration."""
    spec = weight_only_specs()[name]
    got = float(np.linalg.norm(floor_residual(spec)))
    want = oracles.floor_residual_norm(spec)
    assert abs(got - want) <= 1e-13 + 1e-10 * want


def test_floor_residual_skips_layouts_with_free_parameters():
    assert floor_residual(SearchSpec(2, 2, ("S21", "S1"))) is None
    frozen = SearchSpec(2, 3, ("Sedge", "S1"), frozen={0: (0.3,)})
    assert floor_residual(frozen) is not None
