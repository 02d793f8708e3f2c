"""End-to-end acceptance gates for the quadrature/SBP/advection stack.

Each section pins the tolerances the package promises:

  1. exactness of every rule (volume and facet families)
  2. minimal node counts reached by the layout search
  3. minimum node-spacing spot values
  4. SBP operator identities
  5. analytic search Jacobians against finite differences
  6. advection convergence rates
  7. energy stability (dissipative upwind, conservative central)
  8. certified maximum stable timesteps
  9. byte-level determinism of every artifact-producing command
"""

import math

import numpy as np
import pytest

import sbpquad.cli as cli
from sbpquad.advection import (
    bloch_symbols,
    build_problem,
    certification_horizon,
    certify_stable,
    energy,
    energy_ratios,
    initial_condition,
    max_stable_dt,
    rk4_step,
    run_convergence,
    run_to_time,
    step_matrix,
)
from sbpquad.archive import canonical_json, rule_to_dict
from sbpquad.basis import mode_indices
from sbpquad.operators import build_operator, verify_operator
from sbpquad.search import (
    lgl_rule,
    random_design,
    residual_and_jacobian,
    validate_rule,
)
from sbpquad.signatures import (find_facet_rule, find_rule,
                                volume_search_specs)

from conftest import TRI_LG_DEGREES, TRI_LGL_DEGREES, VELOCITY_2D
from oracles import monomial_integral, residual

RULE_KEYS = (
    [f"tri-lgl-q{q}" for q in TRI_LGL_DEGREES]
    + [f"tri-lg-q{q}" for q in TRI_LG_DEGREES]
    + ["tet-q2"]
    + [f"interval-lgl-{n}" for n in (2, 3, 4, 5)]
    + [f"interval-lg-{n}" for n in (1, 2, 3, 4)]
)

OPERATOR_KEYS = (
    [f"tri-lgl-q{q}" for q in TRI_LGL_DEGREES]
    + [f"tri-lg-q{q}" for q in TRI_LG_DEGREES]
    + ["tet-q2"]
    + [f"interval-lgl-{n}" for n in (2, 3, 4)]
)


# ----------------------------------------------------------------------
# 1. exactness


@pytest.mark.parametrize("key", RULE_KEYS)
def test_volume_rule_integrates_monomials(all_rules, key):
    """Every monomial of total degree <= q_v matches the closed-form
    moment to 1e-11 relative."""
    rule = all_rules[key]
    x = rule.nodes.coords
    w = rule.nodes.weights
    for powers in mode_indices(rule.qv, rule.dim):
        num = w @ np.prod(x ** np.array(powers), axis=1)
        ref = monomial_integral(powers, rule.dim)
        assert abs(num - ref) <= 1e-11 * max(1.0, abs(ref)), \
            f"{key}: x^{powers} -> {num} vs {ref}"


@pytest.mark.parametrize("key", [f"tri-lgl-q{q}" for q in TRI_LGL_DEGREES]
                         + [f"tri-lg-q{q}" for q in TRI_LG_DEGREES]
                         + ["tet-q2"])
def test_facet_rule_exact_to_twice_p(all_rules, key):
    rule = all_rules[key]
    frule = rule.facet_rule
    assert frule is not None
    assert frule.qv >= 2 * rule.sbp_p
    x = frule.nodes.coords
    w = frule.nodes.weights
    for powers in mode_indices(2 * rule.sbp_p, frule.dim):
        num = w @ np.prod(x ** np.array(powers), axis=1)
        ref = monomial_integral(powers, frule.dim)
        assert abs(num - ref) <= 1e-11 * max(1.0, abs(ref))


# ----------------------------------------------------------------------
# 2. minimal node counts under bounded search effort


TRI_LGL_COUNTS = {1: 6, 2: 7, 3: 10, 4: 12, 5: 15, 6: 18}
TRI_LG_COUNTS = {1: 6, 2: 7, 3: 10, 4: 12}


@pytest.mark.parametrize("qv", TRI_LGL_DEGREES)
def test_triangle_lgl_node_counts(tri_lgl_results, qv):
    res = tri_lgl_results[qv]
    assert res.status == "ok"
    assert res.rule.n_nodes == TRI_LGL_COUNTS[qv]
    assert len(res.attempts) <= 20
    assert res.elapsed <= 600.0


@pytest.mark.parametrize("qv", TRI_LG_DEGREES)
def test_triangle_lg_node_counts(tri_lg_results, qv):
    res = tri_lg_results[qv]
    assert res.status == "ok"
    assert res.rule.n_nodes == TRI_LG_COUNTS[qv]
    assert len(res.attempts) <= 20
    assert res.elapsed <= 600.0


def test_tet_degree2_node_count(tet_result):
    assert tet_result.status == "ok"
    assert tet_result.rule.n_nodes == 7
    assert len(tet_result.attempts) <= 20
    assert tet_result.elapsed <= 600.0


def test_tet_degree5_search_reaches_44_nodes():
    # hardest search in the suite (about 5 s): the degree-5
    # tetrahedron needs a degree-6 triangle rule on its faces first, and
    # the smallest reachable volume layout adds one interior S31 orbit
    # to the induced facet skeleton.  Not part of the bounded-effort
    # table above, so correctness is pinned but attempt counts are not.
    res = find_rule("tet", 5, facet_kind="gen", seed=0, budget_s=560.0)
    assert res.status == "ok"
    rule = res.rule
    assert rule.n_nodes == 44
    validate_rule(rule)
    op = build_operator(rule)
    assert op.p == 3
    rep = verify_operator(op)
    assert rep.min_weight > 0.0
    assert rep.sbp_defect_rel <= 1e-13
    assert rep.accuracy_defect <= 1e-10
    assert rep.e_accuracy_defect <= 1e-11
    assert rep.e_trace_defect <= 1e-12


# ----------------------------------------------------------------------
# 3. minimum node spacing spot values


def test_node_spacing_degree1_lgl(tri_lgl_results):
    # vertices + edge midpoints: nearest pair at distance exactly 1
    assert tri_lgl_results[1].rule.min_spacing() == 1.0


def test_node_spacing_degree2_lgl(tri_lgl_results):
    assert tri_lgl_results[2].rule.min_spacing() == \
        pytest.approx(0.471, abs=0.01)


# ----------------------------------------------------------------------
# 4. SBP operator identities


@pytest.mark.parametrize("key", OPERATOR_KEYS)
def test_sbp_operator_identities(all_operators, key):
    op = all_operators[key]
    assert op.H.min() > 0.0
    for Qi, Ei in zip(op.Q, op.E):
        defect = np.abs(Qi + Qi.T - np.diag(Ei)).max()
        assert defect <= 1e-13 * np.abs(Qi).max()
    report = verify_operator(op)
    assert report.accuracy_defect <= 1e-10
    assert report.e_accuracy_defect <= 1e-11
    assert report.e_trace_defect <= 1e-12


# ----------------------------------------------------------------------
# 5. analytic Jacobians of the moment residual


def jacobian_specs():
    specs = []
    for qv in (2, 4, 6, 8):
        specs.append(next(volume_search_specs(
            "tri", qv, lgl_rule((qv + 1) // 2 + 2))))
    specs.append(next(volume_search_specs("tet", 2, find_facet_rule(1))))
    return specs


def test_jacobian_finite_difference_20_points():
    """4 random feasible designs on each of 5 layouts (degrees 2-8)."""
    h = 1e-7
    worst = 0.0
    for si, spec in enumerate(jacobian_specs()):
        rng = np.random.default_rng(100 + si)
        for _ in range(4):
            tau = random_design(spec, rng)
            _, J = residual_and_jacobian(spec, tau)
            free = np.flatnonzero(spec.free_mask)
            fd = np.empty((spec.n_moments, free.size))
            for col, j in enumerate(free):
                tp, tm = tau.copy(), tau.copy()
                tp[j] += h
                tm[j] -= h
                fd[:, col] = (residual(spec, tp)
                              - residual(spec, tm)) / (2.0 * h)
            scale = max(1.0, np.abs(J[:, free]).max())
            rel = np.abs(J[:, free] - fd).max() / scale
            worst = max(worst, rel)
    assert worst <= 1e-6


# ----------------------------------------------------------------------
# 6. advection convergence


@pytest.mark.parametrize("p", [1, 2, 3])
def test_advection_convergence_rates(all_operators, p):
    op = all_operators[f"tri-lgl-q{2 * p}"]
    assert op.p == p
    result = run_convergence(op, (8, 12, 16), VELOCITY_2D, t=0.25, omega=2)
    assert result.rates[-1] >= p + 0.5, result.summary()


# ----------------------------------------------------------------------
# 7. energy stability


@pytest.mark.parametrize("p", [1, 2])
def test_upwind_energy_nonincreasing_at_half_max_dt(timestep_certs, p):
    prob, dt_max = timestep_certs[p]
    ok, ratio = certify_stable(prob, 0.5 * dt_max)
    assert ok
    assert ratio <= 1.0 + 1e-12
    # explicit nonlinear-path run over the advection window agrees
    u0 = initial_condition(prob)
    u = run_to_time(prob, u0, 0.25, dt=0.5 * dt_max)
    assert energy(prob, u) <= energy(prob, u0)


@pytest.mark.parametrize("p", [1, 2])
def test_central_flux_conserves_energy(all_operators, p):
    """Semi-discrete central-flux energy is exactly conserved; running
    RK4 at 1/200 of the certified step, small enough that its O(dt^5)
    dissipation is negligible, exposes the property to 1e-10 relative."""
    op = all_operators[f"tri-lgl-q{2 * p - 1}"]
    prob = build_problem(op, 4, VELOCITY_2D, flux="central")
    u0 = initial_condition(prob)
    e0 = energy(prob, u0)
    u = run_to_time(prob, u0, 0.25, dt=max_stable_dt(prob) / 200.0)
    assert abs(energy(prob, u) / e0 - 1.0) <= 1e-10


# ----------------------------------------------------------------------
# 8. timestep certificates


@pytest.mark.parametrize("p", [1, 2])
def test_max_stable_dt_is_certified_boundary(timestep_certs, p):
    prob, dt = timestep_certs[p]
    assert certify_stable(prob, dt)[0]
    assert not certify_stable(prob, 1.05 * dt)[0]


def _worst_bloch_datum(prob, dt):
    """The initial datum whose energy grows most over the horizon at dt.

    Top right singular vector of H^1/2 Ghat^N H^-1/2 at the limiting
    wavenumber, laid out as a real Bloch mode on the whole mesh: the
    real or the imaginary part, whichever has the larger norm.
    """
    d, m, n = prob.dim, prob.m, prob.op.n_nodes
    symbols = bloch_symbols(prob)
    j = int(np.argmax(energy_ratios(prob, dt, symbols=symbols)))
    n_steps = math.ceil(certification_horizon(prob) / dt)
    h = np.sqrt(prob.hw.ravel()[:len(symbols[j])])
    G = np.linalg.matrix_power(step_matrix(symbols[j], dt), n_steps)
    v = np.linalg.svd(h[:, None] * G / h)[2][0].conj() / h
    cells = np.indices((m,) * d).reshape(d, -1).T
    theta = 2.0 * np.pi / m * np.array(np.unravel_index(j, (m,) * d))
    u = (np.exp(1j * (cells @ theta))[:, None] * v).reshape(-1, n)
    return max(u.real, u.imag, key=np.linalg.norm)


@pytest.mark.parametrize("p", [1, 2])
def test_worst_datum_grows_only_beyond_certified_dt(timestep_certs, p):
    """The certificate covers every initial datum, not only the sine: the
    datum that grows most at 1.05 dt, advanced by rk4_step over the
    horizon, gains energy there and none at the certified dt."""
    prob, dt = timestep_certs[p]
    u0 = _worst_bloch_datum(prob, 1.05 * dt)
    e0 = energy(prob, u0)
    for step, grows in ((1.05 * dt, True), (dt, False)):
        u = u0
        for _ in range(math.ceil(certification_horizon(prob) / step)):
            u = rk4_step(prob, u, step)
        assert (energy(prob, u) > e0 * (1.0 + 1e-12)) == grows


def test_p1_max_dt_in_expected_range(timestep_certs):
    _, dt = timestep_certs[1]
    assert 0.0258 / 3.0 <= dt <= 0.0258 * 3.0


# ----------------------------------------------------------------------
# 9. determinism


def test_search_deterministic_across_runs():
    a = find_rule("tri", 2, facet_kind="lgl", seed=11)
    b = find_rule("tri", 2, facet_kind="lgl", seed=11)
    assert canonical_json(rule_to_dict(a.rule)) == \
        canonical_json(rule_to_dict(b.rule))


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def test_every_cli_artifact_is_reproducible(tmp_path):
    """find / sbp / converge / timestep, run twice each with the same
    inputs, emit byte-identical files."""
    rules = []
    for tag in ("a", "b"):
        rule = tmp_path / f"rule-{tag}.json"
        assert run_cli(["find", "--domain", "tri", "--qv", "2",
                        "--seed", "5", "-o", str(rule)]) == cli.EXIT_OK
        rules.append(rule)
    assert rules[0].read_bytes() == rules[1].read_bytes()

    outs = {name: [] for name in ("op", "conv", "cert")}
    for tag, rule in zip(("a", "b"), rules):
        op = tmp_path / f"op-{tag}.json"
        conv = tmp_path / f"conv-{tag}.json"
        cert = tmp_path / f"cert-{tag}.json"
        assert run_cli(["sbp", str(rule), "-o", str(op)]) == cli.EXIT_OK
        assert run_cli(["converge", str(rule), "--meshes", "2,4",
                        "--time", "0.05", "-o", str(conv)]) == cli.EXIT_OK
        assert run_cli(["timestep", str(rule), "--m", "2",
                        "--rel-tol", "1e-3", "-o", str(cert)]) \
            == cli.EXIT_OK
        outs["op"].append(op)
        outs["conv"].append(conv)
        outs["cert"].append(cert)
    for name, (first, second) in outs.items():
        assert first.read_bytes() == second.read_bytes(), name
