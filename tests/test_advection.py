"""Periodic linear-advection discretization on split simplex meshes."""

import itertools
import math
import time

import numpy as np
import pytest

import sbpquad.advection as advection
from sbpquad.advection import (
    _PROBE_GAP,
    _STEP_MARGIN,
    MeshError,
    _affine_maps,
    _cell_partners,
    _cell_simplices,
    _conjugate_pairs,
    _sat_metrics,
    assemble_dense,
    bloch_symbols,
    build_problem,
    certification_horizon,
    certify_stable,
    certify_timestep,
    energy,
    energy_ratios,
    exact_solution,
    initial_condition,
    l2_error,
    max_stable_dt,
    rhs,
    rk4_step,
    run_convergence,
    run_to_time,
    spectral_limit,
    step_matrix,
)
from sbpquad.operators import build_operator
from sbpquad.search import lgl_rule

import oracles
from conftest import VELOCITY_2D, VELOCITY_3D


def mass(prob, u):
    """Discrete integral of u, the quantity periodic advection conserves."""
    return float(np.sum(prob.hw * u))


@pytest.fixture(scope="module")
def p1_problem(tri_lgl_results):
    op = build_operator(tri_lgl_results[1].rule)
    return build_problem(op, 3, VELOCITY_2D, flux="upwind")


@pytest.fixture(scope="module")
def p2_problem(tri_lgl_results):
    op = build_operator(tri_lgl_results[3].rule)
    return build_problem(op, 3, VELOCITY_2D, flux="upwind")


@pytest.fixture(scope="module")
def tet_problem(tet_result):
    op = build_operator(tet_result.rule)
    return build_problem(op, 2, VELOCITY_3D, flux="upwind")


@pytest.fixture(scope="module")
def half_certified(p1_problem, p2_problem, tet_problem):
    """Half of max_stable_dt of each problem fixture, by fixture name."""
    return {name: 0.5 * max_stable_dt(prob) for name, prob in
            (("p1_problem", p1_problem), ("p2_problem", p2_problem),
             ("tet_problem", tet_problem))}


# ----------------------------------------------------------------------
# meshes


@pytest.mark.parametrize("m", [2, 3, 4])
def test_triangle_mesh_element_count(tri_lgl_results, m):
    op = build_operator(tri_lgl_results[1].rule)
    prob = build_problem(op, m, VELOCITY_2D)
    assert prob.n_elements == 2 * m * m
    assert prob.n_dof == prob.n_elements * op.n_nodes


def test_single_cell_mesh_rejected(tri_lgl_results):
    op = build_operator(tri_lgl_results[1].rule)
    with pytest.raises(MeshError, match="m >= 2"):
        build_problem(op, 1, VELOCITY_2D)


def test_tet_mesh_element_count(tet_problem):
    assert tet_problem.n_elements == 6 * 2 ** 3


@pytest.mark.parametrize("name", ["p1_problem", "tet_problem"])
def test_mesh_positive_jacobians(name, request):
    prob = request.getfixturevalue(name)
    assert np.all(prob.J > 0.0)


@pytest.mark.parametrize("name", ["p1_problem", "p2_problem",
                                  "tet_problem"])
def test_mesh_volume_partition(name, request):
    # physical norm weights tile the unit box exactly
    prob = request.getfixturevalue(name)
    assert prob.hw.sum() == pytest.approx(1.0, rel=1e-12)
    assert prob.hw.min() > 0.0


@pytest.mark.parametrize("name", ["p1_problem", "p2_problem",
                                  "tet_problem"])
def test_mesh_nodes_inside_box(name, request):
    prob = request.getfixturevalue(name)
    assert prob.phys.min() >= -1e-12
    assert prob.phys.max() <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def mesh_operators(tri_lgl_results, tet_result):
    return {"p1": build_operator(tri_lgl_results[1].rule),
            "p2": build_operator(tri_lgl_results[3].rule),
            "tet": build_operator(tet_result.rule)}


def _facet_node_rows(prob):
    """(rows, lift) over the cell's T (d+1) n_f facet nodes: the row of
    each in the cell (the volume node its partner value lifts into), and
    whether its SAT coefficient is nonzero, which the stencil keeps a
    cell_ext row and an ext_idx column for."""
    n = prob.op.n_nodes
    vi = np.stack([fop.vol_idx for fop in prob.op.facets])
    cell = _cell_simplices(prob.dim)
    At, Jt = _affine_maps(cell / prob.m)
    coef = _sat_metrics(prob.op, At, Jt, prob.c, prob.flux)[1]
    return (np.arange(len(cell))[:, None, None] * n + vi).ravel(), \
        coef.ravel() != 0


# m = 2 is where facet keys built from wrapped vertices alone would alias
@pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
@pytest.mark.parametrize("name", ["p1", "p2", "tet"])
def test_interface_nodes_collocated(mesh_operators, name, m):
    """Every SAT partner node sits at the same physical point modulo
    the periodic wrap."""
    op = mesh_operators[name]
    prob = build_problem(op, m, VELOCITY_2D if op.dim == 2 else VELOCITY_3D)
    d = prob.dim
    flat = prob.phys.reshape(-1, d)
    rows, lift = _facet_node_rows(prob)
    mine = prob.phys.reshape(m ** d, -1, d)[:, rows[lift]]
    theirs = flat[prob.ext_idx]
    assert mine.shape == theirs.shape == (*prob.ext_idx.shape, d)
    diff = mine - theirs
    diff -= np.round(diff)
    assert np.abs(diff).max() < 1e-9


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("name", ["p1", "p2", "tet"])
def test_every_element_has_its_cell_types_metrics(mesh_operators, name, m):
    """One cell stencil serves every cell: each element's map, volume
    metric and SAT coefficients, recomputed from its own vertices on the
    per-element lattice, are those of its simplex type in the unit cell
    scaled by 1/m."""
    op = mesh_operators[name]
    c = np.asarray(VELOCITY_2D if op.dim == 2 else VELOCITY_3D)
    prob = build_problem(op, m, c)
    T = len(_cell_simplices(op.dim))
    At, Jt = _affine_maps(_cell_simplices(op.dim) / m)
    assert np.array_equal(prob.J, Jt)
    Gt, coef_t = _sat_metrics(op, At, Jt, c, prob.flux)
    A, _, J = oracles.affine_maps(oracles.lattice(op.dim, m) / m)
    G, coef = _sat_metrics(op, A, J, c, prob.flux)
    types = np.arange(prob.n_elements) % T
    for mine, typed in ((A, At), (G, Gt), (coef, coef_t)):
        gap = np.abs(mine - typed[types]).max()
        assert gap <= 1e-15 * np.abs(typed).max()
    # and the stencil lifts exactly the type's nonzero coefficients
    rows, lift = _facet_node_rows(prob)
    assert np.array_equal(prob.cell_ext[np.arange(lift.sum()), rows[lift]],
                          -coef_t.ravel()[lift])
    assert np.count_nonzero(prob.cell_ext) == np.count_nonzero(coef_t)


@pytest.mark.parametrize("flux", ["upwind", "central"])
@pytest.mark.parametrize("m", [2, 3, 4, 7])
@pytest.mark.parametrize("name", ["p2", "tet"])
def test_cell_pairing_matches_the_per_element_mesh(mesh_operators, name, m,
                                                   flux):
    """Pairing the unit cell's facets and matching their nodes once gives
    the partner indices of pairing every element's facets by lattice key
    and matching their nodes by minimum image, and the nodes sit where
    each element's affine map puts them.  The stencil keeps the columns
    of the facet nodes that lift: under upwind flux the inflow half."""
    op = mesh_operators[name]
    prob = build_problem(op, m, VELOCITY_2D if op.dim == 2 else VELOCITY_3D,
                         flux=flux)
    phys, partners = oracles.periodic_mesh(op, m)
    lift = _facet_node_rows(prob)[1]
    assert lift.sum() == (lift.size if flux == "central" else lift.size // 2)
    assert np.array_equal(prob.ext_idx, partners[:, lift])
    assert np.abs(prob.phys - phys).max() <= 4e-16


@pytest.mark.parametrize("name", ["p2", "tet"])
def test_upwind_stencil_drops_only_zero_lifts(mesh_operators, name):
    """Leaving out the outflow facet nodes' all-zero cell_ext rows and
    their ext_idx columns leaves rhs bit for bit what the full lift of
    every facet node's partner value gives."""
    op = mesh_operators[name]
    prob = build_problem(op, 3, VELOCITY_2D if op.dim == 2 else VELOCITY_3D,
                         flux="upwind")
    rows, lift = _facet_node_rows(prob)
    full = np.zeros((rows.size, prob.cell_own.shape[0]))
    full[lift] = prob.cell_ext
    partners = oracles.periodic_mesh(op, 3)[1]
    u = np.random.default_rng(3).standard_normal(
        (prob.n_elements, op.n_nodes))
    want = (u.reshape(len(partners), -1) @ prob.cell_own
            + u.reshape(-1)[partners] @ full).reshape(u.shape)
    assert np.array_equal(rhs(prob, u), want)


@pytest.mark.parametrize("d", [2, 3])
def test_cell_partners_rejects_a_missing_simplex(d):
    cell = _cell_simplices(d)
    t2, f2, shift = _cell_partners(cell)
    assert np.array_equal(t2[t2, f2], np.indices(t2.shape)[0])
    assert np.array_equal(shift[t2, f2], -shift)
    with pytest.raises(MeshError, match="exactly two"):
        _cell_partners(cell[1:])


def test_mesh_rejects_interval_operators():
    op = build_operator(lgl_rule(3), p=2)
    with pytest.raises(MeshError):
        build_problem(op, 4, [1.0])


def test_odd_omega_rejected(p1_problem):
    with pytest.raises(ValueError, match="omega"):
        build_problem(p1_problem.op, 2, VELOCITY_2D, omega=3)


def test_nonpositive_omega_rejected(p1_problem):
    for omega in (0, -2):
        with pytest.raises(ValueError, match="omega"):
            build_problem(p1_problem.op, 2, VELOCITY_2D, omega=omega)


def test_zero_velocity_rejected(p1_problem):
    with pytest.raises(ValueError, match="nonzero"):
        build_problem(p1_problem.op, 2, (0.0, 0.0))


# ----------------------------------------------------------------------
# semi-discrete right-hand side


@pytest.mark.parametrize("name", ["p1_problem", "p2_problem",
                                  "tet_problem"])
def test_free_stream_preserved(name, request, half_certified):
    prob = request.getfixturevalue(name)
    u = np.ones((prob.n_elements, prob.op.n_nodes))
    du = rhs(prob, u)
    assert np.abs(du).max() <= 1e-12
    dt = half_certified[name]
    u = run_to_time(prob, u, 100 * dt, dt)
    assert np.abs(u - 1.0).max() <= 1e-12


@pytest.mark.parametrize("flux", ["upwind", "central"])
def test_mass_conserved(tri_lgl_results, flux):
    op = build_operator(tri_lgl_results[2].rule)
    prob = build_problem(op, 3, VELOCITY_2D, flux=flux)
    u0 = initial_condition(prob)
    m0 = mass(prob, u0)
    u = run_to_time(prob, u0, 0.1, 0.5 * max_stable_dt(prob))
    assert mass(prob, u) == pytest.approx(m0, abs=1e-12)


def test_upwind_energy_decays(p2_problem, half_certified):
    u0 = initial_condition(p2_problem)
    e0 = energy(p2_problem, u0)
    u = run_to_time(p2_problem, u0, 0.2, half_certified["p2_problem"])
    assert energy(p2_problem, u) <= e0


def test_central_energy_rate_vanishes(tri_lgl_results):
    op = build_operator(tri_lgl_results[3].rule)
    prob = build_problem(op, 3, VELOCITY_2D, flux="central")
    u = initial_condition(prob)
    e0 = energy(prob, u)
    # dE/dt = 2 u^T (J H) du is zero for the skew-adjoint central scheme
    rate = 2.0 * float(np.sum(prob.hw * u * rhs(prob, u)))
    assert abs(rate) <= 1e-12 * e0


def test_upwind_energy_rate_nonpositive(p2_problem):
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal((p2_problem.n_elements,
                                 p2_problem.op.n_nodes))
        rate = 2.0 * float(np.sum(p2_problem.hw * u * rhs(p2_problem, u)))
        assert rate <= 1e-10


def test_exact_solution_periodic():
    c = VELOCITY_2D
    pts = np.array([[0.0, 0.3], [1.0, 0.3]])
    vals = exact_solution(pts, 0.17, c, omega=2)
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def test_exact_solution_advects():
    c = VELOCITY_2D
    t = 0.21
    pts = np.random.default_rng(0).random((10, 2))
    assert np.allclose(exact_solution(pts, t, c, 2),
                       exact_solution(pts - t * c, 0.0, c, 2), atol=1e-12)


# ----------------------------------------------------------------------
# dense assembly and the RK4 propagator


def test_dense_operator_matches_rhs(p1_problem):
    L = assemble_dense(p1_problem)
    rng = np.random.default_rng(1)
    for _ in range(3):
        u = rng.standard_normal((p1_problem.n_elements,
                                 p1_problem.op.n_nodes))
        assert np.allclose(L @ u.reshape(-1), rhs(p1_problem, u).reshape(-1),
                           atol=1e-12)


@pytest.mark.parametrize("name", ["p2_problem", "tet_problem"])
def test_dense_operator_matches_element_loop(name, request):
    """The vectorized assembly equals a loop over cells and facet nodes
    bit for bit."""
    prob = request.getfixturevalue(name)
    tn = prob.cell_own.shape[0]
    ref = np.zeros((prob.n_dof, prob.n_dof))
    for cell, partners in enumerate(prob.ext_idx):
        blk = slice(cell * tn, (cell + 1) * tn)
        ref[blk, blk] += prob.cell_own.T
        for r, col in enumerate(partners):
            for j in np.flatnonzero(prob.cell_ext[r]):
                ref[cell * tn + j, col] += prob.cell_ext[r, j]
    assert np.array_equal(assemble_dense(prob), ref)


def test_rk4_step_rounds_like_the_plain_formula(p2_problem, half_certified):
    u = initial_condition(p2_problem)
    dt = half_certified["p2_problem"]
    k1 = rhs(p2_problem, u)
    k2 = rhs(p2_problem, u + 0.5 * dt * k1)
    k3 = rhs(p2_problem, u + 0.5 * dt * k2)
    k4 = rhs(p2_problem, u + dt * k3)
    ref = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(rk4_step(p2_problem, u, dt), ref)


def test_step_matrix_matches_rk4(p1_problem, half_certified):
    L = assemble_dense(p1_problem)
    dt = half_certified["p1_problem"]
    G = step_matrix(L, dt)
    u = initial_condition(p1_problem)
    assert np.allclose(G @ u.reshape(-1),
                       rk4_step(p1_problem, u, dt).reshape(-1), atol=1e-12)


# ----------------------------------------------------------------------
# error measurement and convergence


def test_l2_error_tracks_resolution(tri_lgl_results):
    op = build_operator(tri_lgl_results[2].rule)
    errs = []
    for m in (2, 4, 8):
        prob = build_problem(op, m, VELOCITY_2D)
        errs.append(l2_error(prob, initial_condition(prob), 0.0))
    assert errs[0] > errs[1] > errs[2]


def test_run_convergence_second_order(tri_lgl_results):
    op = build_operator(tri_lgl_results[2].rule)
    result = run_convergence(op, (4, 8), VELOCITY_2D, t=0.25)
    assert result.p == 1
    assert len(result.errors) == 2
    assert result.errors[1] < result.errors[0]
    assert 1.5 < result.rates[0] < 2.7
    assert "rate" in result.summary()


@pytest.mark.parametrize("meshes", [(2, 2), (4, 2), (2, 4, 4)])
def test_run_convergence_rejects_unordered_meshes(p1_problem, meshes):
    with pytest.raises(ValueError, match="increasing"):
        run_convergence(p1_problem.op, meshes, VELOCITY_2D)


@pytest.mark.parametrize("t", [0.0, -0.25, math.nan, math.inf])
def test_run_convergence_rejects_bad_time(p1_problem, t):
    with pytest.raises(ValueError, match="positive and finite"):
        run_convergence(p1_problem.op, (4, 8), VELOCITY_2D, t=t)


@pytest.mark.parametrize("meshes", [(), (4,)])
def test_run_convergence_needs_two_meshes(p1_problem, meshes):
    with pytest.raises(ValueError, match="two or more"):
        run_convergence(p1_problem.op, meshes, VELOCITY_2D)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_run_to_time_rejects_bad_step(p1_problem, dt):
    u = initial_condition(p1_problem)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        run_to_time(p1_problem, u, 1.0, dt)


@pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
def test_run_to_time_rejects_bad_time(p1_problem, t):
    u = initial_condition(p1_problem)
    with pytest.raises(ValueError, match="t must be non-negative"):
        run_to_time(p1_problem, u, t, 0.01)


@pytest.fixture(scope="module")
def study_dt_m(all_operators):
    """run_convergence's dt_m, by (operator name, flux)."""
    cache = {}

    def dt_m(name, flux):
        if (name, flux) not in cache:
            op = all_operators[name]
            c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
            cache[name, flux] = 2 * max_stable_dt(
                build_problem(op, 2, c, flux=flux))
        return cache[name, flux]
    return dt_m


@pytest.mark.parametrize("omega", [2, 4])
@pytest.mark.parametrize("flux", ["upwind", "central"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("name", ["tri-lgl-q1", "tri-lgl-q3", "tri-lgl-q5",
                                  "tet-q2"])
def test_bloch_solution_matches_mesh_stepper(all_operators, study_dt_m,
                                             name, m, flux, omega):
    """The study's Bloch-space solution is the mesh stepper's, also where
    the wavenumbers of s and -s coincide (m = 2; omega = 4 at m = 4), to
    1e-13 of the sine's amplitude 1: max|u0| is 0.65-1, except at
    omega = 4 on m = 2, where the tri q1 and tet nodes sit on the sine's
    zeros and u0 is rounding."""
    op = all_operators[name]
    c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
    prob = build_problem(op, m, c, flux=flux, omega=omega)
    t, dt = 0.1, _STEP_MARGIN * study_dt_m(name, flux) / m
    u0 = initial_condition(prob)
    want = run_to_time(prob, u0, t, dt)
    got = oracles.bloch_solution(prob, t, dt)
    assert np.abs(got - want).max() <= 1e-13


def test_run_convergence_errors_match_mesh_stepper(all_operators, study_dt_m):
    """The errors summed over Bloch modes are l2_error of the mesh
    stepper's solution, also where the modes' wavenumbers alias (m = 2;
    omega = 4 at m = 4), for both fluxes."""
    for (name, meshes), flux, omega in itertools.product(
            [("tri-lgl-q3", (3, 5)), ("tri-lgl-q3", (2, 3, 4)),
             ("tet-q2", (2, 3))], ["upwind", "central"], [2, 4]):
        op = all_operators[name]
        c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
        result = run_convergence(op, meshes, c, t=0.1, omega=omega,
                                 flux=flux)
        assert result.dt_m == study_dt_m(name, flux)
        for m, err in zip(result.meshes, result.errors):
            prob = build_problem(op, m, c, flux=flux, omega=omega)
            u = run_to_time(prob, initial_condition(prob), 0.1,
                            _STEP_MARGIN * result.dt_m / m)
            assert err == pytest.approx(l2_error(prob, u, 0.1), rel=1e-12), \
                (name, m, flux, omega)


@pytest.mark.parametrize("flux", ["upwind", "central"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["tri-lgl-q3", "tet-q2"])
def test_probed_symbols_match_bloch_symbols(all_operators, name, m, flux):
    """The stencil sum of the rhs probes is the FFT over every cell
    (oracles.bloch_symbols) at every wavenumber j and at its aliases
    j - m and j + m: on m = 2 offsets -1 and 1 are one cell, and from
    m = 4 on cells lie outside the stencil.  The symbols at -j are
    exactly the conjugates of those at j, also within one call."""
    op = all_operators[name]
    c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
    prob = build_problem(op, m, c, flux=flux)
    want = oracles.bloch_symbols(prob)
    j = np.indices((m,) * op.dim).reshape(op.dim, -1).T
    for probe in (j, j - m, j + m, None):
        got = bloch_symbols(prob, probe)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(bloch_symbols(prob, -j), got.conj())
    minus_j = np.ravel_multi_index(tuple((-j % m).T), (m,) * op.dim)
    assert np.array_equal(got[minus_j], got.conj())


@pytest.mark.parametrize("flux", ["upwind", "central"])
@pytest.mark.parametrize("name", ["tri-lgl-q3", "tet-q2"])
def test_symbols_are_real_where_every_phase_is(all_operators, name, flux):
    """On m = 2 every phase is +-1, so the symbols are float64 and still
    the FFT's (oracles.bloch_symbols); on m = 3 and 4 they are complex,
    except on m = 4 at the wavenumbers j in {0, 2}^d."""
    op = all_operators[name]
    c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
    prob = build_problem(op, 2, c, flux=flux)
    got, want = bloch_symbols(prob), oracles.bloch_symbols(prob)
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    for m in (3, 4):
        assert bloch_symbols(build_problem(op, m, c, flux=flux)).dtype \
            == np.complex128
    prob = build_problem(op, 4, c, flux=flux)
    j = 2 * np.indices((2,) * op.dim).reshape(op.dim, -1).T
    got = bloch_symbols(prob, j)
    assert got.dtype == np.float64
    want = bloch_symbols(prob)[np.ravel_multi_index(tuple(j.T),
                                                    (4,) * op.dim)]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("flux", ["upwind", "central"])
@pytest.mark.parametrize("name", ["tri-lgl-q3", "tet-q2"])
def test_real_certificate_matches_complex_arithmetic(monkeypatch,
                                                     all_operators, name,
                                                     flux):
    """The 2-cell certificate holds real symbols, and certifying the same
    symbols cast to complex agrees to 1e-13 in dt, limit and rho, and in
    the worst-case ratio at the real certificate's step.  The ratios at
    each one's own step are not compared: the ratio moves up to ~400
    times as much as dt, relative, and the two dt differ by rounding."""
    op = all_operators[name]
    c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
    prob = build_problem(op, 2, c, flux=flux)
    real = certify_timestep(prob)
    assert real.symbols.dtype == np.float64
    monkeypatch.setattr(advection, "bloch_symbols",
                        lambda *args: bloch_symbols(*args).astype(complex))
    cplx = certify_timestep(prob)
    assert cplx.symbols.dtype == np.complex128
    for field in ("dt", "limit", "rho"):
        assert getattr(real, field) == pytest.approx(
            getattr(cplx, field), rel=1e-13, abs=0), field
    assert real.ratio == pytest.approx(cplx.ratios(real.dt).max(),
                                       rel=1e-13, abs=0)
    assert abs(abs(real.eigenvalue) - abs(cplx.eigenvalue)) \
        <= 1e-13 * real.rho


@pytest.mark.parametrize("j", [[1, 0], np.zeros((2, 3), int),
                               np.zeros((1, 2, 1), int), [[0.0, 1.0]],
                               [[True, False]], [["0", "1"]]])
def test_bloch_symbols_reject_bad_wavenumbers(p1_problem, j):
    with pytest.raises(ValueError, match="integer array of shape"):
        bloch_symbols(p1_problem, j)


def test_run_convergence_probes_each_problem_once(monkeypatch,
                                                  all_operators):
    """A study builds two problems whatever its meshes, the 2-cell
    certificate's and the 3-cell stencil's, and probes each once with
    T n rhs calls."""
    op = all_operators["tri-lgl-q3"]
    calls = {"rhs": 0, "build_problem": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(advection, name,
                            counted(name, getattr(advection, name)))
    for meshes in ((3, 4), (3, 4, 6, 8)):
        calls.update(rhs=0, build_problem=0)
        run_convergence(op, meshes, VELOCITY_2D, t=0.05)
        assert calls["build_problem"] == 2, meshes
        assert calls["rhs"] == 2 * len(_cell_simplices(2)) * op.n_nodes


@pytest.mark.parametrize("error, kwargs", [
    (MeshError, {"meshes": (1, 4)}), (MeshError, {"meshes": (0, 4)}),
    (MeshError, {"meshes": (-2, 4)}),
    (ValueError, {"omega": 3}), (ValueError, {"omega": 0}),
    (ValueError, {"omega": -2}), (ValueError, {"flux": "downwind"}),
    (ValueError, {"c": (0.0, 0.0)}), (ValueError, {"c": (1.0, 1.0, 1.0)}),
    (ValueError, {"c": (1.0,)}), (TypeError, {"meshes": (2.5, 4)}),
    (TypeError, {"meshes": (2.0, 4)}), (TypeError, {"omega": 2.0}),
    (ValueError, {"c": (np.nan, 1.0)}), (ValueError, {"c": (np.inf, 1.0)}),
    (ValueError, {"c": (1.0, -np.inf)})])
def test_run_convergence_rejects_what_build_problem_rejects(
        monkeypatch, p1_problem, error, kwargs):
    """A study builds none of its meshes, yet rejects every input
    build_problem rejects, with the same error, before it builds or
    certifies any problem."""
    args = {"meshes": (4, 8), "c": VELOCITY_2D, **kwargs}
    with pytest.raises(error):
        build_problem(p1_problem.op, args["meshes"][0], args["c"],
                      flux=args.get("flux", "upwind"),
                      omega=args.get("omega", 2))

    def too_soon(*_, **__):
        pytest.fail("built or certified a problem before the checks")
    for name in ("build_problem", "max_stable_dt"):
        monkeypatch.setattr(advection, name, too_soon)
    with pytest.raises(error):
        run_convergence(p1_problem.op, **args)


@pytest.mark.parametrize("name, meshes", [
    ("tri-lgl-q2", (3, 4, 6)), ("tri-lgl-q4", (3, 4, 6)),
    ("tri-lgl-q6", (3, 4, 6)), ("tri-lg-q2", (3, 4, 6)),
    ("tet-q2", (2, 3))])
def test_study_steps_are_certified_on_their_mesh(all_operators, name,
                                                 meshes):
    """run_convergence certifies only the 2-cell mesh, yet the step it
    takes on every mesh of the study, nominal and as rounded to reach t,
    passes certify_stable on that mesh."""
    op = all_operators[name]
    c = VELOCITY_2D if op.dim == 2 else VELOCITY_3D
    t = 0.05
    result = run_convergence(op, meshes, c, t=t)
    for m in meshes:
        prob = build_problem(op, m, c)
        dt = _STEP_MARGIN * result.dt_m / m
        for step in (dt, t / math.ceil(t / dt)):
            assert certify_stable(prob, step)[0], (m, step)


def test_tet_solution_accuracy(tet_problem, half_certified):
    u0 = initial_condition(tet_problem)
    u = run_to_time(tet_problem, u0, 0.05, half_certified["tet_problem"])
    err = l2_error(tet_problem, u, 0.05)
    assert err < l2_error(tet_problem, 0.0 * u, 0.05)  # beats zero field
    assert energy(tet_problem, u) <= energy(tet_problem, u0)


# ----------------------------------------------------------------------
# stability certification


def test_certification_horizon(p1_problem):
    assert certification_horizon(p1_problem) == pytest.approx(4.0)


def test_certify_stable_at_safe_step(p1_problem, half_certified):
    ok, ratio = certify_stable(p1_problem, half_certified["p1_problem"])
    assert ok
    assert ratio <= 1.0 + 1e-12


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_certificate_rejects_bad_step(p1_problem, dt):
    """A zero, negative or non-finite step has no energy ratio: it used
    to divide by zero, fail in numpy or score a step backwards."""
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        certify_stable(p1_problem, dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        energy_ratios(p1_problem, dt)


def test_certify_unstable_at_large_step(p1_problem, half_certified):
    ok, ratio = certify_stable(p1_problem, 8.0 * half_certified["p1_problem"])
    assert not ok
    assert ratio > 1.0


def test_overflowing_propagator_is_uncertified(p1_problem):
    """On a fine mesh 4 times the certified step is so unstable that the
    propagator overflows within the horizon; the certificate then fails
    with ratio inf instead of raising."""
    prob = build_problem(p1_problem.op, 8, VELOCITY_2D, flux="upwind")
    ok, ratio = certify_stable(prob, 4.0 * max_stable_dt(prob))
    assert not ok
    assert ratio == np.inf


def _rule_problem(tri_lgl_results, tet_result, domain, p, m, flux="upwind"):
    """Problem on the rule the timestep benchmark uses for p."""
    rule = (tri_lgl_results[2 * p - 1] if domain == "tri"
            else tet_result).rule
    velocity = VELOCITY_2D if domain == "tri" else VELOCITY_3D
    return build_problem(build_operator(rule), m, velocity, flux=flux)


@pytest.mark.parametrize("domain, p, m", [("tri", 1, 4), ("tri", 2, 4),
                                          ("tet", 1, 2)])
def test_bloch_symbol_eigenvalues_match_dense(tri_lgl_results, tet_result,
                                              domain, p, m):
    """The m^d symbols carry the dense operator's spectrum."""
    prob = _rule_problem(tri_lgl_results, tet_result, domain, p, m)
    dense = np.linalg.eigvals(assemble_dense(prob))
    bloch = np.linalg.eigvals(bloch_symbols(prob)).ravel()
    assert bloch.shape == dense.shape
    gap = np.abs(dense[:, None] - bloch[None, :])
    assert gap.min(axis=1).max() <= 1e-10
    assert gap.min(axis=0).max() <= 1e-10


@pytest.mark.parametrize("domain, p, m", [("tri", 1, 4), ("tri", 2, 4),
                                          ("tet", 1, 2)])
def test_stepping_and_certificate_share_one_operator(tri_lgl_results,
                                                     tet_result, domain, p,
                                                     m):
    """rhs, the dense operator and the Bloch symbols are one operator:
    on a Bloch mode v exp(i theta.c) rhs is Lhat(theta) v on every cell,
    and the dense matrix reproduces rhs on random data."""
    prob = _rule_problem(tri_lgl_results, tet_result, domain, p, m)
    d, shape = prob.dim, (prob.n_elements, prob.op.n_nodes)
    symbols = bloch_symbols(prob)
    cells = np.indices((m,) * d).reshape(d, -1).T          # lexicographic
    rng = np.random.default_rng(5)
    for j, theta in enumerate(2 * np.pi * cells / m):
        v = (rng.standard_normal(symbols.shape[-1])
             + 1j * rng.standard_normal(symbols.shape[-1]))
        wave = np.exp(1j * cells @ theta)[:, None]
        got = rhs(prob, (wave * v).reshape(shape)).reshape(m ** d, -1)
        want = wave * (symbols[j] @ v)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    L = assemble_dense(prob)
    for _ in range(3):
        u = rng.standard_normal(shape)
        want = rhs(prob, u).reshape(-1)
        assert np.abs(L @ u.reshape(-1) - want).max() \
            <= 1e-13 * np.abs(want).max()


def _dense_worst_ratio(prob, dt):
    """max over u0 H-orthogonal to the constants of E(N dt)/E(0), from
    the dense RK4 propagator."""
    n_steps = math.ceil(certification_horizon(prob) / dt)
    G = np.linalg.matrix_power(step_matrix(assemble_dense(prob), dt),
                               n_steps)
    h = np.sqrt(prob.hw.ravel())
    G = h[:, None] * G / h
    e = h / np.linalg.norm(h)
    return np.linalg.norm(G - np.outer(G @ e, e), ord=2) ** 2


@pytest.mark.parametrize("domain, p, m", [("tri", 1, 2), ("tri", 2, 3),
                                          ("tet", 1, 2)])
def test_bloch_ratio_matches_dense_propagator(tri_lgl_results, tet_result,
                                              domain, p, m):
    """The worst case over wavenumbers is the dense propagator's
    energy-norm gain, on both sides of the certified step."""
    prob = _rule_problem(tri_lgl_results, tet_result, domain, p, m)
    dt = max_stable_dt(prob, rel_tol=1e-3)
    for scale, stable in ((0.5, True), (1.0, True), (1.1, False)):
        ok, ratio = certify_stable(prob, scale * dt)
        assert ok == stable
        dense = _dense_worst_ratio(prob, scale * dt)
        assert abs(ratio - dense) <= 1e-10 * dense
        assert ratio == energy_ratios(prob, scale * dt).max()


def test_zero_wavenumber_ratio_leaves_out_the_constants(tri_lgl_results):
    """At theta = 0 one RK4 step keeps the constants and keeps the data
    H-orthogonal to them H-orthogonal, so the ratio there measures that
    data alone: well below 1 at the certified step, where the constants
    alone would read 1."""
    prob = _rule_problem(tri_lgl_results, None, "tri", 1, 4)
    symbols = bloch_symbols(prob)
    dt = max_stable_dt(prob)
    h = np.sqrt(prob.hw.ravel()[:symbols.shape[-1]])
    e = h / np.linalg.norm(h)
    G = h[:, None] * step_matrix(symbols[0], dt) / h
    assert np.allclose(G @ e, e, rtol=0, atol=1e-13)
    assert np.allclose(e @ G, e, rtol=0, atol=1e-13)
    ratios = energy_ratios(prob, dt, symbols=symbols)
    assert ratios.max() <= 1.0 + 1e-12
    assert ratios[0] < 0.999


def test_tet_m4_certifies_in_seconds(tet_result):
    prob = _rule_problem(None, tet_result, "tet", 1, 4)
    t0 = time.perf_counter()
    dt = max_stable_dt(prob)
    elapsed = time.perf_counter() - t0
    assert certify_stable(prob, dt)[0]
    assert elapsed < 5.0


def test_max_stable_dt_brackets_threshold(tri_lgl_results):
    op = build_operator(tri_lgl_results[1].rule)
    prob = build_problem(op, 2, VELOCITY_2D, flux="upwind")
    dt = max_stable_dt(prob, rel_tol=1e-3)
    assert certify_stable(prob, dt)[0]
    assert not certify_stable(prob, 1.01 * dt)[0]


def test_rk4_grows_beyond_the_bracket_top():
    """max_stable_dt's bracket premise: the RK4 polynomial R has
    |R(z)| > 1 for every 3 <= |z| <= 10 (and beyond 10 the z^4 / 24 term
    alone outweighs the rest)."""
    r = np.linspace(3.0, 10.0, 701)[:, None]
    z = r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1441))[None, :]
    growth = np.abs(step_matrix(z[..., None, None], 1.0)[..., 0, 0])
    assert growth.min() > 1.1
    big = 10.0
    assert big ** 4 / 24 - big ** 3 / 6 - big ** 2 / 2 - big - 1 > 1.0


def test_max_stable_dt_bisects_from_the_spectral_bracket(monkeypatch,
                                                         tri_lgl_results):
    """One bisection of (0, 3 / rho) to rel_tol 1e-4 needs at most
    ceil(log2(1e4)) + 2 energy checks."""
    prob = _rule_problem(tri_lgl_results, None, "tri", 2, 4)
    calls = []
    certify = advection.certify_stable

    def counted(*args, **kwargs):
        calls.append(args[1])
        return certify(*args, **kwargs)
    monkeypatch.setattr(advection, "certify_stable", counted)
    dt = max_stable_dt(prob)
    assert 0 < len(calls) <= math.ceil(math.log2(1e4)) + 2
    rho = np.abs(np.linalg.eigvals(bloch_symbols(prob))).max()
    assert max(calls) < 3.0 / rho
    assert certify(prob, dt)[0]


def test_max_stable_dt_gives_up_when_nothing_certifies(monkeypatch,
                                                       p1_problem):
    """With no step certified the bisection halves down to 1e-12 of the
    bracket, about 40 checks, and raises."""
    calls = []

    def never(prob, dt, symbols=None):
        calls.append(dt)
        return False, np.inf
    monkeypatch.setattr(advection, "certify_stable", never)
    with pytest.raises(RuntimeError, match="no stable timestep"):
        max_stable_dt(p1_problem)
    assert len(calls) <= 41


def _counted_certify(monkeypatch, passes=None):
    """Steps handed to certify_stable from now on; with passes given,
    certify_stable answers passes(dt) instead of checking."""
    calls = []
    certify = advection.certify_stable

    def counted(prob, dt, symbols=None):
        calls.append(dt)
        if passes is None:
            return certify(prob, dt, symbols=symbols)
        return passes(dt), 1.0
    monkeypatch.setattr(advection, "certify_stable", counted)
    return calls


@pytest.mark.parametrize("domain, p, m, flux", [
    ("tri", 1, 4, "upwind"), ("tri", 1, 6, "upwind"), ("tri", 2, 4, "upwind"),
    ("tri", 2, 6, "upwind"), ("tet", 1, 3, "upwind"),
    ("tri", 1, 8, "central")])
def test_max_stable_dt_certifies_in_nine_checks(monkeypatch, tri_lgl_results,
                                                tet_result, domain, p, m,
                                                flux):
    """Probing at (1 - 2^-8) and 1 times the RK4 spectral limit brackets
    the certified step, leaving 6 bisection checks to rel_tol 1e-4."""
    prob = _rule_problem(tri_lgl_results, tet_result, domain, p, m, flux)
    limit = spectral_limit(prob)[1]
    calls = _counted_certify(monkeypatch)
    dt = max_stable_dt(prob)
    assert len(calls) <= 9
    assert calls[:2] == [(1.0 - _PROBE_GAP) * limit, limit]
    assert advection.certify_stable(prob, dt)[0]
    assert (1.0 - _PROBE_GAP) * limit <= dt < limit


@pytest.mark.parametrize("domain, p, m, flux", [
    ("tri", 1, 4, "upwind"), ("tri", 1, 6, "upwind"), ("tri", 2, 4, "upwind"),
    ("tri", 2, 6, "upwind"), ("tet", 1, 3, "upwind"),
    ("tri", 1, 8, "central")])
def test_certificate_record_matches_its_parts(tri_lgl_results, tet_result,
                                              domain, p, m, flux):
    """The record's step, its ratio at the step and its spectral fields
    are max_stable_dt, energy_ratios' maximum and spectral_limit bit for
    bit; its ruled-out step fails, within rel_tol of the step."""
    prob = _rule_problem(tri_lgl_results, tet_result, domain, p, m, flux)
    cert = certify_timestep(prob)
    assert cert.dt == max_stable_dt(prob)
    assert cert.ratio == energy_ratios(prob, cert.dt).max() <= 1.0 + 1e-12
    assert (cert.rho, cert.limit, cert.eigenvalue, cert.wavenumber) \
        == spectral_limit(prob)
    assert 0.0 < cert.ruled_out - cert.dt <= 1e-4 * cert.dt
    assert not certify_stable(prob, cert.ruled_out)[0]
    assert np.array_equal(cert.ratios(cert.ruled_out),
                          energy_ratios(prob, cert.ruled_out))


@pytest.mark.parametrize("where", ["below the first probe",
                                   "above the spectral limit"])
def test_max_stable_dt_falls_back_when_a_probe_misses(monkeypatch,
                                                      p1_problem, where):
    """A step that passes below x and fails from x on, with x away from
    the probes, is still found to rel_tol: a failed first probe leaves
    (0, P) to bisect and a passed limit probe (limit, 3 / rho)."""
    rho, limit = spectral_limit(p1_problem)[:2]
    x = (0.5 * limit if where == "below the first probe"
         else 0.5 * (limit + 3.0 / rho))
    calls = _counted_certify(monkeypatch, lambda dt: dt < x)
    dt = max_stable_dt(p1_problem, rel_tol=1e-4)
    assert dt < x <= dt * (1.0 + 1e-4)
    assert calls[0] == (1.0 - _PROBE_GAP) * limit
    assert (calls[1] == limit) == (x > limit)
    assert max(calls) < 3.0 / rho


@pytest.mark.parametrize("flux", ["upwind", "central"])
@pytest.mark.parametrize("name, m", [("p2", 3), ("p2", 4), ("p2", 5),
                                     ("tet", 3)])
def test_energy_ratios_match_every_wavenumber(mesh_operators, name, m, flux):
    """Certifying one wavenumber of each conjugate pair and copying its
    ratio to the other gives the ratios of every wavenumber exactly, on
    both sides of the certified step."""
    op = mesh_operators[name]
    prob = build_problem(op, m, VELOCITY_2D if op.dim == 2 else VELOCITY_3D,
                         flux=flux)
    symbols = bloch_symbols(prob)
    dt = max_stable_dt(prob)
    for scale in (0.5, 1.0, 1.01):
        ratios = energy_ratios(prob, scale * dt, symbols=symbols)
        assert np.array_equal(
            ratios, oracles.energy_ratios(prob, scale * dt, symbols=symbols))


@pytest.mark.parametrize("m, d", [(2, 2), (3, 2), (4, 2), (6, 2), (3, 3),
                                  (4, 3)])
def test_conjugate_pairs_cover_every_wavenumber(m, d):
    """One representative per pair {j, -j mod m}, the smaller in
    lexicographic order; self-conjugate wavenumbers are their own."""
    reps, inverse = _conjugate_pairs(m, d)
    j = np.indices((m,) * d).reshape(d, -1).T
    minus_j = np.ravel_multi_index(tuple((-j % m).T), (m,) * d)
    assert np.array_equal(reps[inverse], np.minimum(np.arange(m ** d),
                                                    minus_j))
    n_self = np.count_nonzero(minus_j == np.arange(m ** d))
    assert len(reps) == (m ** d + n_self) // 2
    assert reps[0] == 0


@pytest.mark.parametrize("m, d", [(2, 2), (3, 2), (6, 2), (2, 3), (3, 3)])
def test_conjugate_pairs_are_cached_read_only(m, d):
    """A repeat call returns the same read-only arrays, equal to a fresh
    computation."""
    reps, inverse = _conjugate_pairs(m, d)
    again = _conjugate_pairs(m, d)
    assert again[0] is reps and again[1] is inverse
    assert not reps.flags.writeable and not inverse.flags.writeable
    fresh = _conjugate_pairs.__wrapped__(m, d)
    assert np.array_equal(fresh[0], reps)
    assert np.array_equal(fresh[1], inverse)


@pytest.mark.parametrize("domain, p, m, flux", [
    ("tri", 1, 4, "upwind"), ("tri", 2, 3, "central"), ("tet", 1, 2, "upwind")])
def test_spectral_limit_is_where_rk4_first_grows(tri_lgl_results, tet_result,
                                                 domain, p, m, flux):
    """At the limit no eigenvalue of any symbol, conjugates included,
    grows by more than 1e-12 a step, the reported one sits on |R| = 1,
    and 1e-9 further it grows; conjugate symbols are conjugates, and the
    reported wavenumber is its pair's representative."""
    prob = _rule_problem(tri_lgl_results, tet_result, domain, p, m, flux)
    symbols = bloch_symbols(prob)
    rho, limit, lam, j = spectral_limit(prob, symbols)
    eigs = np.linalg.eigvals(symbols)
    assert rho == pytest.approx(np.abs(eigs).max(), rel=1e-12)

    def growth(z):
        return np.abs(step_matrix(np.asarray(z)[..., None, None], 1.0)
                      [..., 0, 0])
    assert growth(limit * eigs).max() <= 1.0 + 1e-12
    assert growth((1.0 + 1e-9) * limit * eigs).max() > 1.0 + 1e-12
    assert abs(growth(limit * lam) - 1.0) <= 1e-9
    k = np.ravel_multi_index(j, (m,) * prob.dim)
    minus_k = np.ravel_multi_index(tuple(-np.asarray(j) % m), (m,) * prob.dim)
    assert k <= minus_k
    assert np.abs(symbols[minus_k] - symbols[k].conj()).max() \
        <= 1e-12 * np.abs(symbols[k]).max()
    assert np.abs(np.linalg.eigvals(symbols[k]) - lam).min() \
        <= 1e-12 * rho


def test_central_flux_fine_mesh_certifies(tri_lgl_results):
    """Central flux on the 8-cell mesh: its exactly neutral modes gather
    rounding over many steps at a small dt, yet the search ends on a
    certified step that is the boundary to 1 %."""
    prob = build_problem(build_operator(tri_lgl_results[1].rule), 8,
                         VELOCITY_2D, flux="central")
    dt = max_stable_dt(prob)
    assert certify_stable(prob, dt)[0]
    assert not certify_stable(prob, 1.01 * dt)[0]


def test_max_stable_dt_tolerance_below_float_spacing(tri_lgl_results):
    """A tolerance finer than the bracket's float spacing still ends, on a
    certified step; a non-positive or non-finite one is rejected."""
    op = build_operator(tri_lgl_results[2].rule)
    prob = build_problem(op, 2, VELOCITY_2D, flux="upwind")
    dt = max_stable_dt(prob, rel_tol=1e-300)
    assert certify_stable(prob, dt)[0]
    assert max_stable_dt(prob, rel_tol=1e-3) <= dt
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            max_stable_dt(prob, rel_tol=bad)
