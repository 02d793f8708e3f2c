"""Orbit layout enumeration and the rule-search driver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sbpquad.signatures
from sbpquad.archive import canonical_json, rule_from_dict, rule_to_dict
from sbpquad.search import SearchSpec, lg_rule, lgl_rule
from sbpquad.signatures import (
    FACET_FAMILIES,
    FacetSearchError,
    facet_layout,
    find_facet_rule,
    find_rule,
    interior_candidates,
    invariant_moment_count,
    volume_search_specs,
)
from sbpquad.simplex import orbit_structure

import oracles
from conftest import TRI_LG_DEGREES, TRI_LGL_DEGREES


# ----------------------------------------------------------------------
# symmetric moment counts


@pytest.mark.parametrize("q, expected", [(0, 1), (1, 1), (2, 2), (3, 3),
                                         (4, 4), (5, 5), (6, 7), (7, 8),
                                         (8, 10)])
def test_invariant_moment_count_triangle(q, expected):
    assert invariant_moment_count(q, 2) == expected


@pytest.mark.parametrize("q, expected", [(0, 1), (1, 1), (2, 2), (3, 3),
                                         (4, 5), (5, 6), (6, 9)])
def test_invariant_moment_count_tetrahedron(q, expected):
    assert invariant_moment_count(q, 3) == expected


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", range(0, 9))
def test_invariant_moment_count_brute_force(q, d):
    """Count integer solutions of sum_i i*k_i <= q over generator
    degrees 2..d+1 directly."""
    degrees = range(2, d + 2)
    count = 0
    grids = np.meshgrid(*[np.arange(q // g + 1) for g in degrees],
                        indexing="ij")
    total = sum(g * k for g, k in zip(degrees, grids))
    count = int((total <= q).sum())
    assert invariant_moment_count(q, d) == count


# ----------------------------------------------------------------------
# interior candidate enumeration


def combo_nodes(combo, d):
    return sum(orbit_structure(k, d).size for k in combo)


def combo_unknowns(combo, d, n_facet_orbits):
    return n_facet_orbits + len(combo) + sum(
        orbit_structure(k, d).n_params for k in combo)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("qv", [1, 2, 4])
def test_interior_candidates_sorted_by_node_count(qv, d):
    combos = list(interior_candidates(d, qv, 2))
    counts = [combo_nodes(c, d) for c in combos]
    assert counts == sorted(counts)
    assert len(set(combos)) == len(combos)


def test_interior_candidates_smallest_first():
    # facet orbits already supply enough unknowns for degree 2, so the
    # empty interior layout comes first, then the centroid
    combos = list(interior_candidates(2, 2, 2))
    assert combos[0] == ()
    assert combos[1] == ("S1",)


@pytest.mark.parametrize("d", [2, 3])
def test_interior_candidates_dof_filter(d):
    qv = 6
    need = invariant_moment_count(qv, d)
    combos = list(interior_candidates(d, qv, 0))
    assert all(combo_unknowns(c, d, 0) >= need for c in combos)


@pytest.mark.parametrize("d, max_qv", [(2, 20), (3, 10)])
def test_interior_candidates_hold_a_layout_without_facet_orbits(d, max_qv):
    """Every degree the paper reaches has a non-empty interior layout with
    enough unknowns on its own, so no rule request runs out of
    candidates."""
    for qv in range(max_qv + 1):
        assert any(interior_candidates(d, qv, 0)), qv


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("qv", range(1, 11))
def test_interior_candidates_match_reference(qv, d):
    for n_facet_orbits in range(5):
        assert interior_candidates(d, qv, n_facet_orbits) == list(
            oracles.interior_candidates(d, qv, n_facet_orbits))


@pytest.mark.parametrize("q", range(1, 13))
def test_facet_candidates_match_reference(q):
    # the reference's capped list is the head; every other determined
    # layout follows once, in the reference's cost order
    got = sbpquad.signatures._tri_facet_candidates(q)
    head = oracles._tri_facet_candidates(q)
    need = invariant_moment_count(q, 2)
    tail = [combo for _, _, neg_unknowns, combo
            in oracles._tri_facet_ranking(q)
            if -neg_unknowns >= need and combo not in head]
    assert got[:len(head)] == head
    assert got[len(head):] == tail


def test_interior_candidates_at_most_one_centroid():
    for combo in interior_candidates(2, 6, 0):
        assert combo.count("S1") <= 1


# ----------------------------------------------------------------------
# facet layouts on the volume element


def test_facet_layout_lgl3():
    layout = facet_layout(lgl_rule(3), 2)
    assert layout == [("Svert", ()), ("SmidEdge", ())]


def test_facet_layout_lgl4():
    layout = facet_layout(lgl_rule(4), 2)
    assert [k for k, _ in layout] == ["Svert", "Sedge"]
    (alpha,) = layout[1][1]
    assert alpha == pytest.approx((1.0 + 1.0 / np.sqrt(5.0)) / 2.0)


def test_facet_layout_lgl5():
    layout = facet_layout(lgl_rule(5), 2)
    assert [k for k, _ in layout] == ["Svert", "SmidEdge", "Sedge"]
    (alpha,) = layout[2][1]
    assert alpha == pytest.approx((1.0 + np.sqrt(3.0 / 7.0)) / 2.0)


def test_facet_layout_lg1():
    assert facet_layout(lg_rule(1), 2) == [("SmidEdge", ())]


def test_facet_layout_lg2():
    layout = facet_layout(lg_rule(2), 2)
    assert [k for k, _ in layout] == ["Sedge"]
    (alpha,) = layout[0][1]
    assert alpha == pytest.approx((1.0 + 1.0 / np.sqrt(3.0)) / 2.0)


def test_facet_layout_lg3_two_edge_orbits():
    layout = facet_layout(lg_rule(3), 2)
    assert [k for k, _ in layout] == ["SmidEdge", "Sedge"]
    (alpha,) = layout[1][1]
    assert alpha == pytest.approx((1.0 + np.sqrt(0.6)) / 2.0)


def test_facet_layout_bad_dimension():
    with pytest.raises(ValueError):
        facet_layout(lgl_rule(3), 4)


# ----------------------------------------------------------------------
# triangle facet rules for the tet


def test_find_facet_rule_degree2_is_midedge():
    rule = find_facet_rule(1, seed=0)
    assert rule.qv == 2
    assert rule.n_nodes == 3
    # classic mid-edge rule: each barycentric row is a permutation of
    # (1/2, 1/2, 0) and the weights are |T|/3 = 2/3
    assert np.allclose(np.sort(rule.nodes.bary, axis=1),
                       [[0.0, 0.5, 0.5]] * 3, atol=1e-14)
    assert np.allclose(rule.nodes.weights, 2.0 / 3.0, atol=1e-13)


def test_find_facet_rule_records_its_seed():
    rule = find_facet_rule(1, seed=3)
    assert rule.provenance["seed"] == 3
    assert rule.provenance["role"] == "tet-facet"


def test_facet_layout_tet_from_midedge_rule():
    rule = find_facet_rule(1, seed=0)
    layout = facet_layout(rule, 3)
    assert layout == [("SmidEdge", ())]


@pytest.mark.parametrize("q", [2, 4, 6])
def test_facet_candidates_offer_determined_layouts(q):
    # the cheap (vertex/edge-heavy) layouts are all underdetermined at
    # high degree; the list must still contain layouts with at least as
    # many unknowns as there are invariant moments, or searches beyond
    # degree 4 can never succeed
    need = invariant_moment_count(q, 2)
    combos = sbpquad.signatures._tri_facet_candidates(q)
    unknowns = [len(c) + sum(orbit_structure(k, 2).n_params for k in c)
                for c in combos]
    assert max(unknowns) >= need
    # the determined tail must not disturb the cheap prefix that the
    # low-degree searches (and the 7-node tet rule) rely on
    assert combos[0] == ("S1",)
    assert ("SmidEdge",) in combos[:4]


# ----------------------------------------------------------------------
# search specs


def test_volume_specs_tri_lgl_structure():
    first = next(volume_search_specs("tri", 2, lgl_rule(3)))
    assert first.kinds[:2] == ("Svert", "SmidEdge")
    assert first.frozen == {0: (), 1: ()}


def test_volume_specs_edge_parameter_frozen():
    spec = next(volume_search_specs("tri", 3, lgl_rule(4)))
    assert spec.kinds[0] == "Svert"
    assert spec.kinds[1] == "Sedge"
    (alpha,) = spec.frozen[1]
    assert alpha == pytest.approx((1.0 + 1.0 / np.sqrt(5.0)) / 2.0)
    assert not spec.free_mask[spec.param_slices[1]].any()


def test_volume_specs_interior_only():
    specs = volume_search_specs("tri", 3, None)
    for spec in specs:
        assert not spec.frozen
        assert not {"Svert", "SmidEdge", "Sedge"} & set(spec.kinds)


def fail(what):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return raise_


@pytest.mark.parametrize("domain, family", [("tri", "lgl"), ("tri", "lg"),
                                            ("tri", None), ("tet", "gen")])
def test_volume_specs_run_no_search(monkeypatch, tet_result, domain,
                                    family):
    """volume_search_specs only enumerates layouts: with every search
    entry point failing, each spec freezes the face rule it was given."""
    facet_rule = {"lgl": lgl_rule(3), "lg": lg_rule(2), None: None,
                  "gen": tet_result.rule.facet_rule}[family]
    for name in ("find_facet_rule", "solve_coupled", "floor_residual"):
        monkeypatch.setattr(sbpquad.signatures, name, fail(name))
    specs = list(volume_search_specs(domain, 2, facet_rule))
    layout = [] if facet_rule is None else facet_layout(
        facet_rule, specs[0].dim)
    assert specs
    for spec in specs:
        assert spec.kinds[:len(layout)] == tuple(k for k, _ in layout)
        assert spec.frozen == {i: params
                               for i, (_, params) in enumerate(layout)}


@pytest.mark.parametrize("domain, qv, family", [
    ("tri", 3, "lgl"), ("tri", 3, "lg"), ("tet", 2, "gen"),
    ("tri", 2, None)])
def test_find_rule_stamps_the_face_rule_on_the_winner(monkeypatch, domain,
                                                      qv, family):
    """The rule find_rule returns carries the face rule its volume specs
    were frozen to, its facet family and its SBP degree; an
    interior-only rule carries none of them."""
    specs = sbpquad.signatures.volume_search_specs
    frozen = []

    def record(domain, qv, facet_rule):
        frozen.append(facet_rule)
        return specs(domain, qv, facet_rule)

    monkeypatch.setattr(sbpquad.signatures, "volume_search_specs", record)
    rule = find_rule(domain, qv, family).rule
    assert len(frozen) == 1
    assert rule.facet_rule is frozen[0]
    if family is None:
        assert (rule.facet_rule, rule.facet_kind, rule.sbp_p) \
            == (None, None, None)
    else:
        assert rule.facet_rule is not None
        assert rule.facet_kind == family
        assert rule.sbp_p == (qv + 1) // 2


@pytest.mark.parametrize("domain, qv, family", [("tri", 3, "lgl"),
                                                ("tet", 2, "gen")])
def test_volume_specs_built_only_when_reached(monkeypatch, domain, qv,
                                              family):
    """find_rule builds a volume SearchSpec only for a layout it tries:
    one per distinct volume layout in the attempt log."""
    built = []
    d = {"tri": 2, "tet": 3}[domain]

    class CountedSpec(SearchSpec):
        def __post_init__(self):
            super().__post_init__()
            if self.dim == d:   # not a facet-stage layout
                built.append(self.kinds)

    monkeypatch.setattr(sbpquad.signatures, "SearchSpec", CountedSpec)
    res = find_rule(domain, qv, family)
    assert res.status == "ok"
    tried = {tuple(a["kinds"]) for a in res.attempts
             if a["stage"] == "volume"}
    assert len(built) == len(tried) == len(set(built))


def only_interior(combo):
    """interior_candidates stand-in that offers one interior combo."""
    return lambda d, qv, n_facet_orbits: [combo]


def test_volume_specs_explicit_interior(monkeypatch):
    """A spec lists the frozen facet kinds, then the interior combo."""
    monkeypatch.setattr(sbpquad.signatures, "interior_candidates",
                        only_interior(("S1",)))
    specs = list(volume_search_specs("tri", 2, lgl_rule(3)))
    assert len(specs) == 1
    assert specs[0].kinds == ("Svert", "SmidEdge", "S1")


# ----------------------------------------------------------------------
# driver


@pytest.mark.parametrize("domain, family", [("tet", "lgl"), ("tet", "lg"),
                                           ("tri", "gen")])
def test_find_rule_rejects_facet_family_of_other_domain(domain, family):
    with pytest.raises(ValueError, match="does not apply"):
        find_rule(domain, 2, family)


def test_find_rule_rejects_an_unknown_domain():
    with pytest.raises(ValueError, match="unknown domain 'interval'"):
        find_rule("interval", 3)


@pytest.mark.parametrize("domain", ["tri", "tet"])
def test_find_rule_defaults_to_first_facet_family(domain, tri_lgl_results,
                                                  tet_result):
    """Without a family, find_rule searches the domain's first one: LGL
    on the triangle, the searched face rule on the tet."""
    res = find_rule(domain, 2)
    assert res.status == "ok"
    assert res.rule.facet_kind == FACET_FAMILIES[domain][0]
    explicit = tri_lgl_results[2] if domain == "tri" else tet_result
    assert canonical_json(rule_to_dict(res.rule)) == \
        canonical_json(rule_to_dict(explicit.rule))


def test_find_rule_budget_exhausted():
    res = find_rule("tri", 4, "lgl", seed=0, budget_s=0.0)
    assert res.status == "budget"
    assert res.rule is None


@pytest.mark.parametrize("budget_s", [float("nan"), -1.0])
def test_find_rule_rejects_bad_budget(monkeypatch, budget_s):
    """A NaN budget would never run out (every comparison with it is
    false): it and a negative one are rejected before any search."""
    for name in ("find_facet_rule", "volume_search_specs"):
        monkeypatch.setattr(sbpquad.signatures, name, fail(name))
    with pytest.raises(ValueError, match="budget_s"):
        find_rule("tet", 4, "gen", budget_s=budget_s)


def test_find_rule_budget_caps_facet_stage():
    # the degree-4 tet needs a degree-4 face rule first, 16 solves long;
    # a spent budget stops the search before the first of them
    res = find_rule("tet", 4, "gen", budget_s=0.0)
    assert res.status == "budget"
    assert res.attempts == []
    assert res.elapsed < 1.0


def test_find_rule_logs_facet_stage(tet_result):
    # the mid-edge face rule is the third facet layout; all three facet
    # layouts have 1 unknown for 2 moments (count screen), and the two
    # before it cannot reach their moments with weights on the floor, so
    # each logs one floor-screen record and no sweep; the volume layout
    # has enough unknowns
    log = [(a["stage"], a["sweep"], a["converged"], a["unknowns"],
            a["moments"], a["screen"]) for a in tet_result.attempts]
    assert log == ([("facet", None, False, 1, 2, "floor")] * 2
                   + [("facet", 0, True, 1, 2, "count"),
                      ("volume", 0, True, 2, 2, None)])
    assert tet_result.attempts[2]["kinds"] == ["SmidEdge"]


def test_attempt_records_carry_the_work_of_each_solve(tet_result):
    # both solves converge in round zero, by 11 LMA iterations and no
    # swarm step; the floor-screened records ran no solve
    work = [(a["rounds"], a["lma_iterations"], a["pso_iterations"])
            for a in tet_result.attempts]
    assert work == [(None, None, None)] * 2 + [(0, 11, 0)] * 2
    again = find_rule("tet", 2, "gen", seed=0)
    assert again.attempts == tet_result.attempts


@pytest.mark.parametrize("p", [1, 2])
def test_facet_screen_keeps_face_rule(monkeypatch, p):
    """Underdetermined layouts that fail round zero fail the swarm rounds
    too, and the layouts the floor screen skips fail every sweep of the
    full solve, so the screens leave the face rule bit-identical to the
    one found with the full solve on every sweep of every layout."""
    full = sbpquad.signatures.solve_coupled
    calls = []

    def record(spec, rng, **kw):
        res = full(spec, rng, **kw)
        moments = invariant_moment_count(spec.qv, spec.dim)
        calls.append((spec.kinds, spec.free_mask.sum() < moments,
                      kw["max_rounds"], res.converged))
        return res

    monkeypatch.setattr(sbpquad.signatures, "solve_coupled", record)
    screened = find_facet_rule(p)
    # round zero only for the underdetermined layouts, 4 rounds otherwise
    assert all(r == (0 if under else 4) for _, under, r, _ in calls)
    solved = {kinds for kinds, *_ in calls}
    calls.clear()
    monkeypatch.setattr(sbpquad.signatures, "solve_coupled",
                        lambda spec, rng, **kw: record(
                            spec, rng, **{**kw, "max_rounds": 4}))
    monkeypatch.setattr(sbpquad.signatures, "floor_residual",
                        lambda spec: None)
    monkeypatch.setattr(sbpquad.signatures, "_solve_layouts",
                        oracles.solve_layouts)
    unscreened = find_facet_rule(p)
    assert np.array_equal(screened.nodes.coords, unscreened.nodes.coords)
    assert np.array_equal(screened.nodes.weights, unscreened.nodes.weights)
    assert screened.provenance == unscreened.provenance
    # the floor screen skipped weight-only layouts (vertex, mid-edge and
    # centroid orbits), and each of their 3 full solves failed
    skipped = [(kinds, ok) for kinds, _, _, ok in calls
               if kinds not in solved]
    assert len(skipped) == 3 * {1: 2, 2: 7}[p]
    assert not any(ok for _, ok in skipped)
    assert {k for kinds, _ in skipped for k in kinds} \
        <= {"Svert", "SmidEdge", "S1"}


def rule_bytes(result):
    return canonical_json(rule_to_dict(result.rule))


@pytest.mark.parametrize("domain, qv, family", [
    *[("tri", q, "lgl") for q in TRI_LGL_DEGREES],
    *[("tri", q, "lg") for q in TRI_LG_DEGREES], ("tet", 2, "gen")])
def test_floor_screen_keeps_every_rule(monkeypatch, tri_lgl_results,
                                       tri_lg_results, tet_result, domain,
                                       qv, family):
    """With the floor screen off and every sweep solved, every pinned
    request finds the same rule, and each layout the screen skips fails
    all of its sweeps."""
    screened = {"lgl": tri_lgl_results, "lg": tri_lg_results,
                "gen": {2: tet_result}}[family][qv]
    monkeypatch.setattr(sbpquad.signatures, "floor_residual",
                        lambda spec: None)
    monkeypatch.setattr(sbpquad.signatures, "_solve_layouts",
                        oracles.solve_layouts)
    full = find_rule(domain, qv, family, seed=0)
    assert rule_bytes(full) == rule_bytes(screened)
    for skipped in screened.attempts:
        if skipped["screen"] != "floor":
            continue
        solves = [a for a in full.attempts
                  if (a["stage"], a["kinds"])
                  == (skipped["stage"], skipped["kinds"])]
        assert len(solves) == (3 if skipped["stage"] == "facet" else 5)
        assert not any(a["converged"] for a in solves)


def test_attempt_records_say_why_each_sweep_stopped(tri_lgl_results,
                                                   tet_result):
    """tri LGL q6's first sweep ends at the floor in swarm round 1 and
    its second converges in round zero; converged and floor-screened
    records carry no reason."""
    log = [(a["sweep"], a["converged"], a["reason"], a["rounds"])
           for a in tri_lgl_results[6].attempts]
    assert log == [(0, False, "floor", 1), (1, True, None, 0)]
    assert [a["reason"] for a in tet_result.attempts] == [None] * 4


def test_failed_round_zero_solve_ran_out_of_rounds(monkeypatch):
    # one S21 orbit has 2 unknowns for the 4 invariant moments of the
    # degree-4 face rule: one round-zero solve, and it fails
    monkeypatch.setattr(sbpquad.signatures, "_tri_facet_candidates",
                        lambda q: [("S21",)])
    res = find_rule("tet", 4, "gen")
    assert res.status == "exhausted"
    assert [(a["screen"], a["reason"], a["rounds"])
            for a in res.attempts if "error" not in a] \
        == [("count", "no convergence", 0)]


def facet_search(p):
    """find_facet_rule(p) and the attempt log of its facet stage."""
    run = sbpquad.signatures._Run()
    token = sbpquad.signatures._RUN.set(run)
    try:
        return find_facet_rule(p), run.attempts
    finally:
        sbpquad.signatures._RUN.reset(token)


@pytest.mark.parametrize("kind, q", [
    ("tet", 3), ("tet", 4), ("facet", 2), ("facet", 3)])
def test_count_screen_keeps_every_rule(monkeypatch, kind, q):
    """With a round-zero solve on every sweep of a layout short of
    unknowns, tet q3 and q4 and the degree-4 and degree-6 face rules are
    the same, and every sweep after a count-screened layout's first
    fails: its one solve loses no rule."""
    def search():
        if kind == "facet":
            return facet_search(q)
        res = find_rule(kind, q, "gen", seed=0)
        return res.rule, res.attempts

    rule, log = search()
    monkeypatch.setattr(sbpquad.signatures, "_solve_layouts",
                        oracles.solve_layouts)
    full_rule, full_log = search()
    assert canonical_json(rule_to_dict(full_rule)) \
        == canonical_json(rule_to_dict(rule))
    assert all(a["sweep"] == 0 for a in log if a["screen"] == "count")
    extra = [a for a in full_log if a["screen"] == "count" and a["sweep"]]
    assert len(extra) == 2 * sum(a["screen"] == "count" for a in log)
    assert extra and not any(a["converged"] for a in extra)


def test_tet_q4_attempt_log():
    """tet q4's facet stage, layout by layout: weight-only layouts are
    floor-screened, layouts short of unknowns get one round-zero solve,
    two determined layouts end all 3 sweeps at the floor and the third
    converges; the volume stage converges on its first solve."""
    res = find_rule("tet", 4, "gen", seed=0)
    assert res.status == "ok" and res.rule.n_nodes == 26
    log = [(a["stage"], a["screen"], a["sweep"], a["converged"],
            a["reason"]) for a in res.attempts]
    floor = ("facet", "floor", None, False, None)
    count = ("facet", "count", 0, False, "no convergence")
    assert log == ([floor] * 6 + [count] * 2 + [floor] + [count] * 6
                   + [("facet", None, sweep, False, "floor")
                      for sweep in (0, 1, 2)] * 2
                   + [("facet", None, 0, True, None),
                      ("volume", None, 0, True, None)])
    assert res.attempts[-2]["kinds"] == ["SmidEdge", "S1", "S21"]


def test_all_rounds_solve_keeps_tri_lgl_q6(monkeypatch, tri_lgl_results):
    """With every sweep run through all its rounds, tri LGL q6 finds the
    same rule: the sweep the floor stop ends early fails either way."""
    monkeypatch.setattr(sbpquad.signatures, "solve_coupled",
                        oracles.solve_coupled)
    full = find_rule("tri", 6, "lgl", seed=0)
    assert rule_bytes(full) == rule_bytes(tri_lgl_results[6])
    assert [(a["sweep"], a["converged"], a["reason"], a["rounds"])
            for a in full.attempts] == [(0, False, "no convergence", 10),
                                        (1, True, None, 0)]


@pytest.mark.parametrize("domain, qv, family, skipped", [
    ("tri", 2, "lgl", [("volume", ("Svert", "SmidEdge"))]),
    ("tet", 2, "gen", [("facet", ("S1",)), ("facet", ("Svert",))])])
def test_floor_screened_layouts_are_never_solved(monkeypatch, domain, qv,
                                                 family, skipped):
    """A layout no weights on the floor solve logs one record, with no
    sweep and its least residual on the floor, and gets no solve."""
    solve = sbpquad.signatures.solve_coupled
    solved = []

    def record(spec, rng, **kw):
        solved.append(spec.kinds)
        return solve(spec, rng, **kw)

    monkeypatch.setattr(sbpquad.signatures, "solve_coupled", record)
    res = find_rule(domain, qv, family, seed=0)
    assert res.status == "ok"
    floor = [a for a in res.attempts if a["screen"] == "floor"]
    assert [(a["stage"], tuple(a["kinds"])) for a in floor] == skipped
    assert all(a["sweep"] is None and not a["converged"]
               and a["residual"] > 1e-5 for a in floor)
    assert not {kinds for _, kinds in skipped} & set(solved)
    assert len(solved) == len(res.attempts) - len(floor)


def test_search_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize takes about 0.6 s and 45 MB; the floor
    # screen's nnls is numpy's
    src = Path(sbpquad.__file__).resolve().parents[1]
    code = ("import sys, sbpquad\n"
            "from sbpquad.signatures import find_rule\n"
            "assert find_rule('tri', 2, 'lgl').status == 'ok'\n"
            "assert find_rule('tet', 2, 'gen').status == 'ok'\n"
            "sys.exit('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0


def test_find_rule_no_layout_converges(monkeypatch):
    # one centroid node cannot integrate the degree-2 moments
    monkeypatch.setattr(sbpquad.signatures, "interior_candidates",
                        only_interior(("S1",)))
    res = find_rule("tri", 2, facet_kind=None, sweeps=1)
    assert res.status == "exhausted"
    assert res.rule is None
    assert all(not a["converged"] for a in res.attempts)


@pytest.mark.parametrize("domain, qv, facet_kind, sweeps", [
    ("tri", 0, "lgl", 5), ("tri", 0, "lg", 5), ("tet", 0, "gen", 5),
    ("tri", -1, None, 5), ("tri", 2, "lgl", 0), ("tri", 2, "lgl", -2)])
def test_find_rule_rejects_unworkable_requests(monkeypatch, domain, qv,
                                               facet_kind, sweeps):
    """Degree 0 with a facet family (SBP degree p = 0), a negative degree
    and fewer than one sweep are refused before any search starts."""
    for name in ("find_facet_rule", "volume_search_specs"):
        monkeypatch.setattr(sbpquad.signatures, name, fail(name))
    with pytest.raises(ValueError):
        find_rule(domain, qv, facet_kind=facet_kind, sweeps=sweeps)


@pytest.mark.parametrize("domain, bad, error, match", [
    ("tri", dict(seed=-1), ValueError, "seed must be at least 0"),
    ("tet", dict(seed=-1), ValueError, "seed must be at least 0"),
    ("tri", dict(seed=1.5), TypeError, "interpreted as an integer"),
    ("tri", dict(sweeps=2.5), TypeError, "interpreted as an integer"),
    ("tri", dict(qv=2.0), TypeError, "interpreted as an integer"),
    ("tet", dict(qv=2.0), TypeError, "interpreted as an integer")])
def test_find_rule_rejects_non_integer_and_negative_requests(
        monkeypatch, domain, bad, error, match):
    """A float degree, seed or sweep count is refused as a TypeError,
    and a negative seed as a ValueError, before any search: numpy used
    to raise them from inside the first solve."""
    for name in ("find_facet_rule", "_solve_layouts"):
        monkeypatch.setattr(sbpquad.signatures, name, fail(name))
    with pytest.raises(error, match=match):
        find_rule(domain, **{"qv": 2, **bad})


def test_find_rule_interior_degree0_archives():
    res = find_rule("tri", 0, facet_kind=None, sweeps=1)
    assert res.status == "ok"
    data = rule_to_dict(res.rule)
    assert rule_to_dict(rule_from_dict(data)) == data


def test_find_rule_interior_only_gauss_like():
    # without facet constraints the degree-2 search finds the 3-point
    # interior rule
    res = find_rule("tri", 2, facet_kind=None, seed=0, sweeps=3)
    assert res.status == "ok"
    assert res.rule.n_nodes == 3
    assert np.allclose(np.sort(res.rule.nodes.bary, axis=1),
                       [[1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]] * 3, atol=1e-12)


def test_find_rule_attempt_log(tri_lgl_results):
    res = tri_lgl_results[2]
    assert res.status == "ok"
    assert res.attempts[-1]["converged"]
    assert res.rule.provenance["seed"] == 0


def test_find_rule_reports_facet_stage_failure(monkeypatch):
    """A facet search that comes up empty surfaces as an exhausted
    result, not an exception."""
    def no_facet(*args, **kwargs):
        raise FacetSearchError("nothing reachable")

    monkeypatch.setattr(sbpquad.signatures, "find_facet_rule", no_facet)
    res = find_rule("tet", 2, facet_kind="gen", seed=0)
    assert res.status == "exhausted"
    assert res.rule is None
    assert res.attempts[0]["stage"] == "facet"


def test_cli_find_exit_on_facet_stage_failure(monkeypatch):
    import sbpquad.cli as cli

    def no_facet(*args, **kwargs):
        raise FacetSearchError("nothing reachable")

    monkeypatch.setattr(sbpquad.signatures, "find_facet_rule", no_facet)
    code = cli.main(["find", "--domain", "tet", "--qv", "2"])
    assert code == cli.EXIT_SEARCH
