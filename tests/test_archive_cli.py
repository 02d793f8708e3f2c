"""JSON archives and the command-line entry points."""

import collections
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbpquad.advection as advection
import sbpquad.cli as cli
import sbpquad.signatures
from sbpquad.archive import (
    ArchiveError,
    canonical_json,
    load_operator,
    load_rule,
    operator_from_dict,
    operator_to_dict,
    rule_from_dict,
    rule_to_dict,
    save_operator,
    save_rule,
)
from sbpquad.operators import build_operator
from sbpquad.search import RuleValidationError, lgl_rule, validate_rule
from sbpquad.simplex import reference_simplex


def run_cli(argv):
    """CLI entry point that folds SystemExit into the return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


@pytest.fixture(scope="module")
def rule_file(tri_lgl_results, tmp_path_factory):
    path = tmp_path_factory.mktemp("rules") / "tri-q2.json"
    save_rule(tri_lgl_results[2].rule, path)
    return path


# ----------------------------------------------------------------------
# canonical serialization


def test_canonical_json_layout():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    # insertion order cannot leak into the bytes
    assert text == canonical_json({"a": [1.5, 2], "b": 1})


def test_rule_roundtrip_triangle(tri_lgl_results, tmp_path):
    rule = tri_lgl_results[3].rule
    path = tmp_path / "rule.json"
    save_rule(rule, path)
    loaded = load_rule(path)
    assert loaded.domain == rule.domain
    assert loaded.qv == rule.qv
    assert loaded.sbp_p == rule.sbp_p
    assert np.array_equal(loaded.nodes.coords, rule.nodes.coords)
    assert np.array_equal(loaded.nodes.weights, rule.nodes.weights)
    assert loaded.facet_rule is not None
    assert np.array_equal(loaded.facet_rule.nodes.coords,
                          rule.facet_rule.nodes.coords)
    # serializing the reloaded rule reproduces the file byte for byte
    assert canonical_json(rule_to_dict(loaded)) == path.read_text()


def test_rule_roundtrip_interval(tmp_path):
    rule = lgl_rule(4)
    path = tmp_path / "lgl4.json"
    save_rule(rule, path)
    loaded = load_rule(path)
    assert loaded.signature is None
    assert np.array_equal(loaded.nodes.coords, rule.nodes.coords)
    assert np.array_equal(loaded.nodes.weights, rule.nodes.weights)
    assert canonical_json(rule_to_dict(loaded)) == path.read_text()


@pytest.mark.parametrize("field, value", [("facet_kind", "lg"),
                                          ("facet_kind", None),
                                          ("sbp_p", 7), ("qv", 3)])
def test_load_rule_rejects_tampered_interval_rule(field, value):
    data = rule_to_dict(lgl_rule(4))
    data[field] = value
    with pytest.raises(ArchiveError, match="not the .* rule of 4 nodes"):
        rule_from_dict(data)


def test_rule_roundtrip_tet(tet_result, tmp_path):
    path = tmp_path / "tet.json"
    save_rule(tet_result.rule, path)
    loaded = load_rule(path)
    assert loaded.dim == 3
    assert loaded.facet_rule.dim == 2
    assert np.array_equal(loaded.nodes.weights,
                          tet_result.rule.nodes.weights)


def test_operator_roundtrip(tri_lgl_results, tmp_path):
    op = build_operator(tri_lgl_results[2].rule)
    path = tmp_path / "op.json"
    save_operator(op, path)
    loaded = load_operator(path)
    assert loaded.p == op.p
    assert np.array_equal(loaded.H, op.H)
    for i in range(op.dim):
        assert np.array_equal(loaded.Q[i], op.Q[i])
        assert np.array_equal(loaded.D[i], op.D[i])
        assert np.array_equal(loaded.E[i], op.E[i])
    assert canonical_json(operator_to_dict(loaded)) == path.read_text()


def test_same_rule_serializes_identically(tri_lg_results):
    rule = tri_lg_results[2].rule
    assert canonical_json(rule_to_dict(rule)) == \
        canonical_json(rule_to_dict(rule))
    # independently constructed interval rules agree too
    assert canonical_json(rule_to_dict(lgl_rule(5))) == \
        canonical_json(rule_to_dict(lgl_rule(5)))


# ----------------------------------------------------------------------
# malformed archives


def test_load_rule_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ArchiveError, match="malformed"):
        load_rule(path)


def test_load_rule_wrong_format(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"format": "something-else", "schema": 1}))
    with pytest.raises(ArchiveError, match="not a rule"):
        load_rule(path)


def test_load_rule_wrong_schema(rule_file, tmp_path):
    data = json.loads(rule_file.read_text())
    data["schema"] = 99
    path = tmp_path / "future.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ArchiveError, match="schema"):
        load_rule(path)


def test_load_rule_unknown_domain(rule_file):
    data = json.loads(rule_file.read_text())
    for domain in ("hexagon", "Tri", None, 2, ["tri"], {"tri": 2}):
        data["domain"] = domain
        with pytest.raises(ArchiveError, match="unknown domain"):
            rule_from_dict(data)


def test_load_rule_tampered_weight(rule_file, tmp_path):
    data = json.loads(rule_file.read_text())
    data["orbits"][0]["weight"] *= 1.01
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RuleValidationError):
        load_rule(path)


def test_explicit_nodes_rejected_for_simplex(rule_file):
    data = json.loads(rule_file.read_text())
    del data["orbits"]
    data["nodes"] = [0.0]
    data["weights"] = [2.0]
    with pytest.raises(ArchiveError, match="interval"):
        rule_from_dict(data)


def test_every_found_rule_passes_the_facet_checks(all_rules):
    for rule in all_rules.values():
        assert canonical_json(rule_to_dict(rule_from_dict(
            rule_to_dict(rule)))) == canonical_json(rule_to_dict(rule))


def test_load_rule_rejects_relabelled_facet_family(tri_lgl_results):
    # LGL edge nodes labelled as the LG family
    data = rule_to_dict(tri_lgl_results[3].rule)
    data["facet_kind"] = "lg"
    with pytest.raises(ArchiveError, match="not the lg rule"):
        rule_from_dict(data)


def test_load_rule_rejects_foreign_tet_facet_family(tet_result):
    data = rule_to_dict(tet_result.rule)
    data["facet_kind"] = "lgl"
    with pytest.raises(ArchiveError, match="facet family 'lgl'"):
        rule_from_dict(data)


@pytest.mark.parametrize("sbp_p, match", [
    (5, "sbp_p 5 needs qv >= 9"),          # beyond what q_v = 3 supports
    (1, "not the lgl rule of sbp_p 1"),    # LGL(3) edges, not LGL(4)
    (0, "sbp_p 0"), (None, "sbp_p None"), ("2", "sbp_p '2'"),
], ids=["above-qv", "other-facet-rule", "zero", "missing", "string"])
def test_load_rule_rejects_tampered_sbp_p(tri_lgl_results, sbp_p, match):
    data = rule_to_dict(tri_lgl_results[3].rule)
    assert data["sbp_p"] == 2
    data["sbp_p"] = sbp_p
    with pytest.raises(ArchiveError, match=match):
        rule_from_dict(data)


def test_operator_archive_checks_norm(tri_lgl_results, tmp_path):
    op = build_operator(tri_lgl_results[2].rule)
    data = operator_to_dict(op)
    data["H"][0] *= 1.0 + 1e-9
    with pytest.raises(ArchiveError, match="norm"):
        operator_from_dict(data)


@pytest.mark.parametrize("name", ["E", "Q", "D"])
def test_operator_archive_checks_every_array(tri_lgl_results, name):
    op = build_operator(tri_lgl_results[2].rule)
    data = operator_to_dict(op)
    arr = np.asarray(data[name])
    arr[np.unravel_index(np.abs(arr).argmax(), arr.shape)] *= 1.0 + 1e-9
    data[name] = arr.tolist()
    with pytest.raises(ArchiveError, match=f"{name} disagrees"):
        operator_from_dict(data)


def test_operator_archive_rejects_wrong_shape(tri_lgl_results):
    data = operator_to_dict(build_operator(tri_lgl_results[2].rule))
    data["D"] = data["D"][:1]
    with pytest.raises(ArchiveError, match="D disagrees"):
        operator_from_dict(data)
    data["Q"] = [[1.0], [2.0, 3.0]]
    with pytest.raises(ArchiveError, match="unreadable"):
        operator_from_dict(data)


def test_operator_archive_checks_schema(tri_lgl_results):
    data = operator_to_dict(build_operator(tri_lgl_results[2].rule))
    data["schema"] = 2
    with pytest.raises(ArchiveError, match="schema"):
        operator_from_dict(data)


def _free_orbit(data):
    return next(o for o in data["orbits"] if o["params"])


@pytest.mark.parametrize("archive, edit, error", [
    ("rule", lambda d: d["orbits"][0].update(kind="S999"), ArchiveError),
    ("rule", lambda d: d.update(orbits=[]), ArchiveError),
    ("rule", lambda d: d.__delitem__("domain"), ArchiveError),
    ("rule", lambda d: d.update(qv="abc"), ArchiveError),
    ("rule", lambda d: _free_orbit(d)["params"].append(0.1), ArchiveError),
    ("rule", lambda d: _free_orbit(d).update(params=["x"]), ArchiveError),
    ("rule", lambda d: d["orbits"][0].update(weight="w"), ArchiveError),
    ("rule", lambda d: d["orbits"][0].update(weight=float("nan")),
     ArchiveError),
    ("rule", lambda d: [d], ArchiveError),
    ("rule", lambda d: d["facet_rule"]["nodes"].__delitem__(-1),
     ArchiveError),
    ("rule", lambda d: _free_orbit(d).update(params=[5.0]),
     RuleValidationError),
    ("rule", lambda d: d["orbits"].append(d["orbits"][0]),
     RuleValidationError),
    ("operator", lambda d: d.__delitem__("p"), ArchiveError),
    ("operator", lambda d: d.update(p="2"), ArchiveError),
    ("operator", lambda d: d.update(p=1.5), ArchiveError),
    ("operator", lambda d: d.update(p=0), ArchiveError),
    ("operator", lambda d: d.update(p=5), ArchiveError),
    ("operator", lambda d: d.update(rule="tri"), ArchiveError),
], ids=["orbit-kind", "no-orbits", "no-domain", "qv-string",
        "param-count", "param-string", "weight-string", "weight-nan",
        "json-list", "facet-node-missing", "orbit-outside",
        "coincident-orbits", "no-p", "p-string", "p-float", "p-zero",
        "p-above-rule", "rule-string"])
def test_malformed_archive_is_rejected(tri_lgl_results, tmp_path, archive,
                                       edit, error):
    """A missing or ill-typed field is an ArchiveError (sbpquad verify
    exits 4); orbits that leave the element or coincide are a
    RuleValidationError (exit 3)."""
    op = build_operator(tri_lgl_results[3].rule)
    data = operator_to_dict(op) if archive == "operator" \
        else rule_to_dict(op.rule)
    data = edit(data) or data
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error):
        (load_operator if archive == "operator" else load_rule)(path)
    if archive == "rule":
        assert run_cli(["verify", str(path)]) == (
            cli.EXIT_USAGE if error is ArchiveError else cli.EXIT_VERIFY)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_archives_round_trip_byte_identically(all_rules, all_operators,
                                              data):
    """Loading a rule or operator archive, whatever its JSON layout, and
    writing it again gives the canonical bytes."""
    archives = ([(rule_to_dict(r), rule_from_dict) for r in
                 all_rules.values()]
                + [(operator_to_dict(o), operator_from_dict) for o in
                   all_operators.values()])
    payload, from_dict = data.draw(st.sampled_from(archives))
    text = json.dumps(payload, indent=data.draw(st.sampled_from(
        [None, 0, 1, 4])), sort_keys=data.draw(st.booleans()))
    rebuilt = from_dict(json.loads(text))
    to_dict = rule_to_dict if from_dict is rule_from_dict \
        else operator_to_dict
    assert canonical_json(to_dict(rebuilt)) == canonical_json(payload)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_rule_rejects_perturbed_weights_and_moved_nodes(all_rules,
                                                                 data):
    """Scaling one orbit's weights, or moving one node off its orbit,
    breaks a rule's invariants."""
    rule = all_rules[data.draw(st.sampled_from(sorted(all_rules)))]
    nodes = rule.nodes
    if data.draw(st.booleans()):
        orbit = data.draw(st.sampled_from(sorted(set(nodes.orbit_index))))
        weights = nodes.weights.copy()
        weights[nodes.orbit_index == orbit] *= 1.0 + data.draw(
            st.floats(1e-8, 0.5)) * data.draw(st.sampled_from([-1, 1]))
        nodes = dataclasses.replace(nodes, weights=weights)
    else:
        step = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=rule.dim, max_size=rule.dim)))
        assume(np.linalg.norm(step) > 1e-3)
        coords = nodes.coords.copy()
        coords[data.draw(st.integers(0, rule.n_nodes - 1))] += \
            data.draw(st.floats(1e-6, 1e-2)) * step / np.linalg.norm(step)
        nodes = dataclasses.replace(
            nodes, coords=coords,
            bary=reference_simplex(rule.dim).barycentric(coords))
    with pytest.raises(RuleValidationError):
        validate_rule(dataclasses.replace(rule, nodes=nodes))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_operator_archive_rejects_any_changed_entry(all_operators, data):
    """Changing any entry of any stored array by 1e-10 of the array's
    largest entry, or more, is caught against the rebuild."""
    op = all_operators[data.draw(st.sampled_from(sorted(all_operators)))]
    name = data.draw(st.sampled_from(["D", "E", "H", "Q"]))
    payload = operator_to_dict(op)
    arr = np.asarray(payload[name])
    arr.flat[data.draw(st.integers(0, arr.size - 1))] += (
        data.draw(st.floats(1e-10, 1.0)) * data.draw(st.sampled_from(
            [-1, 1])) * np.abs(arr).max())
    payload[name] = arr.tolist()
    with pytest.raises(ArchiveError, match=f"{name} disagrees"):
        operator_from_dict(payload)


# ----------------------------------------------------------------------
# command-line interface


def test_cli_find_writes_valid_archive(tmp_path):
    out = tmp_path / "found.json"
    code = run_cli(["find", "--domain", "tri", "--qv", "1",
                    "--facet", "lgl", "--seed", "0", "-o", str(out)])
    assert code == cli.EXIT_OK
    rule = load_rule(out)
    assert rule.qv == 1
    assert rule.n_nodes == 6


def test_cli_find_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["find", "--domain", "tri", "--qv", "1",
                    "--seed", "3", "-o", str(a)]) == cli.EXIT_OK
    assert run_cli(["find", "--domain", "tri", "--qv", "1",
                    "--seed", "3", "-o", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cli_find_stdout_payload(capsys):
    code = run_cli(["find", "--domain", "tri", "--qv", "1"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["format"] == "quadrature-rule"


def test_cli_find_budget_exceeded(capsys):
    code = run_cli(["find", "--domain", "tet", "--qv", "2",
                    "--budget", "0.001s"])
    assert code == cli.EXIT_SEARCH
    err = capsys.readouterr().err
    assert re.search(r"search budget after (\d+) facet \(\1 screened\) "
                     r"and 0 volume \(0 screened\) attempt\(s\)", err)


def test_cli_find_reports_screened_attempts(monkeypatch, capsys):
    # one vertex or one centroid orbit cannot carry the 2 invariant
    # moments of degree 2: no weight solves them, so the floor screen
    # logs one record for each layout and runs no sweep
    monkeypatch.setattr(sbpquad.signatures, "_tri_facet_candidates",
                        lambda q: [("Svert",), ("S1",)])
    assert run_cli(["find", "--domain", "tet", "--qv", "2"]) \
        == cli.EXIT_SEARCH
    assert ("search exhausted after 2 facet (2 screened) and 0 volume "
            "(0 screened) attempt(s)") in capsys.readouterr().err


def test_cli_find_counts_sweeps_ended_at_the_floor(monkeypatch, capsys):
    # tri LGL q6's first layout: its first sweep ends at the floor
    first = sbpquad.signatures.interior_candidates
    monkeypatch.setattr(sbpquad.signatures, "interior_candidates",
                        lambda *args: first(*args)[:1])
    assert run_cli(["find", "--domain", "tri", "--qv", "6",
                    "--sweeps", "1"]) == cli.EXIT_SEARCH
    assert ("search exhausted after 0 facet (0 screened) and 1 volume "
            "(0 screened, 1 ended at the floor) attempt(s)"
            ) in capsys.readouterr().err


def test_cli_find_rejects_facet_family_of_other_domain(capsys):
    for domain, family in (("tet", "lg"), ("tet", "lgl"), ("tri", "gen")):
        assert run_cli(["find", "--domain", domain, "--qv", "2",
                        "--facet", family]) == cli.EXIT_USAGE
        assert "does not apply" in capsys.readouterr().err


def test_cli_verify_pass(rule_file, capsys):
    assert run_cli(["verify", str(rule_file)]) == cli.EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_one_node_rule(tmp_path, capsys):
    """A one-node rule has no node spacing; verify reports the rest."""
    path = tmp_path / "r.json"
    assert run_cli(["find", "--domain", "tri", "--qv", "0",
                    "--facet", "none", "-o", str(path)]) == cli.EXIT_OK
    assert load_rule(path).n_nodes == 1
    capsys.readouterr()
    assert run_cli(["verify", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "1 nodes" in out and "PASS" in out
    assert "spacing" not in out


def test_cli_verify_missing_file(tmp_path):
    assert run_cli(["verify", str(tmp_path / "nope.json")]) \
        == cli.EXIT_USAGE


def test_cli_verify_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2")
    assert run_cli(["verify", str(path)]) == cli.EXIT_USAGE


def test_cli_verify_tampered_rule(rule_file, tmp_path, capsys):
    data = json.loads(rule_file.read_text())
    data["orbits"][0]["weight"] *= 1.01
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    assert run_cli(["verify", str(path)]) == cli.EXIT_VERIFY


def test_cli_sbp_builds_and_saves(rule_file, tmp_path, capsys):
    out = tmp_path / "op.json"
    assert run_cli(["sbp", str(rule_file), "-o", str(out)]) == cli.EXIT_OK
    assert "passed" in capsys.readouterr().out
    assert load_operator(out).p == 1


def test_cli_sbp_rejects_excessive_degree(rule_file, capsys):
    assert run_cli(["sbp", str(rule_file), "-p", "5"]) == cli.EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().err


def test_cli_sbp_rejects_facet_without_volume_nodes(interior_lgl_rule,
                                                   tmp_path, capsys):
    path = tmp_path / "interior.json"
    save_rule(interior_lgl_rule, path)
    assert run_cli(["sbp", str(path)]) == cli.EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().err


def test_cli_converge_runs(rule_file, tmp_path, capsys):
    out = tmp_path / "conv.json"
    code = run_cli(["converge", str(rule_file), "--meshes", "2,4",
                    "--time", "0.05", "-o", str(out)])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["format"] == "convergence-study"
    assert payload["schema"] == 2
    assert payload["dt_m"] > 0.0
    assert len(payload["errors"]) == 2
    assert payload["rates"][0] > 1.0


def test_cli_converge_min_rate_gate(rule_file, capsys):
    code = run_cli(["converge", str(rule_file), "--meshes", "2,4",
                    "--time", "0.05", "--min-rate", "10"])
    assert code == cli.EXIT_VERIFY


def test_cli_converge_rejects_single_mesh(rule_file):
    assert run_cli(["converge", str(rule_file), "--meshes", "4"]) \
        == cli.EXIT_USAGE


def test_cli_timestep_certificate(rule_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run_cli(["timestep", str(rule_file), "--m", "2",
                    "--rel-tol", "1e-3", "-o", str(out)])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["format"] == "timestep-certificate"
    assert payload["schema"] == 4
    assert payload["max_stable_dt"] > 0.0
    assert payload["energy_ratio_dt"] <= 1.0 + 1e-12
    assert payload["energy_ratio_half_dt"] <= 1.0 + 1e-12
    j = payload["limiting_wavenumber"]
    assert len(j) == 2 and all(0 <= i < 2 for i in j)


@pytest.mark.parametrize("flux", ["upwind", "central"])
def test_cli_timestep_records_its_spectral_limit(rule_file, tmp_path, capsys,
                                                 flux):
    """Schema 4 records the RK4 spectral limit, the eigenvalue on its
    boundary (|R(limit lam)| = 1) with its wavenumber, which bounds the
    certified step from above, and the sha256 of the rule archive."""
    out = tmp_path / "cert.json"
    assert run_cli(["timestep", str(rule_file), "--m", "3", "--flux", flux,
                    "-o", str(out)]) == cli.EXIT_OK
    payload = json.loads(out.read_text())
    limit = payload["rk4_spectral_limit"]
    z = limit * complex(*payload["spectral_limit_eigenvalue"])
    growth = abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0
                                             * (1.0 + z / 4.0))))
    assert abs(growth - 1.0) <= 1e-9
    assert payload["max_stable_dt"] <= limit
    j = payload["spectral_limit_wavenumber"]
    assert len(j) == 2 and all(0 <= i < 3 for i in j)
    assert payload["rule_sha256"] \
        == hashlib.sha256(rule_file.read_bytes()).hexdigest()
    assert payload["rule_sha256"] in capsys.readouterr().out


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("domain", ["tri", "tet"])
def test_cli_timestep_reads_one_certificate(rule_file, tet_result, tmp_path,
                                            monkeypatch, capsys, domain):
    """`timestep` builds the Bloch symbols and takes their eigenvalues
    once, and makes at most 10 energy checks: the certificate's 8 and two
    on its record.  Each check is one energy_ratios call, certify_stable's
    included."""
    path = rule_file
    if domain == "tet":
        path = tmp_path / "tet-q2.json"
        save_rule(tet_result.rule, path)
    calls = collections.Counter()
    for name in ("bloch_symbols", "spectral_limit", "energy_ratios"):
        assert not hasattr(cli, name)
        counted = _counting(calls, name, getattr(advection, name))
        for module in (advection, cli):
            monkeypatch.setattr(module, name, counted, raising=False)
    assert run_cli(["timestep", str(path), "--m", "3"]) == cli.EXIT_OK
    assert calls["bloch_symbols"] == calls["spectral_limit"] == 1
    assert calls["energy_ratios"] <= 10


def test_cli_timestep_central_flux_fine_mesh(tri_lgl_results, tmp_path,
                                            capsys):
    """Central flux keeps energy exactly, so its neutral modes sit on the
    certificate's tolerance; on the 8-cell mesh a step is still found."""
    path = tmp_path / "tri-q1.json"
    save_rule(tri_lgl_results[1].rule, path)
    assert run_cli(["timestep", str(path), "--m", "8",
                    "--flux", "central"]) == cli.EXIT_OK
    assert "max stable dt" in capsys.readouterr().out


def test_cli_velocity_arity_checked(rule_file):
    assert run_cli(["timestep", str(rule_file), "--m", "2",
                    "--rel-tol", "1e-3",
                    "--velocity", "1.0,0.5"]) == cli.EXIT_OK
    assert run_cli(["timestep", str(rule_file), "--m", "2",
                    "--velocity", "1.0,2.0,3.0"]) == cli.EXIT_USAGE
    for cmd in ("timestep", "converge"):
        for velocity in ("a,b", "1.0,nan"):
            assert run_cli([cmd, str(rule_file),
                            "--velocity", velocity]) == cli.EXIT_USAGE


def test_cli_usage_errors(rule_file):
    rule = str(rule_file)
    assert run_cli(["converge", rule, "--meshes", "1,2"]) == cli.EXIT_USAGE
    assert run_cli(["converge", rule, "--meshes", "4"]) == cli.EXIT_USAGE
    for meshes in ("2,2", "4,2"):
        assert run_cli(["converge", rule, "--meshes", meshes]) \
            == cli.EXIT_USAGE
    for cmd in ("timestep", "converge"):
        assert run_cli([cmd, rule, "--velocity", "0,0"]) == cli.EXIT_USAGE
    assert run_cli(["timestep", rule, "--m", "1"]) == cli.EXIT_USAGE
    for cmd in ("sbp", "converge", "timestep"):
        for p in ("0", "-1", "x"):
            assert run_cli([cmd, rule, "-p", p]) == cli.EXIT_USAGE
    for tol in ("0", "-1e-3", "nan", "inf", "x"):
        assert run_cli(["timestep", rule, "--rel-tol", tol]) \
            == cli.EXIT_USAGE
    assert run_cli(["timestep", rule, "--omega", "2"]) == cli.EXIT_USAGE
    for omega in ("3", "0", "-2", "2.0", "x"):
        assert run_cli(["converge", rule, "--omega", omega]) \
            == cli.EXIT_USAGE
    for t in ("-1", "0", "nan", "inf", "x"):
        assert run_cli(["converge", rule, "--time", t]) == cli.EXIT_USAGE
    for rate in ("nan", "inf", "-inf", "x"):
        assert run_cli(["converge", rule, "--min-rate", rate]) \
            == cli.EXIT_USAGE
    assert run_cli(["frobnicate"]) == cli.EXIT_USAGE
    assert run_cli(["find", "--domain", "tri"]) == cli.EXIT_USAGE
    assert run_cli(["find", "--domain", "square", "--qv", "2"]) \
        == cli.EXIT_USAGE
    assert run_cli(["find", "--domain", "tri", "--qv", "2",
                    "--budget", "abc"]) == cli.EXIT_USAGE
    assert run_cli(["find", "--domain", "tri", "--qv", "2",
                    "--seed", "-1"]) == cli.EXIT_USAGE
    for budget in ("-5s", "nans", "inf", "infs"):
        assert run_cli(["find", "--domain", "tri", "--qv", "2",
                        "--budget", budget]) == cli.EXIT_USAGE
    for request in (["--domain", "tri", "--qv", "0"],
                    ["--domain", "tet", "--qv", "0"],
                    ["--domain", "tri", "--qv", "-1"],
                    ["--domain", "tri", "--qv", "-1", "--facet", "none"],
                    ["--domain", "tri", "--qv", "2", "--sweeps", "0"],
                    ["--domain", "tri", "--qv", "2", "--sweeps", "-2"]):
        assert run_cli(["find", *request]) == cli.EXIT_USAGE


def test_cli_version(capsys):
    assert run_cli(["--version"]) == 0
    assert "sbpquad" in capsys.readouterr().out
