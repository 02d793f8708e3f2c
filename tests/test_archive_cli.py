"""JSON archives and the command-line entry points."""

import json
import re

import numpy as np
import pytest

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
from sbpquad.search import RuleValidationError, lgl_rule


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
    data["domain"] = "hexagon"
    with pytest.raises(ArchiveError, match="domain"):
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
                     r"and 0 volume attempt\(s\)", err)


def test_cli_find_reports_screened_attempts(monkeypatch, capsys):
    # one vertex or one centroid orbit cannot carry the 2 invariant
    # moments of degree 2: both layouts are screened, and both fail
    monkeypatch.setattr(sbpquad.signatures, "_tri_facet_candidates",
                        lambda q: [("Svert",), ("S1",)])
    assert run_cli(["find", "--domain", "tet", "--qv", "2"]) \
        == cli.EXIT_SEARCH
    assert ("search exhausted after 6 facet (6 screened) and 0 volume "
            "attempt(s)") in capsys.readouterr().err


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
    assert payload["schema"] == 3
    assert payload["max_stable_dt"] > 0.0
    assert payload["energy_ratio_dt"] <= 1.0 + 1e-12
    assert payload["energy_ratio_half_dt"] <= 1.0 + 1e-12
    j = payload["limiting_wavenumber"]
    assert len(j) == 2 and all(0 <= i < 2 for i in j)


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
