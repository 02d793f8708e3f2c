"""Canonical on-disk archive of rules and operators.

Orbit data is the source of truth: a symmetric rule is stored as its
orbit list (kind, parameters, weight) plus degree/facet metadata, and
nodes are re-expanded on load.  Serialization is canonical JSON
(sorted keys, fixed indent, shortest round-trip float repr), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .operators import SBPConstructionError, SBPOperator, build_operator
from .search import (DOMAINS, QuadratureRule, RuleValidationError,
                     _interval_nodeset, validate_rule)
from .signatures import EDGE_RULES, FACET_FAMILIES
from .simplex import (GroupSignature, NodeSetError, SymmetryOrbit,
                      assemble_nodes, orbit_kinds, orbit_structure)

__all__ = [
    "ArchiveError",
    "canonical_json",
    "rule_to_dict",
    "rule_from_dict",
    "save_rule",
    "load_rule",
    "operator_to_dict",
    "operator_from_dict",
    "save_operator",
    "load_operator",
]

SCHEMA_VERSION = 1
_RULE_FORMAT = "quadrature-rule"
_OP_FORMAT = "sbp-operator"
#: arrays an operator archive stores, checked against the rebuild on load
_OP_ARRAYS = {"H": "norm", "E": "boundary operator", "Q": "stiffness",
              "D": "derivative"}


class ArchiveError(ValueError):
    pass


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def rule_to_dict(rule: QuadratureRule) -> dict:
    data = {
        "format": _RULE_FORMAT,
        "schema": SCHEMA_VERSION,
        "domain": rule.domain,
        "qv": int(rule.qv),
        "sbp_p": None if rule.sbp_p is None else int(rule.sbp_p),
        "facet_kind": rule.facet_kind,
        "provenance": _jsonable(rule.provenance),
    }
    if rule.signature is not None:
        data["orbits"] = [
            {"kind": o.kind, "params": [float(p) for p in o.params],
             "weight": float(o.weight)}
            for o in rule.signature.orbits]
    else:
        data["nodes"] = rule.nodes.coords[:, 0].tolist()
        data["weights"] = rule.nodes.weights.tolist()
    if rule.facet_rule is not None:
        data["facet_rule"] = rule_to_dict(rule.facet_rule)
    return data


def _check_header(data, fmt: str, what: str) -> None:
    """Raise ArchiveError unless data is a JSON object holding `what`
    archive of the current schema."""
    if not isinstance(data, dict) or data.get("format") != fmt:
        found = (repr(data.get("format")) if isinstance(data, dict)
                 else f"a JSON {type(data).__name__}")
        raise ArchiveError(f"not {what} archive: {found}")
    if data.get("schema") != SCHEMA_VERSION:
        raise ArchiveError(f"unsupported schema {data.get('schema')!r}")


def _numbers(values, what: str) -> list[float]:
    """values, a JSON list of finite numbers, as floats; raises
    ArchiveError for anything else."""
    if type(values) is not list or not all(
            type(v) in (int, float) and math.isfinite(v) for v in values):
        raise ArchiveError(f"non-numeric or non-finite {what}: {values!r}")
    return [float(v) for v in values]


def _orbit(data, dim: int) -> SymmetryOrbit:
    """One archived orbit; raises ArchiveError for an unknown kind, a
    wrong parameter count or a non-numeric field."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in orbit_kinds(dim):
        raise ArchiveError(f"not an orbit of the {dim}-D simplex: {data!r}")
    params = _numbers(data.get("params"), f"{kind} params")
    weight, = _numbers([data.get("weight")], f"{kind} weight")
    if len(params) != orbit_structure(kind, dim).n_params:
        raise ArchiveError(f"wrong parameter count in {data!r}")
    return SymmetryOrbit(kind, tuple(params), weight)


def rule_from_dict(data: dict) -> QuadratureRule:
    """Rebuild a rule from its archive; it is re-validated, and its facet
    family, facet rule and SBP degree checked, before it is returned.

    A missing or ill-typed field raises ArchiveError; orbits that leave
    the element or coincide raise RuleValidationError.
    """
    _check_header(data, _RULE_FORMAT, "a rule")
    domain = data.get("domain")
    if domain not in DOMAINS:
        raise ArchiveError(f"unknown domain {domain!r}")
    dim = DOMAINS.index(domain) + 1
    qv = data.get("qv")
    if type(qv) is not int or qv < 0:
        raise ArchiveError(f"qv is not a nonnegative integer: {qv!r}")
    for key, kind in (("facet_kind", str), ("provenance", dict)):
        if not isinstance(data.get(key), (kind, type(None))):
            raise ArchiveError(f"{key} is not a {kind.__name__}: "
                               f"{data.get(key)!r}")
    facet_rule = None
    if data.get("facet_rule") is not None:
        facet_rule = rule_from_dict(data["facet_rule"])
    if "orbits" in data:
        if type(data["orbits"]) is not list or not data["orbits"]:
            raise ArchiveError(f"orbits is not a nonempty list: "
                               f"{data['orbits']!r}")
        sig = GroupSignature(
            dim, tuple(_orbit(o, dim) for o in data["orbits"]), qv)
        try:
            nodes = assemble_nodes(sig)
        except NodeSetError as exc:
            raise RuleValidationError(str(exc)) from exc
    else:
        if dim != 1:
            raise ArchiveError("explicit node lists are interval-only")
        x = _numbers(data.get("nodes"), "nodes")
        w = _numbers(data.get("weights"), "weights")
        if not x or len(x) != len(w):
            raise ArchiveError(f"{len(x)} nodes and {len(w)} weights")
        sig = None
        nodes = _interval_nodeset(np.array(x), np.array(w))
    rule = QuadratureRule(
        domain=domain, qv=qv, nodes=nodes, signature=sig,
        facet_rule=facet_rule, facet_kind=data.get("facet_kind"),
        sbp_p=data.get("sbp_p"),
        provenance=dict(data.get("provenance") or {}))
    validate_rule(rule)
    _check_facets(rule)
    return rule


def _is_interval_rule(rule: QuadratureRule, kind, n: int) -> bool:
    """Whether rule is the n-node rule of interval family kind: the same
    degree, and nodes and weights within 1e-12."""
    if kind not in EDGE_RULES or n < EDGE_RULES[kind][1]:
        return False
    ref = EDGE_RULES[kind][0](n)
    x, w = rule.nodes.coords, rule.nodes.weights
    return (rule.qv == ref.qv and x.shape == ref.nodes.coords.shape
            and np.abs(np.concatenate([x - ref.nodes.coords,
                                       w - ref.nodes.weights],
                                      axis=None)).max() <= 1e-12)


def _check_facets(rule: QuadratureRule) -> None:
    """Reject a facet family, facet rule and SBP degree p that do not
    belong together: the family must be one the domain's search uses,
    a degree-p operator needs q_v >= 2p - 1 and a facet rule of degree
    >= 2p, and on the triangle that rule must be LGL(p+2) or LG(p+1).
    An interval rule carries no degree and must be the rule its family
    names."""
    kind, frule, p = rule.facet_kind, rule.facet_rule, rule.sbp_p
    if rule.dim == 1:
        if p is not None or not _is_interval_rule(rule, kind, rule.n_nodes):
            raise ArchiveError(f"interval rule with facet family {kind!r} "
                               f"and sbp_p {p!r} is not the {kind} rule of "
                               f"{rule.n_nodes} nodes")
        return
    if kind is None and frule is None and p is None:
        return
    if kind not in FACET_FAMILIES[rule.domain] or frule is None \
            or type(p) is not int or p < 1:
        raise ArchiveError(f"facet family {kind!r}, sbp_p {p!r}"
                           f"{'' if frule else ' and no facet rule'} do "
                           f"not fit a {rule.domain} SBP rule")
    if rule.qv < 2 * p - 1 or frule.qv < 2 * p:
        raise ArchiveError(f"sbp_p {p} needs qv >= {2 * p - 1} and a facet "
                           f"degree >= {2 * p}, not {rule.qv} and {frule.qv}")
    if rule.dim == 2 and not _is_interval_rule(
            frule, kind, p + EDGE_RULES[kind][1]):
        raise ArchiveError(f"facet rule is not the {kind} rule of "
                           f"sbp_p {p}")


def save_rule(rule: QuadratureRule, path) -> None:
    Path(path).write_text(canonical_json(rule_to_dict(rule)))


def load_rule(path) -> QuadratureRule:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArchiveError(f"malformed archive {path}: {exc}") from exc
    return rule_from_dict(data)


def operator_to_dict(op: SBPOperator) -> dict:
    return {
        "format": _OP_FORMAT,
        "schema": SCHEMA_VERSION,
        "p": int(op.p),
        "rule": rule_to_dict(op.rule),
        "H": op.H.tolist(),
        "E": [e.tolist() for e in op.E],
        "Q": [q.tolist() for q in op.Q],
        "D": [d.tolist() for d in op.D],
    }


def operator_from_dict(data: dict) -> SBPOperator:
    """Rebuild an operator from its rule; every stored array must agree
    with the rebuild."""
    _check_header(data, _OP_FORMAT, "an operator")
    p = data.get("p")
    if type(p) is not int:
        raise ArchiveError(f"operator degree p is not an integer: {p!r}")
    rule = rule_from_dict(data.get("rule"))
    try:
        op = build_operator(rule, p=p)
    except SBPConstructionError as exc:
        raise ArchiveError(f"operator degree p = {p} does not fit its "
                           f"rule: {exc}") from exc
    for name, what in _OP_ARRAYS.items():
        ref = np.asarray(getattr(op, name))
        try:
            stored = np.asarray(data[name], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"unreadable {what} {name}: {exc}") from exc
        # the norm keeps its absolute tolerance; the others scale
        atol = 1e-13 * (1.0 if name == "H" else np.abs(ref).max())
        if stored.shape != ref.shape or \
                not np.allclose(stored, ref, rtol=0, atol=atol):
            raise ArchiveError(f"stored {what} {name} disagrees with rebuild")
    return op


def save_operator(op: SBPOperator, path) -> None:
    Path(path).write_text(canonical_json(operator_to_dict(op)))


def load_operator(path) -> SBPOperator:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArchiveError(f"malformed archive {path}: {exc}") from exc
    return operator_from_dict(data)
