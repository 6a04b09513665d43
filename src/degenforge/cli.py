"""Command-line front end: load files, run checkers, synthesize, emit reports.

Every command prints one JSON report to stdout. Exit status is a function of
the report's verdict alone: 0 for affirmative verdicts and successful
synthesis, 1 for negative verdicts or surfaced domain errors, 2 for input
errors. Output bytes are a deterministic function of the input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .degeneracy import (
    DegeneracyTable,
    SynthesisInput,
    addendum_s0,
    replay_certificate,
    synthesize,
    synthesize_relative,
    verify_simplicial,
)
from .errors import DegenforgeError, ParseError
from .horn import (
    EdgeVerdict,
    check_inner,
    check_inner_fibration,
    check_kan,
    edge_property,
    is_equivalence,
    is_idempotent,
)
from .nerve import CategoryPresentation, nerve, uniqueness_demo
from .sset import (
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    Subcomplex,
    validate,
    validate_map,
)

AFFIRMATIVE = {"ok", "yes", "success", "pass"}


# -- file helpers ------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _dump_json(path: str, payload) -> None:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(blob)


def load_sset(path: str) -> SemisimplicialSet:
    return SemisimplicialSet.from_json_dict(_load_json(path))


def load_map(path: str, source: SemisimplicialSet, target: SemisimplicialSet) -> SemisimplicialMap:
    return SemisimplicialMap.from_json_dict(_load_json(path), source, target)


def load_table(path: str, base: SemisimplicialSet) -> DegeneracyTable:
    return DegeneracyTable.from_json_dict(_load_json(path), base)


def load_subcomplex(path: str, ambient: SemisimplicialSet) -> Subcomplex:
    return Subcomplex.from_json_dict(_load_json(path), ambient)


def load_category(path: str) -> CategoryPresentation:
    return CategoryPresentation.from_json_dict(_load_json(path))


def _load_s0(path: str) -> dict[int, int]:
    data = _load_json(path)
    if isinstance(data, dict) and "s0" in data:
        data = data["s0"]
    if not isinstance(data, list):
        raise ParseError(f"{path}: the degree-0 candidate must be an array of edge indices")
    return {v: int(e) for v, e in enumerate(data)}


# -- command handlers ---------------------------------------------------------


def _require_valid(label: str, report) -> None:
    # checkers give no verdict on inputs that fail their identities
    if not report.ok:
        raise ParseError(f"{label} fails validation: {report.violations[:3]}")


def _cmd_validate(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    report = validate(X)
    payload = {"bound": X.dim, "detail": report.to_json_dict()}
    if not report.ok:
        payload["witness"] = [list(v) for v in report.violations[:10]]
    return ("ok" if report.ok else "no", payload, [])


def _cmd_check(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    _require_valid("input set", validate(X))
    dim = args.dim if args.dim is not None else X.dim
    if args.inner_fibration:
        if not args.map or not args.target:
            raise ParseError("--inner-fibration needs --map and --target")
        Y = load_sset(args.target)
        _require_valid("target set", validate(Y))
        p = load_map(args.map, X, Y)
        _require_valid("map", validate_map(p))
        verdict = check_inner_fibration(p, dim)
        payload = {"bound": verdict.bound, "checked": verdict.checked}
        if verdict.witness is not None:
            horn, y = verdict.witness
            payload["witness"] = {"horn": horn.to_json_dict(), "target": y.index}
        return ("yes" if verdict.ok else "no", payload, [])
    checker = check_inner if args.inner else check_kan
    verdict = checker(X, dim)
    payload = {"bound": verdict.bound, "checked": verdict.checked}
    if verdict.witness is not None:
        payload["witness"] = verdict.witness.to_json_dict()
    return ("yes" if verdict.ok else "no", payload, [])


def _edge_verdict(X, j: int, prop: str, dim: int) -> EdgeVerdict:
    f = SimplexRef(1, j)
    if prop == "equivalence":
        return is_equivalence(X, f, dim)
    if prop == "idempotent":
        witness = is_idempotent(X, f)
        return EdgeVerdict(f, prop, 2, witness is not None, witness)
    return edge_property(X, f, prop, dim)


def _cmd_edges(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    _require_valid("input set", validate(X))
    dim = args.dim if args.dim is not None else X.dim
    if args.edge is not None:
        indices = [args.edge]
    else:
        indices = list(range(X.cells[1])) if X.dim >= 1 else []
    verdicts = [_edge_verdict(X, j, args.property, dim) for j in indices]
    ok = all(v.result for v in verdicts)
    payload = {"bound": dim, "edges": [v.to_json_dict() for v in verdicts]}
    if not ok:
        payload["witness"] = next(v.to_json_dict() for v in verdicts if not v.result)
    return ("yes" if ok else "no", payload, [])


def _write_synthesis(args, result) -> list:
    outputs = []
    if args.out:
        _dump_json(args.out, result.table.to_json_dict())
        outputs.append(args.out)
    if args.cert:
        _dump_json(args.cert, result.certificate)
        outputs.append(args.cert)
    return outputs


def _cmd_synthesize(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    dim = args.dim if args.dim is not None else X.dim
    s0 = _load_s0(args.s0) if args.s0 else None
    result = synthesize(SynthesisInput(X, s0=s0), dim)
    outputs = _write_synthesis(args, result)
    payload = {
        "bound": result.bound,
        "detail": {
            "s0": [result.s0[v] for v in sorted(result.s0)],
            "stats": result.stats,
            "identities_checked": result.verification.checked,
        },
    }
    return ("success", payload, outputs)


def _cmd_synthesize_rel(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    Y = load_sset(args.target)
    p = load_map(args.map, X, Y)
    Y_deg = load_table(args.ydeg, Y)
    A = load_subcomplex(args.sub, X) if args.sub else None
    A_deg = load_table(args.adeg, X) if args.adeg else None
    s0 = _load_s0(args.s0) if args.s0 else None
    dim = args.dim if args.dim is not None else X.dim
    inp = SynthesisInput(X, mode="relative", p=p, Y_deg=Y_deg, A=A, A_deg=A_deg, s0=s0)
    result = synthesize_relative(inp, dim)
    outputs = _write_synthesis(args, result)
    payload = {
        "bound": result.bound,
        "detail": {"stats": result.stats, "identities_checked": result.verification.checked},
    }
    return ("success", payload, outputs)


def _cmd_addendum_s0(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    _require_valid("input set", validate(X))
    dim = args.dim if args.dim is not None else X.dim
    found = addendum_s0(X, dim)
    outputs = []
    if args.out:
        _dump_json(args.out, {"s0": [found.s0[v] for v in sorted(found.s0)],
                              "witnesses": [found.witnesses[v] for v in sorted(found.witnesses)]})
        outputs.append(args.out)
    payload = {"bound": found.bound,
               "detail": {"s0": [found.s0[v] for v in sorted(found.s0)]}}
    return ("success", payload, outputs)


def _cmd_nerve(args) -> tuple[str, dict, list]:
    category = load_category(args.cat)
    bundle = nerve(category, args.dim)
    outputs = []
    _dump_json(args.out, bundle.sset.to_json_dict())
    outputs.append(args.out)
    if args.deg:
        if bundle.oracle_degeneracies is None:
            raise ParseError("the presentation is non-unital; no degeneracy table exists")
        _dump_json(args.deg, bundle.oracle_degeneracies.to_json_dict())
        outputs.append(args.deg)
    payload = {"bound": args.dim, "detail": {"cells": list(bundle.sset.cells)}}
    return ("success", payload, outputs)


def _cmd_demo_uniqueness(args) -> tuple[str, dict, list]:
    C_sset = load_sset(args.sset)
    deg0 = load_table(args.deg0, C_sset)
    deg1 = load_table(args.deg1, C_sset)
    dim = args.dim if args.dim is not None else C_sset.dim
    demo = uniqueness_demo(C_sset, deg0, deg1, dim)
    outputs = []
    if args.out:
        _dump_json(args.out, demo.result.table.to_json_dict())
        outputs.append(args.out)
    if args.cert:
        _dump_json(args.cert, demo.result.certificate)
        outputs.append(args.cert)
    payload = {
        "bound": demo.bound,
        "detail": {
            "product_cells": list(demo.product_cells),
            "restriction_checked": demo.restriction_checked,
            "projection_checked": demo.projection_checked,
        },
    }
    return ("success", payload, outputs)


def _cmd_verify(args) -> tuple[str, dict, list]:
    X = load_sset(args.sset)
    table = load_table(args.table, X)
    dim = args.dim if args.dim is not None else X.dim
    report = verify_simplicial(X, table, dim)
    payload = {"bound": dim, "detail": report.to_json_dict()}
    if not report.ok:
        payload["witness"] = [list(v) for v in report.violations[:10]]
        return ("fail", payload, [])
    if args.cert:
        records = _load_json(args.cert)
        if not isinstance(records, list):
            raise ParseError(f"{args.cert}: a certificate is an ordered list of records")
        replayed = replay_certificate(SynthesisInput(X), dim, records)
        if replayed != table:
            return ("fail", {"bound": dim, "detail": "replay table differs from the given table"}, [])
        payload["detail"]["replayed_records"] = len(records)
    return ("pass", payload, [])


# -- driver --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenforge",
        description="Checkers and degeneracy synthesis for finite semisimplicial sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check the face identities of a set")
    q.add_argument("sset")
    q.set_defaults(handler=_cmd_validate)

    q = sub.add_parser("check", help="horn-filling verdicts up to a bound")
    q.add_argument("sset")
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--inner", action="store_true", help="inner horns only")
    mode.add_argument("--kan", action="store_true", help="all horns, n = 1 included")
    mode.add_argument("--inner-fibration", action="store_true", help="inner lifts over --map/--target")
    q.add_argument("--map")
    q.add_argument("--target")
    q.add_argument("--dim", type=int)
    q.set_defaults(handler=_cmd_check)

    q = sub.add_parser("edges", help="edge-property verdicts")
    q.add_argument("sset")
    q.add_argument("--property", default="equivalence",
                   choices=["cartesian", "cocartesian", "equivalence", "idempotent"])
    q.add_argument("--edge", type=int)
    q.add_argument("--dim", type=int)
    q.set_defaults(handler=_cmd_edges)

    q = sub.add_parser("synthesize", help="build a degeneracy table")
    q.add_argument("sset")
    q.add_argument("--dim", type=int)
    q.add_argument("--s0", help="JSON array of edge indices, one per vertex")
    q.add_argument("--out")
    q.add_argument("--cert")
    q.set_defaults(handler=_cmd_synthesize)

    q = sub.add_parser("synthesize-rel", help="relative synthesis over a map")
    q.add_argument("sset")
    q.add_argument("--map", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--ydeg", required=True)
    q.add_argument("--sub")
    q.add_argument("--adeg")
    q.add_argument("--s0")
    q.add_argument("--dim", type=int)
    q.add_argument("--out")
    q.add_argument("--cert")
    q.set_defaults(handler=_cmd_synthesize_rel)

    q = sub.add_parser("addendum-s0", help="automatic degree-0 candidate on a Kan set")
    q.add_argument("sset")
    q.add_argument("--dim", type=int)
    q.add_argument("--out")
    q.set_defaults(handler=_cmd_addendum_s0)

    q = sub.add_parser("nerve", help="generate the nerve of a category file")
    q.add_argument("--cat", required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--deg", help="also write the identity-insertion table")
    q.set_defaults(handler=_cmd_nerve)

    q = sub.add_parser("demo-uniqueness", help="relative run on C x J with two tables")
    q.add_argument("sset")
    q.add_argument("--deg0", required=True)
    q.add_argument("--deg1", required=True)
    q.add_argument("--dim", type=int)
    q.add_argument("--out")
    q.add_argument("--cert")
    q.set_defaults(handler=_cmd_demo_uniqueness)

    q = sub.add_parser("verify", help="check a table against a set, optionally replaying a certificate")
    q.add_argument("sset")
    q.add_argument("table")
    q.add_argument("--dim", type=int)
    q.add_argument("--cert")
    q.set_defaults(handler=_cmd_verify)
    return parser


def run(argv: Optional[list[str]] = None) -> tuple[int, dict]:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = {"command": args.command}
    try:
        verdict, payload, outputs = args.handler(args)
    except ParseError as exc:
        report.update({"verdict": "error", "detail": str(exc), "outputs": []})
        return 2, report
    except DegenforgeError as exc:
        report.update({"verdict": type(exc).__name__, "detail": str(exc), "outputs": []})
        witness = getattr(exc, "witness", None) or getattr(exc, "horn", None)
        if witness is not None and hasattr(witness, "to_json_dict"):
            report["witness"] = witness.to_json_dict()
        vertex = getattr(exc, "vertex", None)
        if vertex is not None:
            report["witness"] = {"vertex": vertex}
        return 1, report
    report["verdict"] = verdict
    report.update(payload)
    report["outputs"] = outputs
    return (0 if verdict in AFFIRMATIVE else 1), report


def main(argv: Optional[list[str]] = None) -> int:
    code, report = run(argv)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
