"""Command-line front door.

Verbs: datum | iso | exact | group | params | packets | verify-paper.
Exit codes: 0 ok, 1 verification-false, 2 input error, 3 cap exceeded,
4 an internal consistency check failed.
All file I/O is UTF-8 JSON; the schemas are documented in docs/schemas.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import presets
from .centralizers import (
    NormalizationError,
    NotEllipticError,
    ParameterImage,
    s_groups,
)
from .finite_groups import (
    CapExceededError,
    FieldInsufficientError,
    NotFiniteError,
    generate_closure,
    group_id,
)
from .gaussian import GaussianMatrix, format_qi
from .lattice import IntMatrix
from .morphisms import InfiniteFamilyError, RootDatumMap, check_isomorphism, search_isomorphisms
from .packets import scenario_from_dict, scenario_report
from .root_datum import BasedRootDatum, center_structure, dual_sc_center
from .verify import run_catalogue

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


def _read_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return data


def _require_ints(data: dict, keys: Sequence[str], context: str) -> None:
    """Every number under these keys must be a JSON integer.

    The integer types call int(), which would read 1.9, true or "1" as 1.
    """

    def walk(key, value):
        if isinstance(value, list):
            for x in value:
                walk(key, x)
        elif type(value) is not int:
            raise InputError(f"{context}: {key} holds {json.dumps(value)}, not an integer")

    for key in keys:
        if key in data:
            walk(key, data[key])


def _load_datum(arg: str) -> BasedRootDatum:
    if os.path.isfile(arg):
        data = _read_json_file(arg)
        _require_ints(data, ("rank", "simple_roots", "simple_coroots"), f"bad datum file {arg}")
        try:
            return BasedRootDatum.from_dict(data)
        except (LookupError, TypeError, ValueError) as exc:
            raise InputError(f"bad datum file {arg}: {exc}")
    try:
        return presets.datum(arg)
    except KeyError:
        raise InputError(
            f"unknown datum preset {arg!r}; available: {', '.join(presets.datum_names())}"
        )


def _structure_text(s) -> str:
    parts = []
    if s.free_rank == 1:
        parts.append("GL1")
    elif s.free_rank > 1:
        parts.append(f"GL1^{s.free_rank}")
    parts.extend(f"mu{d}" for d in s.torsion)
    body = " x ".join(parts) if parts else "1"
    pi0 = " x ".join(f"Z/{d}" for d in s.torsion) if s.torsion else "1"
    return f"{body}; pi0 = {pi0}"


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        print(text)


def _cmd_datum(args) -> int:
    d = _load_datum(args.name)
    action = args.action
    if action == "describe":
        payload = d.to_dict()
        payload["cartan_matrix"] = d.cartan_matrix()
        text = (
            f"{d.label or args.name}: rank {d.rank}, {len(d.simple_roots)} simple roots\n"
            f"simple roots:   {[list(a) for a in d.simple_roots]}\n"
            f"simple coroots: {[list(a) for a in d.simple_coroots]}\n"
            f"Cartan matrix:  {d.cartan_matrix()}"
        )
        _emit(args, payload, text)
    elif action == "center":
        s = center_structure(d)
        _emit(
            args,
            {"free_rank": s.free_rank, "torsion": list(s.torsion)},
            _structure_text(s),
        )
    elif action == "sc-center":
        s = dual_sc_center(d)
        body = " x ".join(f"mu{x}" for x in s.torsion) or "1"
        _emit(args, {"torsion": list(s.torsion)}, body)
    elif action == "dual":
        out = d.dual()
        _emit(args, out.to_dict(), json.dumps(out.to_dict(), indent=2))
    elif action == "roots":
        roots = d.roots(cap=args.cap)
        text = f"{len(roots)} roots\n" + "\n".join(
            f"{list(r)}  coroot {list(rv)}" for r, rv in roots
        )
        _emit(
            args,
            {"count": len(roots), "roots": [[list(r), list(rv)] for r, rv in roots]},
            text,
        )
    return EXIT_OK


def _load_map(arg: str) -> RootDatumMap:
    if os.path.isfile(arg):
        d = _read_json_file(arg)
        _require_ints(d, ("iota", "iota_vee"), f"bad map file {arg}")
        try:
            return RootDatumMap.from_dict(d)
        except (LookupError, TypeError, ValueError) as exc:
            raise InputError(f"bad map file {arg}: {exc}")
    try:
        f, _, _ = presets.datum_map(arg)
        return f
    except KeyError:
        raise InputError(f"unknown map preset {arg!r}")


def _cmd_iso(args) -> int:
    d1 = _load_datum(args.d1)
    d2 = _load_datum(args.d2)
    if args.mode == "check":
        if not args.map:
            raise InputError("iso check needs --map FILE-or-preset")
        f = _load_map(args.map)
        try:
            ok = check_isomorphism(f, d1, d2)
        except ValueError as exc:
            raise InputError(str(exc))
        _emit(args, {"isomorphism": ok}, "isomorphism: " + ("yes" if ok else "no"))
        return EXIT_OK if ok else EXIT_FALSE
    assignment = None
    if args.fix_delta:
        assignment = tuple(range(len(d1.simple_roots)))
    det_sign = None
    if args.det:
        det_sign = 1 if args.det in ("+1", "1") else -1
    maps = search_isomorphisms(d1, d2, assignment=assignment, det_sign=det_sign)
    payload = {"count": len(maps), "maps": [m.to_dict() for m in maps]}
    lines = [f"{len(maps)} isomorphism(s)"]
    for m in maps:
        lines.append("iota:")
        lines.extend(f"  {row}" for row in m.iota.to_rows())
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if maps else EXIT_FALSE


def _cmd_exact(args) -> int:
    from .root_datum import verify_exact_sequence

    if os.path.isfile(args.seq):
        data = _read_json_file(args.seq)
        _require_ints(data, ("maps",), f"bad sequence file {args.seq}")
        try:
            maps = [IntMatrix(m) for m in data["maps"]]
        except (LookupError, TypeError, ValueError) as exc:
            raise InputError(f"bad sequence file {args.seq}: {exc}")
    else:
        try:
            maps = presets.sequence(args.seq)
        except KeyError:
            raise InputError(f"unknown sequence preset {args.seq!r}")
    try:
        ok = verify_exact_sequence(maps)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit(args, {"exact": ok}, "OK" if ok else "NOT EXACT")
    return EXIT_OK if ok else EXIT_FALSE


def _load_group_generators(args) -> List[GaussianMatrix]:
    if args.preset:
        try:
            return presets.witness_generators(args.preset)
        except (KeyError, ValueError) as exc:
            raise InputError(str(exc))
    if not args.file:
        raise InputError("group commands need --preset NAME or --file FILE")
    data = _read_json_file(args.file)
    try:
        return [GaussianMatrix.from_strings(gm) for gm in data["generators"]]
    except (LookupError, TypeError, ValueError) as exc:
        raise InputError(f"bad group file {args.file}: {exc}")


def _cmd_group(args) -> int:
    gens = _load_group_generators(args)
    group = generate_closure(gens, cap=args.cap)
    if args.action == "gen":
        _emit(
            args,
            {"order": group.order, "generators": len(gens)},
            f"order {group.order}",
        )
    elif args.action == "id":
        label = group_id(group)
        _emit(args, {"order": group.order, "id": label}, label)
    elif args.action == "table":
        table = group.character_table()
        payload = {
            "order": group.order,
            "classes": [
                {"size": c.size, "element_order": c.order} for c in table.classes
            ],
            "characters": [
                {"degree": r.degree, "values": [format_qi(v) for v in r.values]}
                for r in table.rows
            ],
        }
        lines = [f"order {group.order}, {len(table.classes)} classes"]
        lines.append(
            "class sizes:  " + " ".join(str(c.size) for c in table.classes)
        )
        lines.append(
            "class orders: " + " ".join(str(c.order) for c in table.classes)
        )
        for r in table.rows:
            lines.append(
                f"deg {r.degree}: " + " ".join(format_qi(v) for v in r.values)
            )
        _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _load_parameter(arg: str) -> ParameterImage:
    if os.path.isfile(arg):
        data = _read_json_file(arg)
        _require_ints(data, ("relations",), f"bad parameter file {arg}")
        try:
            return ParameterImage.from_dict(data)
        except (LookupError, TypeError, ValueError) as exc:
            raise InputError(f"bad parameter file {arg}: {exc}")
    try:
        return presets.witness_parameter(arg)
    except (KeyError, ValueError):
        raise InputError(f"unknown parameter preset {arg!r}")


def _cmd_params(args) -> int:
    phi = _load_parameter(args.param)
    report = s_groups(phi, cap=args.cap)
    payload = report.to_dict()
    text = (
        f"ambient {report.ambient}\n"
        f"S_phi_sc: {report.s_phi_sc_label} (order {report.s_phi_sc.order})\n"
        f"S_phi:    {report.s_phi_label} (order {report.s_phi_order})\n"
        f"Z_hat:    {report.z_hat} (order {report.z_hat.torsion_order()})\n"
        f"extension exact: {report.extension_ok}\n"
        f"twists with solutions: {len(report.twists)}"
    )
    _emit(args, payload, text)
    return EXIT_OK if report.extension_ok else EXIT_FALSE


def _cmd_packets(args) -> int:
    if os.path.isfile(args.scenario):
        data = _read_json_file(args.scenario)
        context = f"bad scenario file {args.scenario}"
        _require_ints(data, ("p", "f", "i_sl4"), context)
        flag = data.get("twist_equivalent", False)
        if type(flag) is not bool:
            raise InputError(f"{context}: twist_equivalent holds {json.dumps(flag)}, not a boolean")
    else:
        try:
            data = presets.scenario_dict(args.scenario)
        except KeyError:
            raise InputError(
                f"unknown scenario {args.scenario!r}; shipped: "
                + ", ".join(presets.scenario_names())
            )
    try:
        scenario = scenario_from_dict(data)
    except (LookupError, TypeError, ValueError) as exc:
        raise InputError(f"bad scenario: {exc}")
    witness = None
    if scenario.witness:
        try:
            witness = presets.witness_parameter(scenario.witness)
        except (LookupError, TypeError, ValueError) as exc:
            raise InputError(f"bad witness reference: {exc}")
    report = scenario_report(scenario, witness)
    payload = report.to_dict()
    lines = [
        f"family {report.family}",
        f"I group: {report.igroup} (order {report.igroup_order})",
        f"square-class bound: {report.bound_card} (divisors {report.bound_divisors})",
    ]
    for out in report.outcomes:
        flag = ""
        if out.confirmed is True:
            flag = " [confirmed]"
        elif out.confirmed is False:
            flag = " [possible]"
        lines.append(f"structure: {out.structure}{flag}")
        forms = list(out.sizes)
        lines.append(
            "  sizes "
            + "/".join(str(out.sizes[f]) if out.sizes[f] is not None else "?" for f in forms)
            + "   m = "
            + "/".join(
                str(out.multiplicities[f]) if out.multiplicities[f] is not None else "?"
                for f in forms
            )
            + f"   ({', '.join(forms)})"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"consistent: {report.consistent}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.consistent else EXIT_FALSE


def _cmd_verify_paper(args) -> int:
    results = run_catalogue()
    ok_all = all(r.ok for r in results)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok_all,
                    "items": [
                        {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                    ],
                },
                indent=2,
            )
        )
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"[{status}] {r.name}"
            if not r.ok or not args.quiet:
                line += f"  -- {r.detail}"
            print(line)
        print(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return EXIT_OK if ok_all else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress detail text")
    common.add_argument(
        "--cap", type=int, default=512, help="size cap for closures and root sets"
    )
    ap = argparse.ArgumentParser(
        prog="gspinlab",
        description="Exact workbench for based root data, component groups, and packet counts",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("datum", help="inspect a based root datum")
    p.add_argument("name", help="preset name or JSON file")
    p.add_argument(
        "action",
        choices=["describe", "center", "dual", "sc-center", "roots"],
    )

    p = add("iso", help="check or search root-datum isomorphisms")
    p.add_argument("first", help="'check', 'search', or the source datum")
    p.add_argument("d1_or_d2", help="datum")
    p.add_argument("maybe_d2", nargs="?", help="target datum when a mode is given")
    p.add_argument("--map", help="map preset or JSON file (for check)")
    p.add_argument("--fix-delta", action="store_true", help="fix the simple-root assignment in listed order")
    p.add_argument("--det", choices=["+1", "-1", "1"], help="determinant constraint")

    p = add("exact", help="verify a character-lattice exact sequence")
    p.add_argument("seq", help="sequence preset or JSON file")

    p = add("group", help="finite matrix group computations")
    p.add_argument("action", choices=["gen", "table", "id"])
    p.add_argument("--preset", help="named generator preset")
    p.add_argument("--file", help="JSON file with a generators array")

    p = add("params", help="component groups of a parameter image")
    p.add_argument("param", help="witness preset or JSON file")

    p = add("packets", help="packet sizes for a scenario")
    p.add_argument("scenario", help="scenario preset or JSON file")

    add("verify-paper", help="run the bundled regression catalogue")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "datum":
            return _cmd_datum(args)
        if args.command == "iso":
            # allow both `iso search D1 D2` and the bare `iso D1 D2`
            if args.first in ("check", "search"):
                if args.maybe_d2 is None:
                    raise InputError("iso needs two data")
                args.mode = args.first
                args.d1, args.d2 = args.d1_or_d2, args.maybe_d2
            else:
                if args.d1_or_d2 is None:
                    raise InputError("iso needs two data")
                args.mode = "search"
                args.d1, args.d2 = args.first, args.d1_or_d2
            return _cmd_iso(args)
        if args.command == "exact":
            return _cmd_exact(args)
        if args.command == "group":
            return _cmd_group(args)
        if args.command == "params":
            return _cmd_params(args)
        if args.command == "packets":
            return _cmd_packets(args)
        if args.command == "verify-paper":
            return _cmd_verify_paper(args)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotEllipticError, NormalizationError, FieldInsufficientError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotFiniteError, CapExceededError, InfiniteFamilyError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AssertionError, RuntimeError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
