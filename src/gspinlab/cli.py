"""Command-line front door.

Verbs: datum | iso | exact | group | params | packets | verify-paper.
Exit codes: 0 ok, 1 verification-false, 2 input error, 3 cap exceeded or
an isomorphism family too large to list, 4 an internal consistency check
failed, 141 stdout closed by its reader (the shell's status for SIGPIPE).
All file I/O is UTF-8 JSON; the schemas are documented in docs/schemas.md.
Every file-or-preset argument goes through ``_load``, which reads one table
row per input kind; each verb's handler is set on its subparser.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import presets
from .centralizers import NormalizationError, NotEllipticError, ParameterImage, s_groups
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
from .root_datum import BasedRootDatum, center_structure, dual_sc_center, verify_exact_sequence
from .verify import run_catalogue

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


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


def _scenario(data: dict):
    flag = data.get("twist_equivalent", False)
    if type(flag) is not bool:
        raise ValueError(f"twist_equivalent holds {json.dumps(flag)}, not a boolean")
    return scenario_from_dict(data)


# kind -> (keys whose numbers must be JSON integers, reader of the file's JSON
# object, preset lookup, message for an unknown preset name). Each lookup
# resolves ``presets.<function>`` when it runs, so a wrapper set on the module
# attribute (perfbench's tracer) sees every preset load.
_KINDS = {
    "datum": (
        ("rank", "simple_roots", "simple_coroots"), BasedRootDatum.from_dict,
        lambda n: presets.datum(n),
        lambda n: f"unknown datum preset {n!r}; available: {', '.join(presets.datum_names())}",
    ),
    "map": (
        ("iota", "iota_vee"), RootDatumMap.from_dict, lambda n: presets.datum_map(n)[0],
        lambda n: f"unknown map preset {n!r}",
    ),
    "sequence": (
        ("maps",), lambda data: [IntMatrix(m) for m in data["maps"]], lambda n: presets.sequence(n),
        lambda n: f"unknown sequence preset {n!r}",
    ),
    "group": (
        (), lambda data: [GaussianMatrix.from_strings(g) for g in data["generators"]],
        lambda n: presets.witness_generators(n), lambda n: f"unknown witness preset {n!r}",
    ),
    "parameter": (
        (), ParameterImage.from_dict, lambda n: presets.witness_parameter(n),
        lambda n: f"unknown parameter preset {n!r}",
    ),
    "scenario": (
        ("p", "f", "i_sl4"), _scenario, lambda n: scenario_from_dict(presets.scenario_dict(n)),
        lambda n: f"unknown scenario {n!r}; shipped: {', '.join(presets.scenario_names())}",
    ),
}


def _load(kind: str, arg: str, from_file: Optional[bool] = None):
    """The ``kind`` input that ``arg`` names: the JSON file at that path if one
    exists (or if ``from_file`` says so), else the preset of that name."""
    ints, read, lookup, unknown = _KINDS[kind]
    if not (os.path.isfile(arg) if from_file is None else from_file):
        try:
            return lookup(arg)
        except KeyError:
            raise InputError(unknown(arg))
    context = f"bad {kind} file {arg}"
    data = _read_json_file(arg)
    _require_ints(data, ints, context)
    try:
        return read(data)
    except KeyError as exc:
        raise InputError(f"{context}: missing key {exc}")
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{context}: {exc}")


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
    d = _load("datum", args.name)
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


def _cmd_iso(args) -> int:
    # allow both `iso search D1 D2` and the bare `iso D1 D2`
    if args.first in ("check", "search"):
        if args.maybe_d2 is None:
            raise InputError("iso needs two data")
        mode, name1, name2 = args.first, args.d1_or_d2, args.maybe_d2
    else:
        if args.maybe_d2 is not None:
            raise InputError(f"iso takes two data; unexpected argument {args.maybe_d2!r}")
        mode, name1, name2 = "search", args.first, args.d1_or_d2
    if mode == "check":
        given = [o for o, v in (("--det", args.det), ("--fix-delta", args.fix_delta)) if v]
        if given:
            raise InputError(f"iso check takes no {', '.join(given)}; use iso search")
    elif args.map:
        raise InputError(f"iso search takes no --map (got {args.map!r}); use iso check")
    d1 = _load("datum", name1)
    d2 = _load("datum", name2)
    if mode == "check":
        if not args.map:
            raise InputError("iso check needs --map FILE-or-preset")
        ok = check_isomorphism(_load("map", args.map), d1, d2)
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
    ok = verify_exact_sequence(_load("sequence", args.seq))
    _emit(args, {"exact": ok}, "OK" if ok else "NOT EXACT")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_group(args) -> int:
    if args.preset and args.file:
        raise InputError("group takes --preset NAME or --file FILE, not both")
    if not (args.preset or args.file):
        raise InputError("group commands need --preset NAME or --file FILE")
    gens = _load("group", args.file or args.preset, from_file=bool(args.file))
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


def _cmd_params(args) -> int:
    phi = _load("parameter", args.param)
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
    scenario = _load("scenario", args.scenario)
    witness = None
    if scenario.witness:
        try:
            witness = presets.witness_parameter(scenario.witness)
        except KeyError as exc:
            raise InputError(f"bad witness reference: {exc.args[0]}")
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

    def add(name, run, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(run=run)
        return p

    p = add("datum", _cmd_datum, help="inspect a based root datum")
    p.add_argument("name", help="preset name or JSON file")
    p.add_argument(
        "action",
        choices=["describe", "center", "dual", "sc-center", "roots"],
    )

    p = add("iso", _cmd_iso, help="check or search root-datum isomorphisms")
    p.add_argument("first", help="'check', 'search', or the source datum")
    p.add_argument("d1_or_d2", help="datum")
    p.add_argument("maybe_d2", nargs="?", help="target datum when a mode is given")
    p.add_argument("--map", help="map preset or JSON file (for check)")
    p.add_argument("--fix-delta", action="store_true", help="fix the simple-root assignment in listed order")
    p.add_argument("--det", choices=["+1", "-1", "1"], help="determinant constraint")

    p = add("exact", _cmd_exact, help="verify a character-lattice exact sequence")
    p.add_argument("seq", help="sequence preset or JSON file")

    p = add("group", _cmd_group, help="finite matrix group computations")
    p.add_argument("action", choices=["gen", "table", "id"])
    p.add_argument("--preset", help="named generator preset")
    p.add_argument("--file", help="JSON file with a generators array")

    p = add("params", _cmd_params, help="component groups of a parameter image")
    p.add_argument("param", help="witness preset or JSON file")

    p = add("packets", _cmd_packets, help="packet sizes for a scenario")
    p.add_argument("scenario", help="scenario preset or JSON file")

    add("verify-paper", _cmd_verify_paper, help="run the bundled regression catalogue")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except BrokenPipeError:  # the interpreter's last flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (
        InputError, NotEllipticError, NormalizationError, FieldInsufficientError, ValueError
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotFiniteError, CapExceededError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InfiniteFamilyError as exc:
        print(f"infinite family: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AssertionError, RuntimeError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
