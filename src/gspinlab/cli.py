"""Command-line front door.

Verbs: datum | iso | exact | group | params | packets | verify-paper.
Exit codes: 0 ok, 1 verification-false, 2 input error, 3 cap exceeded or
an isomorphism family too large to list, 4 an internal consistency check
failed, 141 stdout closed by its reader (the shell's status for SIGPIPE).
All file I/O is UTF-8 JSON; the schemas are documented in docs/schemas.md.
Every file-or-preset argument goes through ``_load``, which reads one table
row per input kind. The grammar is one table too: ``_VERBS`` holds each
verb's handler, help, positionals and options, and ``parse_argv`` reads argv
against it as argparse did (unique prefixes, ``--opt=value``, ``--``,
negative numbers as values, options between positionals, the last value of
a repeated option), so that a cold command neither imports argparse, gettext
and locale nor builds a parser. ``-h`` prints usage from the same table; a
usage error is an input error.
"""
from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
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
            f"Cartan matrix:  {[list(row) for row in d.cartan_matrix()]}"
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


def _cmd_help(args) -> int:
    print(args.usage)
    return EXIT_OK


# The command-line grammar: verb -> (handler, help, positionals, options).
# A positional is (dest, choices or None, help); "[dest]" is the trailing
# optional one. An option is (string, kind, default, choices or None, help):
# kind bool is a flag; int and str take a value.
_COMMON = (
    ("--json", bool, False, None, "machine-readable output"),
    ("--quiet", bool, False, None, "suppress detail text"),
    ("--cap", int, 512, None, "size cap for closures and root sets"),
)
_HELP = ("-h, --help", bool, False, None, "show this help message and exit")
_VERBS = {
    "datum": (_cmd_datum, "inspect a based root datum", (
        ("name", None, "preset name or JSON file"),
        ("action", ("describe", "center", "dual", "sc-center", "roots"), None),
    ), ()),
    "iso": (_cmd_iso, "check or search root-datum isomorphisms", (
        ("first", None, "'check', 'search', or the source datum"),
        ("d1_or_d2", None, "datum"),
        ("[maybe_d2]", None, "target datum when a mode is given"),
    ), (
        ("--map", str, None, None, "map preset or JSON file (for check)"),
        ("--fix-delta", bool, False, None, "fix the simple-root assignment in listed order"),
        ("--det", str, None, ("+1", "-1", "1"), "determinant constraint"),
    )),
    "exact": (_cmd_exact, "verify a character-lattice exact sequence", (
        ("seq", None, "sequence preset or JSON file"),
    ), ()),
    "group": (_cmd_group, "finite matrix group computations", (
        ("action", ("gen", "table", "id"), None),
    ), (
        ("--preset", str, None, None, "named generator preset"),
        ("--file", str, None, None, "JSON file with a generators array"),
    )),
    "params": (_cmd_params, "component groups of a parameter image", (
        ("param", None, "witness preset or JSON file"),
    ), ()),
    "packets": (_cmd_packets, "packet sizes for a scenario", (
        ("scenario", None, "scenario preset or JSON file"),
    ), ()),
    "verify-paper": (_cmd_verify_paper, "run the bundled regression catalogue", (), ()),
}
_HELP_STRINGS = {"-h": _HELP, "--help": _HELP}
# what argparse reads as a negative number, and so as a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _braces(choices) -> str:
    return "{" + ",".join(choices) + "}"


def _columns(rows) -> List[str]:
    width = max(len(label) for label, _ in rows) + 2
    return [f"  {label:<{width}}{text}" for label, text in rows]


def _usage(verb: Optional[str] = None) -> str:
    about = "Exact workbench for based root data, component groups, and packet counts"
    if verb is None:
        return "\n".join([
            "usage: gspinlab [-h] VERB ...", "", about, "", "verbs:",
            *_columns([(name, row[1]) for name, row in _VERBS.items()]),
            "", "'gspinlab VERB -h' lists a verb's arguments and options.",
        ])
    _, about, positionals, options = _VERBS[verb]
    options = (_HELP, *_COMMON, *options)
    labels = [
        s if kind is bool else f"{s} {_braces(choices) if choices else s[2:].upper()}"
        for s, kind, _, choices, _ in options
    ]
    words = ["[-h]", *(f"[{label}]" for label in labels[1:])]
    words += [_braces(choices) if choices else dest for dest, choices, _ in positionals]
    lines = [f"usage: gspinlab {verb} " + " ".join(words), "", about]
    if positionals:
        rows = [(dest, text or _braces(choices)) for dest, choices, text in positionals]
        lines += ["", "arguments:", *_columns(rows)]
    rows = [(label, o[4]) for label, o in zip(labels, options)]
    return "\n".join([*lines, "", "options:", *_columns(rows)])


def _read_option(token: str, strings: dict):
    """What argparse makes of ``token`` among these option strings: None for a
    positional, else (option string, or None when unknown; the value attached
    by "=" or after a short option, or None). Unique prefixes of long options
    count; an ambiguous prefix is refused."""
    if token[:1] != "-" or token == "-":
        return None
    if token in strings:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in strings:
        return head, value
    if token[1] == "-":
        found = [s for s in strings if s.startswith(head)]
        if len(found) > 1:
            raise InputError(f"ambiguous option {token!r} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[:2] in strings:
        return token[:2], token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _choose(name: str, choices, value: str) -> None:
    if choices and value not in choices:
        raise InputError(f"{name} must be one of {', '.join(choices)}, not {value!r}")


def _help(string: str, value: Optional[str], verb: Optional[str]) -> SimpleNamespace:
    # -hh is -h bundled with itself, as argparse reads short flags
    if value is None or (string == "-h" and value and not value.strip("h")):
        return SimpleNamespace(run=_cmd_help, usage=_usage(verb))
    raise InputError(f"option {string} takes no value (got {value!r})")


def parse_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace the handlers read (the verb's dests, ``command`` and
    ``run``), read from argv against ``_VERBS``; for -h/--help, one whose
    ``run`` prints the usage. InputError names the argument at fault.

    As argparse did, options are read left to right, so -h after a bad value
    is not reached; an ambiguous option is refused before anything is read,
    and unknown options and surplus arguments are refused last."""
    late: List[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            raise InputError("'--' before the verb")
        option = _read_option(token, _HELP_STRINGS)
        if option is None:
            break
        if option[0] is None:
            late.append(f"unknown option {token!r}")
        else:
            return _help(*option, None)
    else:
        raise InputError(f"no verb given; choose from {', '.join(_VERBS)}")
    verb, tokens = argv[i], argv[i + 1:]
    if verb not in _VERBS:
        raise InputError(f"unknown verb {verb!r}; choose from {', '.join(_VERBS)}")
    run, _, positionals, options = _VERBS[verb]
    strings = {**_HELP_STRINGS, **{o[0]: o for o in (*_COMMON, *options)}}
    dashes = tokens.index("--") if "--" in tokens else len(tokens)
    read = [_read_option(t, strings) for t in tokens[:dashes]] + [None] * (len(tokens) - dashes)
    args = {d.strip("[]"): None for d, _, _ in positionals}
    args.update((o[0][2:].replace("-", "_"), o[2]) for o in (*_COMMON, *options))
    bound, last_bound, j = 0, None, 0
    while j < len(tokens):
        token, option = tokens[j], read[j]
        if j == dashes:
            # argparse lets the positional bound just before '--', or one still to come, take it
            if bound == len(positionals) and last_bound != j - 1:
                late.append("unexpected argument '--'")
        elif option is None:
            if bound == len(positionals):
                late.append(f"unexpected argument {token!r}")
            else:
                dest, choices, _ = positionals[bound]
                _choose(dest, choices, token)
                args[dest.strip("[]")] = token
                bound, last_bound = bound + 1, j
        elif option[0] is None:
            late.append(f"unknown option {token!r}")
        else:
            string, value = option
            spec = strings[string]
            if spec is _HELP:
                return _help(string, value, verb)
            _, kind, _, choices, _ = spec
            if kind is bool:
                if value is not None:
                    raise InputError(f"option {string} takes no value (got {value!r})")
                value = True
            elif value is None:
                if j + 1 >= dashes or read[j + 1] is not None:
                    raise InputError(f"option {string} needs a value")
                j += 1
                value = tokens[j]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise InputError(f"option {string} needs an integer, not {value!r}")
            else:
                _choose(f"option {string}", choices, value)
            args[string[2:].replace("-", "_")] = value
        j += 1
    missing = [d for d, _, _ in positionals[bound:] if not d.startswith("[")]
    if missing:
        raise InputError(f"{verb} needs {' and '.join(missing)}")
    if late:
        raise InputError(late[0])
    return SimpleNamespace(command=verb, run=run, **args)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
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
