import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gspinlab
from gspinlab import presets
from gspinlab.cli import EXIT_PIPE, main
from gspinlab.gaussian import QI
from gspinlab.root_datum import gl_datum


def package_env():
    """The environment with this package first on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ)
    src = str(Path(gspinlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_datum_center_output(capsys):
    code, out, _ = run(capsys, "datum", "GSpin4", "center")
    assert code == 0
    assert out.strip() == "GL1 x mu2; pi0 = Z/2"


def test_datum_sc_center_output(capsys):
    code, out, _ = run(capsys, "datum", "GSpin6", "sc-center")
    assert code == 0
    assert out.strip() == "mu4"


def test_datum_roots_count(capsys):
    code, out, _ = run(capsys, "datum", "GL2xGL2", "roots")
    assert code == 0
    assert out.splitlines()[0] == "4 roots"


def test_datum_json_roundtrip(capsys):
    code, out, _ = run(capsys, "datum", "GSpin4", "describe", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3
    assert data["simple_roots"] == [[0, 1, -1], [0, 1, 1]]


def test_datum_file_describe_prints_its_label(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({**presets.datum("GSpin4").to_dict(), "label": "mine"}), "utf-8")
    code, out, _ = run(capsys, "datum", str(path), "describe")
    assert code == 0
    assert out.startswith("mine: rank 3, 2 simple roots\n"), out


def test_unknown_preset_is_input_error(capsys):
    code, _, err = run(capsys, "datum", "NoSuchThing", "center")
    assert code == 2
    assert "unknown datum preset" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"rank\": 2,,\n}\n", encoding="utf-8")
    code, _, err = run(capsys, "datum", str(bad), "center")
    assert code == 2
    assert "line" in err and "column" in err


def test_iso_search_prints_distinguished_matrix(capsys):
    code, out, _ = run(capsys, "iso", "GSpin4", "G4", "--fix-delta", "--det", "+1")
    assert code == 0
    assert "1 isomorphism(s)" in out
    assert "[0, 0, -1]" in out and "[-1, 1, 1]" in out


def test_iso_search_json(capsys):
    code, out, _ = run(capsys, "iso", "search", "GSpin4", "G4", "--fix-delta", "--det", "+1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["maps"][0]["iota"] == [[0, 0, -1], [0, -1, 0], [-1, 1, 1]]


def test_iso_search_empty_exits_one(capsys):
    code, out, _ = run(capsys, "iso", "SL4", "SL2xSL2")
    assert code == 1


def test_iso_search_refuses_infinite_family(capsys):
    # rank 4 with 2 simple roots: a 4-parameter family, refused with or without constraints
    for extra in ((), ("--fix-delta", "--det", "+1")):
        code, out, err = run(capsys, "iso", "search", "GL2xGL2", "GL2xGL2", *extra)
        assert code == 3, extra
        assert out == ""
        assert err.startswith("infinite family: rank 4, |Delta| = 2: ") and "4-parameter family" in err
        assert "none or infinitely many" in err


def test_iso_search_different_centers_at_gap_two_answers_none(tmp_path, capsys):
    # rank 3 with one simple root; the centers are Z^2 against Z^2 x Z/2
    data = {
        "gl2xgl1": {"rank": 3, "simple_roots": [[1, -1, 0]], "simple_coroots": [[1, -1, 0]]},
        "sl2xgl1xgl1": {"rank": 3, "simple_roots": [[2, 0, 0]], "simple_coroots": [[1, 0, 0]]},
    }
    paths = []
    for name, d in data.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(d))
    for first, second in (paths, paths[::-1]):
        code, out, err = run(capsys, "iso", "search", str(first), str(second))
        assert (code, out, err) == (1, "0 isomorphism(s)\n", "")
    # the self-search still refuses: equal centers decide nothing
    code, _, err = run(capsys, "iso", "search", str(paths[0]), str(paths[0]))
    assert code == 3 and err.startswith("infinite family: rank 3, |Delta| = 1: ")


def test_cold_iso_search_of_a_rank_twelve_file(tmp_path):
    # GL12 onto itself: 11 simple roots, whose 11! permutations the search
    # once filtered one by one
    path = tmp_path / "gl12.json"
    path.write_text(json.dumps(gl_datum(12).to_dict()), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "gspinlab.cli", "iso", "search", str(path), str(path)],
        capture_output=True, text=True, env=package_env(), timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "2 isomorphism(s)"


@pytest.mark.parametrize(
    "argv",
    [["iso", "search", "GSpin6", "G6"], ["datum", "GSpin4", "describe"], ["verify-paper", "--json"]],
)
def test_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gspinlab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=package_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr


def test_iso_check_with_map_preset(capsys):
    code, out, _ = run(capsys, "iso", "check", "GSpin4", "G4", "--map", "gspin4_to_g4")
    assert code == 0
    assert "yes" in out
    code, _, _ = run(capsys, "iso", "check", "GSpin6", "G6", "--map", "gspin6_to_g6")
    assert code == 0


def test_exact_ok_and_failure(tmp_path, capsys):
    code, out, _ = run(capsys, "exact", "gspin4_in_gl2xgl2")
    assert code == 0 and out.strip() == "OK"
    broken = tmp_path / "seq.json"
    broken.write_text(
        json.dumps(
            {"maps": [[[1], [1], [-1], [0]], [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "exact", str(broken))
    assert code == 1 and out.strip() == "NOT EXACT"


def test_group_commands(capsys):
    code, out, _ = run(capsys, "group", "id", "--preset", "klein_four_sl2")
    assert code == 0 and out.strip() == "Q8"
    code, out, _ = run(capsys, "group", "gen", "--preset", "mu4_sl4")
    assert code == 0 and "order 4" in out
    code, out, _ = run(capsys, "group", "table", "--preset", "klein_four_sl2", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(r["degree"] for r in data["characters"]) == [1, 1, 1, 1, 2]


def test_group_cap_exceeded(capsys):
    code, _, err = run(capsys, "group", "gen", "--preset", "binary_tetrahedral", "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_params_report(capsys):
    code, out, _ = run(capsys, "params", "coupled_klein_four")
    assert code == 0
    assert "Q8 x Z/2" in out and "(Z/2)^2" in out
    code, out, _ = run(capsys, "params", "coupled_klein_four", "--json")
    data = json.loads(out)
    assert data["s_phi_sc_order"] == 16 and data["extension_ok"]


def test_params_not_elliptic_is_input_error(tmp_path, capsys):
    doc = {
        "kind": "parameter",
        "ambient": "GSO4",
        "generators": [[[["1", "0"], ["0", "-1"]], [["1", "0"], ["0", "-1"]]]],
    }
    f = tmp_path / "param.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "params", str(f))
    assert code == 2
    assert "not elliptic" in err


def test_params_ignores_relations_key(tmp_path, capsys):
    # w2 = 1 is false in the image; a relation must not prune the twists
    outputs = []
    for extra in ({}, {"relations": [[[1, 1]]]}):
        f = tmp_path / f"param{len(outputs)}.json"
        f.write_text(json.dumps({**presets.witness("coupled_klein_four"), **extra}), encoding="utf-8")
        outputs.append(run(capsys, "params", str(f)))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[1]
    assert code == 0 and err == ""
    assert "S_phi_sc: Q8 x Z/2 (order 16)" in out


def test_params_file_reads_both_matrices_of_a_gso4_pair(tmp_path, capsys):
    # (A, diag(1, i)) is not (A, A): read as (h1, h1) it would be coupled_klein_four
    doc = {
        "kind": "parameter",
        "ambient": "GSO4",
        "generators": [
            [[["i", "0"], ["0", "-i"]], [["1", "0"], ["0", "i"]]],
            [[["0", "1"], ["-1", "0"]], [["0", "1"], ["-1", "0"]]],
        ],
    }
    f = tmp_path / "param.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "params", str(f)) == (
        0,
        "ambient GSO4\n"
        "S_phi_sc: Z/2 x Z/4 (order 8)\n"
        "S_phi:    Z/2 (order 2)\n"
        "Z_hat:    Z/2 x Z/2 (order 4)\n"
        "extension exact: True\n"
        "twists with solutions: 2\n",
        "",
    )


def test_packets_scenario_output(capsys):
    code, out, _ = run(capsys, "packets", "dihedral3-twist")
    assert code == 0
    assert "sizes 4/1/1" in out
    assert "m = 1/2/2" in out
    assert "consistent: True" in out


def test_packets_scenario_file(tmp_path, capsys):
    doc = {
        "family": "GSpin6",
        "i_sl4": [4],
        "p": 3,
        "f": 1,
    }
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "packets", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["igroup"] == "Z/2"
    assert data["outcomes"][0]["sizes"]["split"] == 2


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer-string limit before 3.10.7"
)


@pytest.fixture
def digit_limit():
    """Sets the interpreter's integer-string limit for one test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def _p2_scenario(tmp_path, f):
    path = tmp_path / f"p2-f{f}.json"
    path.write_text(json.dumps({"family": "GSpin6", "i_sl4": [2], "p": 2, "f": f}), "utf-8")
    return str(path)


@needs_digit_limit
@pytest.mark.parametrize("as_json", [False, True])
def test_packets_square_class_bound_at_the_digit_limit(tmp_path, capsys, digit_limit, as_json):
    # 2^2126 has 640 digits and 2^2127 has 641: f = 2124 is the last that prints
    digit_limit(640)
    flags = ["--json"] if as_json else []
    code, out, err = run(capsys, "packets", _p2_scenario(tmp_path, 2124), *flags)
    assert (code, err) == (0, "")
    if as_json:
        assert json.loads(out)["square_class_bound"] == 2**2126
    else:
        assert f"square-class bound: {2**2126} (divisors [1, 2, 4," in out
    code, out, err = run(capsys, "packets", _p2_scenario(tmp_path, 2125), *flags)
    assert (code, out) == (2, "")
    assert err == (
        "input error: f = 2125 is too large: the square-class bound 2^2127 has more "
        "than 640 digits, the interpreter's limit for printing an integer\n"
    )


@needs_digit_limit
def test_square_class_bound_refusal_follows_the_digit_limit(digit_limit):
    from gspinlab.packets import square_class_bound

    digit_limit(4300)
    with pytest.raises(ValueError, match=r"^f = 14283 is too large: .* 2\^14285 has more than 4300 digits"):
        square_class_bound(2, 14283)
    assert square_class_bound(2, 14282)[0] == 2**14284
    # the bound for odd p does not grow with f
    assert square_class_bound(3, 14283) == (4, [1, 2, 4])
    digit_limit(0)
    card, divisors = square_class_bound(2, 14283)
    assert card == 2**14285 and divisors[-1] == card and len(divisors) == 14286


def test_packets_unknown_scenario(capsys):
    code, _, err = run(capsys, "packets", "no-such-scenario")
    assert code == 2


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--quiet")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_run_catalogue_parses_each_data_file_once(monkeypatch):
    from gspinlab.verify import run_catalogue

    parsed = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    presets._read.cache_clear()
    monkeypatch.setattr(json, "loads", counting)
    assert all(item.ok for item in run_catalogue())
    # root data, maps, sequences, witnesses and realizations, and the five
    # replayed scenarios, each parsed once
    assert len(parsed) == len(set(parsed)) == 10


def test_verify_paper_replays_the_shipped_scenarios(monkeypatch):
    import gspinlab.verify as verify_mod

    assert presets.scenario_dict("dihedral3-twist") is presets.scenario_dict("dihedral3-twist.json")
    shipped = presets.scenario_dict
    doctored = {
        **shipped("dihedral3-twist"),
        "twist_equivalent": False,
        "factor2": {"kind": "dihedral_three", "labels": ["xa", "xb", "xc"]},
    }
    monkeypatch.setattr(
        presets, "scenario_dict", lambda n: doctored if n == "dihedral3-twist" else shipped(n)
    )
    item = next(r for r in verify_mod.run_catalogue() if r.name == "rules/stabilizer-dihedral3")
    assert (item.ok, item.detail) == (False, "I = 1")


@pytest.mark.parametrize("target, item", [("check_isomorphism", "iso/distinguished-matrix-rank4")])
def test_verify_item_fails_when_one_check_fails(monkeypatch, target, item):
    # every other conjunct of the item still holds; only the first call is refused
    import gspinlab.verify as verify_mod

    original = getattr(verify_mod, target)
    calls = []

    def first_call_fails(*args):
        calls.append(args)
        return False if len(calls) == 1 else original(*args)

    monkeypatch.setattr(verify_mod, target, first_call_fails)
    results = {r.name: r for r in verify_mod.run_catalogue()}
    assert not results[item].ok, results[item].detail


@pytest.mark.parametrize("field, value", [("consistent", False), ("bound_card", 8)])
def test_consistency_item_fails_on_the_first_report(monkeypatch, field, value):
    # the first reference report is inconsistent, or carries a bound other than 4
    import gspinlab.verify as verify_mod

    original = verify_mod.scenario_report
    reports = []

    def doctor_first(*args):
        reports.append(original(*args))
        if len(reports) == 1:
            setattr(reports[0], field, value)
        return reports[-1]

    monkeypatch.setattr(verify_mod, "scenario_report", doctor_first)
    results = {r.name: r for r in verify_mod.run_catalogue()}
    item = results["rules/consistency-checks"]
    assert (item.ok, item.detail) == (False, "both reference scenarios consistent against bound 4")
    assert len(reports) == 2


def test_verify_paper_fault_injection(capsys, monkeypatch):
    import gspinlab.verify as verify_mod

    broken = list(verify_mod.CATALOGUE) + [
        ("injected/false", lambda: (False, "forced failure")),
        ("injected/crash", lambda: (_ for _ in ()).throw(RuntimeError("boom"))),
    ]
    monkeypatch.setattr(verify_mod, "CATALOGUE", broken)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert "[FAIL] injected/false" in out
    assert "[FAIL] injected/crash" in out and "boom" in out


def test_exit_codes_for_malformed_inputs(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all", encoding="utf-8")
    # well-formed JSON of the wrong shape
    shapes = {
        "list": "[1, 2]",
        "generators": '{"generators": [5]}',
        "parameter": '{"ambient": "GSO4", "generators": [5]}',
        "short-pair": '{"ambient": "GSO4", "generators": [[["1"]]]}',
        # Q(i) entries must be strings
        "int-entry": '{"generators": [[["1", 2], ["0", "1"]]]}',
        "int-entry-gso4": '{"ambient": "GSO4", "generators": '
        '[[[["1", "0"], ["0", 1]], [["1", "0"], ["0", "1"]]]]}',
        "list-scalar-gso6": '{"ambient": "GSO6", "generators": [[["1"], '
        '[["1", "0", "0", "0"], ["0", "1", "0", "0"], '
        '["0", "0", "1", "0"], ["0", "0", "0", "1"]]]]}',
        "scenario": '{"family": "GSpin6", "i_sl4": 5, "p": 3}',
        "maps": '{"maps": 5}',
        # entries that int() would silently turn into 1 or 2
        "float-entry": '{"maps": [[[1.9], [1], [-1], [-1]], [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]]}',
        "bool-entry": '{"maps": [[[true], [1], [-1], [-1]], [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]]}',
        "string-entry": '{"maps": [[["1"], [1], [-1], [-1]], [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]]}',
        "float-root": '{"rank": 1, "simple_roots": [[2.2]], "simple_coroots": [[1]]}',
        "float-rank": '{"rank": 1.0, "simple_roots": [[2]], "simple_coroots": [[1]]}',
        "float-g4": '{"rank": 3, "simple_roots": [[1, -1, 0], [-1, -1, 2.0]], '
        '"simple_coroots": [[1, -1, 0], [0, 0, 1]]}',
        "float-iota": '{"iota": [[0, 0, -1.0], [0, -1, 0], [-1, 1, 1]], '
        '"iota_vee": [[0, 0, -1], [0, -1, 1], [-1, 0, 1]]}',
    }
    bad = {}
    for name, text in shapes.items():
        bad[name] = tmp_path / f"{name}.json"
        bad[name].write_text(text, encoding="utf-8")
    for argv in (
        ["datum", str(bad["list"]), "center"],
        ["exact", str(bad["list"])],
        ["params", str(bad["list"])],
        ["packets", str(bad["list"])],
        ["group", "id", "--file", str(bad["list"])],
        ["iso", "check", "GSpin4", "G4", "--map", str(bad["list"])],
        ["group", "id", "--file", str(bad["generators"])],
        ["params", str(bad["parameter"])],
        ["params", str(bad["short-pair"])],
        ["group", "gen", "--file", str(bad["int-entry"])],
        ["params", str(bad["int-entry-gso4"])],
        ["params", str(bad["list-scalar-gso6"])],
        ["packets", str(bad["scenario"])],
        ["exact", str(bad["maps"])],
        ["exact", str(bad["float-entry"])],
        ["exact", str(bad["bool-entry"])],
        ["exact", str(bad["string-entry"])],
        ["datum", str(bad["float-root"]), "describe"],
        ["datum", str(bad["float-rank"]), "describe"],
        ["iso", "check", "GSpin4", str(bad["float-g4"]), "--map", "gspin4_to_g4"],
        ["iso", "check", "GSpin4", "G4", "--map", str(bad["float-iota"])],
        ["datum", str(garbage), "center"],
        ["exact", str(garbage)],
        ["params", str(garbage)],
        ["packets", str(garbage)],
        ["group", "id", "--file", str(garbage)],
        ["iso", "check", "GSpin4", "G4", "--map", str(garbage)],
        ["datum", "NoSuchPreset", "center"],
        ["exact", "no-such-sequence"],
        ["params", "no-such-witness"],
        ["group", "id"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("input error: "), argv
    # an argument the command would otherwise drop is named, not ignored
    iso_check = ["iso", "check", "GSpin4", "G4", "--map", "gspin4_to_g4"]
    for argv, extra in (
        (["iso", "GSpin4", "G4", "G6"], "'G6'"),
        (["iso", "search", "GSpin4", "G4", "--map", "gspin4_to_g4"], "--map"),
        # a map decides its own determinant and assignment
        (iso_check + ["--det", "-1", "--fix-delta"], "--det, --fix-delta"),
        (iso_check + ["--det", "+1"], "--det"),
        (iso_check + ["--fix-delta"], "--fix-delta"),
        # a group has one source: neither option is dropped silently
        (
            ["group", "id", "--preset", "klein_four_sl2", "--file", str(tmp_path / "absent.json")],
            "--preset NAME or --file FILE, not both",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("input error: ") and extra in err, (argv, err)
        assert out == ""
    # scenario and parameter numbers: int() would read these as 3, 1, 2 or 4,
    # and bool() reads "false" as true; the error must name the key
    gspin6 = {"family": "GSpin6", "i_sl4": [2, 2], "p": 3, "witness": "cyclic_quartic_gso6"}
    cases = []
    for key, values in (
        ("p", (3.9, True, "3")),
        ("f", (1.0, True, "1")),
        ("i_sl4", ([2, 2.0], [2, True], ["2", 2])),
    ):
        for value in values:
            cases.append(("packets", {**gspin6, key: value}, f"{key} holds"))
    gspin4 = presets.scenario_dict("reducible-pair")
    cases.append(
        ("packets", {**gspin4, "twist_equivalent": "false"}, "twist_equivalent holds")
    )
    cases.append(("packets", {**gspin4, "p": 3.0}, "p holds"))
    for k, (command, data, reason) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert code == 2, (command, data)
        assert err.startswith("input error: ") and reason in err, (command, data, err)
        assert out == ""



def test_zero_denominator_and_empty_matrix_are_input_errors(tmp_path, capsys):
    one = [["1", "0"], ["0", "1"]]
    files = {
        "group-zero": {"generators": [[["1/0", "0"], ["0", "1"]]]},
        "group-empty": {"generators": [[]]},
        "param-zero": {"ambient": "GSO4", "generators": [[[["1/0", "0"], ["0", "1"]], one]]},
        "param-empty": {"ambient": "GSO4", "generators": [[[], one]]},
        "param6-empty": {"ambient": "GSO6", "generators": [["1", []]]},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    empty = "GaussianMatrix must be at least 1x1, got a 0x0 matrix"
    for argv, reason in (
        (["group", "gen", "--file", "group-zero.json"], "bad group file {}: Fraction(1, 0)"),
        (["group", "id", "--file", "group-empty.json"], "bad group file {}: " + empty),
        (["params", "param-zero.json"], "bad parameter file {}: Fraction(1, 0)"),
        (["params", "param-empty.json"], "bad parameter file {}: " + empty),
        (["params", "param6-empty.json"], "bad parameter file {}: " + empty),
    ):
        path = str(tmp_path / argv[-1])
        code, out, err = run(capsys, *argv[:-1], path)
        assert (code, out, err) == (2, "", f"input error: {reason.format(path)}\n"), argv


# kind -> (argv with "{}" for the file or preset name, argv for a preset name
# where it differs, a file missing a required key, that key, the start of the
# unknown-preset message)
INPUT_KINDS = {
    "datum": (["datum", "{}", "center"], None, {"simple_roots": []}, "rank", "unknown datum preset"),
    "map": (
        ["iso", "check", "GSpin4", "G4", "--map", "{}"], None, {"iota": [[1]]}, "iota_vee",
        "unknown map preset",
    ),
    "sequence": (["exact", "{}"], None, {}, "maps", "unknown sequence preset"),
    "group": (
        ["group", "id", "--file", "{}"], ["group", "id", "--preset", "{}"], {}, "generators",
        "unknown witness preset",
    ),
    "parameter": (["params", "{}"], None, {"generators": []}, "ambient", "unknown parameter preset"),
    "scenario": (
        ["packets", "{}"], None,
        {"family": "GSpin4", "factor1": {"kind": "dihedral_one", "labels": ["a"]}}, "factor2",
        "unknown scenario",
    ),
}


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
def test_each_input_kind_names_a_missing_key_and_an_unknown_preset(kind, tmp_path, capsys):
    file_argv, preset_argv, data, key, unknown = INPUT_KINDS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path) for a in file_argv))
    assert (code, out, err) == (2, "", f"input error: bad {kind} file {path}: missing key {key!r}\n")
    name = f"no-such-{kind}"
    code, out, err = run(capsys, *(a.format(name) for a in preset_argv or file_argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {unknown} {name!r}"), err


def test_refusals_name_their_cause(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    scenario = {**presets.scenario_dict("dihedral3-twist"), "witness": "nope"}
    path.write_text(json.dumps(scenario), encoding="utf-8")
    for argv, message in (
        (["group", "id", "--preset", "nope"], "unknown witness preset 'nope'"),
        (["packets", str(path)], "bad witness reference: unknown witness preset 'nope'"),
        (["params", "klein_four_sl2"], "witness 'klein_four_sl2' is not a parameter image"),
    ):
        assert run(capsys, *argv) == (2, "", f"input error: {message}\n"), argv


def test_scenario_names_stay_in_the_scenarios_folder(capsys):
    # "../root_data" used to read gspinlab/data/root_data.json as a scenario
    assert presets.scenario_dict("gspin6-klein.json") == presets.scenario_dict("gspin6-klein")
    shipped = ", ".join(presets.scenario_names())
    for name in ("../root_data", "../scenarios/gspin6-klein"):
        with pytest.raises(KeyError):
            presets.scenario_dict(name)
        message = f"input error: unknown scenario {name!r}; shipped: {shipped}\n"
        assert run(capsys, "packets", name) == (2, "", message)


def test_witness_that_contradicts_the_scenario_is_refused(tmp_path, capsys):
    twist = presets.scenario_dict("dihedral3-twist")
    gspin6 = presets.scenario_dict("gspin6-klein")
    for data, reason in (
        ({**twist, "witness": "binary_tetrahedral_pair"}, "witness S_phi_sc is (Z/2)^2;"),
        ({**twist, "witness": "dihedral_one_pair"}, "witness S_phi_sc is Z/2 x Z/4;"),
        ({**twist, "witness": "cyclic_quartic_gso6"}, "needs a GSO4 witness, not a GSO6 one"),
        ({**gspin6, "witness": "coupled_klein_four"}, "needs a GSO6 witness, not a GSO4 one"),
    ):
        path = tmp_path / f"{data['witness']}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "packets", str(path))
        assert (code, out) == (2, ""), data["witness"]
        assert err.startswith("input error: ") and reason in err, err


def test_witness_that_contradicts_fixed_rules_is_refused(tmp_path, capsys):
    # each used to print its report, [confirmed] or consistent: True included
    gspin6 = {"family": "GSpin6", "p": 3, "f": 1, "witness": "cyclic_quartic_gso6"}
    s_phi6 = "witness 'cyclic_quartic_gso6' has S_phi (Z/2)^2 (order 4), not the I group"
    for data, message in (
        (
            {**presets.scenario_dict("reducible-pair"), "witness": "binary_tetrahedral_pair"},
            "witness 'binary_tetrahedral_pair' has S_phi_sc (Z/2)^2 (order 4), "
            "not the rules' abelian order 8 (order 8)",
        ),
        ({**gspin6, "i_sl4": [4]}, f"{s_phi6} Z/2 (order 2)"),
        ({**gspin6, "i_sl4": []}, f"{s_phi6} 1 (order 1)"),
        ({**gspin6, "i_sl4": [2, 2, 2]}, f"{s_phi6} Z/2 x Z/2 x Z/2 (order 8)"),
    ):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for extra in ((), ("--json",)):
            assert run(capsys, "packets", str(path), *extra) == (2, "", f"input error: {message}\n")
    # the (Z/2)^3 label fixes only order and commutativity, which the
    # Z/2 x Z/4 of two identical dihedral-one factors meets: the rules' answer stands
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps({**presets.scenario_dict("dihedral1-twist"), "witness": "dihedral_one_pair"}),
        encoding="utf-8",
    )
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "packets", str(path), *extra)
        assert (code, err) == (0, "")
        assert out == run(capsys, "packets", "dihedral1-twist", *extra)[1]


def test_verbs_reach_presets_through_the_module_attribute(monkeypatch, capsys):
    # perfbench's tracer counts preset loads by wrapping these attributes; a
    # lookup that held the function object itself would bypass the wrapper
    reached = set()
    for name in (
        "datum", "datum_map", "sequence", "witness_generators", "witness_parameter", "scenario_dict"
    ):
        def wrapper(*args, _name=name, _original=getattr(presets, name)):
            reached.add(_name)
            return _original(*args)

        monkeypatch.setattr(presets, name, wrapper)
    for argv, names in (
        (["datum", "GSpin4", "center"], {"datum"}),
        (["iso", "check", "GSpin4", "G4", "--map", "gspin4_to_g4"], {"datum", "datum_map"}),
        (["exact", "gspin4_in_gl2xgl2"], {"sequence"}),
        (["group", "id", "--preset", "klein_four_sl2"], {"witness_generators"}),
        (["params", "coupled_klein_four"], {"witness_parameter"}),
        (["packets", "dihedral3-twist"], {"scenario_dict", "witness_parameter"}),
    ):
        reached.clear()
        code, _, _ = run(capsys, *argv)
        assert (code, reached) == (0, names), argv

def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(item["ok"] for item in data["items"])
    assert len(data["items"]) >= 25


def test_failed_internal_check_exits_four(capsys, monkeypatch):
    import gspinlab.finite_groups as fg

    def broken(table):
        raise AssertionError("row orthogonality fails")

    monkeypatch.setattr(fg, "_validate_table", broken)
    code, out, err = run(capsys, "group", "table", "--preset", "klein_four_sl2")
    assert code == 4
    assert err.strip() == "internal check failed: row orthogonality fails"
    assert "Traceback" not in err and out == ""


def test_assembly_that_fails_to_close_exits_four(capsys, monkeypatch):
    import gspinlab.centralizers as cz

    orig = cz.sl_normalize
    monkeypatch.setattr(cz, "sl_normalize", lambda h: orig(h).scale(QI(2)))
    code, out, err = run(capsys, "params", "coupled_klein_four")
    assert code == 4
    assert err.strip() == "internal check failed: assembled twisted-centralizer set failed to close"
    assert "Traceback" not in err and out == ""
