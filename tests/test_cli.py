import json

from gspinlab import presets
from gspinlab.cli import main
from gspinlab.gaussian import QI


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


def test_packets_unknown_scenario(capsys):
    code, _, err = run(capsys, "packets", "no-such-scenario")
    assert code == 2


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--quiet")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


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
    parameter = {
        "ambient": "GSO4",
        "generators": [
            [[["i", "0"], ["0", "-i"]], [["i", "0"], ["0", "-i"]]],
            [[["0", "1"], ["-1", "0"]], [["0", "1"], ["-1", "0"]]],
        ],
        "relations": [[[0, 4.0]], [[1, 4]]],
    }
    cases.append(("params", parameter, "relations holds"))
    cases.append(("params", {**parameter, "relations": [[[0, 4]], [[True, 4]]]}, "relations holds"))
    for k, (command, data, reason) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert code == 2, (command, data)
        assert err.startswith("input error: ") and reason in err, (command, data, err)
        assert out == ""


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
