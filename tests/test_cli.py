import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gpd
import gpd.report
from gpd import census, cli, corpus, io
from gpd.cli import main


def run(args):
    return main([str(a) for a in args])


def write_c2(tmp_path):
    path = tmp_path / "c2.json"
    io.save_groupoid(path, corpus.cyclic(2))
    return path


def test_validate_ok(tmp_path, capsys):
    path = write_c2(tmp_path)
    assert run(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["size"] == 2


def test_validate_tampered_table(tmp_path, capsys):
    obj = io.groupoid_to_dict(corpus.cyclic(3))
    obj["product"][1][1] = 1  # breaks cancellation/associativity
    path = tmp_path / "broken.json"
    io.write_json(path, obj)
    assert run(["validate", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert "witness" in out["error"] or "axiom" in out["error"]


def test_validate_missing_file(tmp_path):
    assert run(["validate", tmp_path / "absent.json"]) == 2


def test_build_pair_golden_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["build", "pair", 2, "-o", out1]) == 0
    assert run(["build", "pair", 2, "-o", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = io.load_groupoid(out1)
    assert g.size == 4 and len(g.units) == 2


def test_build_cyclic_trivial(tmp_path):
    out = tmp_path / "c1.json"
    assert run(["build", "cyclic", 1, "-o", out]) == 0
    assert io.load_groupoid(out).size == 1


def test_build_transform(tmp_path):
    act_path = tmp_path / "act.json"
    io.save_action(act_path, corpus.swap_action())
    out = tmp_path / "g.json"
    assert run(["build", "transform", act_path, "-o", out]) == 0
    g = io.load_groupoid(out)
    assert g.size == 4 and len(g.units) == 2


def test_build_union(tmp_path):
    c2 = write_c2(tmp_path)
    out = tmp_path / "u.json"
    assert run(["build", "union", c2, c2, "-o", out]) == 0
    assert io.load_groupoid(out).size == 4


def test_build_cap_exceeded(tmp_path):
    assert run(["build", "pair", 9, "-o", tmp_path / "x.json"]) == 2


def test_build_bad_params(tmp_path):
    assert run(["build", "cyclic", "-o", tmp_path / "x.json"]) == 2


# each kind built from its first parameters and exited 0, dropping the rest
@pytest.mark.parametrize("kind, params", [
    ("cyclic", [3, 4]), ("pair", [2, 3]), ("unitset", [2, 3]),
    ("union", ["c2.json"] * 3), ("transform", ["act.json"] * 2),
])
def test_build_refuses_extra_parameters(tmp_path, capsys, kind, params):
    write_c2(tmp_path)
    io.save_action(tmp_path / "act.json", corpus.swap_action())
    out = tmp_path / "x.json"
    assert run(["build", kind, *(tmp_path / p if isinstance(p, str) else p for p in params), "-o", out]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"error: bad parameters for build {kind}: ") and err.count("\n") == 1
    assert not out.exists()


# each value was read through int() or str() and validated as another groupoid,
# or, for 1e400, raised an uncaught OverflowError (exit 1); json.loads raised
# an uncaught ValueError past Python's 4300-digit limit for int, and an
# uncaught RecursionError on deep nesting
@pytest.mark.parametrize("order, field, text", [
    (2, "inverse", "[0, 1.9]"),
    (2, "product", '[["0", "1"], ["1", "0"]]'),
    (1, "size", "true"),
    (2, "name", "7"),
    (2, "size", "1e400"),
    pytest.param(2, "size", "1" * 5000, id="2-size-5000-digits"),
    pytest.param(2, "inverse", "[" * 3000 + "]" * 3000, id="2-inverse-3000-deep"),
])
def test_validate_refuses_what_is_not_a_json_integer(tmp_path, capsys, order, field, text):
    path = tmp_path / "g.json"
    obj = {**io.groupoid_to_dict(corpus.cyclic(order)), field: "@"}
    path.write_text(json.dumps(obj).replace('"@"', text), encoding="utf-8")
    assert run(["validate", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, text", [("act", "[[0, 1.7], [1, 0]]"), ("space", "2.0")])
def test_build_transform_refuses_what_is_not_a_json_integer(tmp_path, capsys, field, text):
    path = tmp_path / "act.json"
    obj = {**io.action_to_dict(corpus.swap_action()), field: "@"}
    path.write_text(json.dumps(obj).replace('"@"', text), encoding="utf-8")
    assert run(["build", "transform", path, "-o", tmp_path / "g.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g.json").exists()


def test_monoid_export(tmp_path, capsys):
    path = write_c2(tmp_path)
    out = tmp_path / "monoid.json"
    assert run(["monoid", path, "-o", out]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["elements"]) == 4
    assert obj["side"] == "S"


def test_verify_all_pass(tmp_path):
    path = write_c2(tmp_path)
    assert run(["verify", path]) == 0


def test_verify_single_prop(tmp_path, capsys):
    path = write_c2(tmp_path)
    assert run(["verify", path, "--props", "P3.3.4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj["checks"]) == ["P3.3.4"]
    assert obj["checks"]["P3.3.4"]["pass"] is True


def test_verify_cap_exceeded(tmp_path):
    path = tmp_path / "c3.json"
    io.save_groupoid(path, corpus.cyclic(3))
    assert run(["verify", path, "--cap-monoid", 10]) == 2


def test_verify_unknown_prop(tmp_path):
    path = write_c2(tmp_path)
    assert run(["verify", path, "--props", "P9.9"]) == 2


@pytest.mark.parametrize("props", ["", ",", " ", " , "])
def test_verify_selection_naming_no_id(tmp_path, capsys, props):
    path = write_c2(tmp_path)
    assert run(["verify", path, "--props", props]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "names no check id" in err
    assert run(["verify", path, "--props", "all"]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 18


def test_verify_p39_above_the_sweep_limit_is_skipped(tmp_path, capsys):
    # 12 elements are swept; at 13 P3.9 is skipped, never passed on a
    # sample: a requested skip exits 2, the full suite passes with it skipped
    at_limit = corpus.unit_groupoid(gpd.report.SUBGROUPOID_SWEEP_LIMIT)
    assert gpd.report.full_report(at_limit, ("P3.9",)).verdicts["P3.9"].witness == "all-subsets"
    path = tmp_path / "wide.json"
    io.save_groupoid(path, corpus.disjoint_union(corpus.cyclic(2), corpus.unit_groupoid(11)))
    assert run(["verify", path, "--props", "P3.9"]) == 2
    check = json.loads(capsys.readouterr().out)["checks"]["P3.9"]
    assert check == {"pass": None,
                     "witness": "skipped: 13 elements exceed the all-subsets sweep limit of 12"}
    assert run(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["P3.9"] == check


def test_verify_text_format(tmp_path, capsys):
    path = write_c2(tmp_path)
    assert run(["verify", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "P3.2: PASS" in out and "CLOSING: PASS" in out


def test_verify_failing_check_exits_1(tmp_path, capsys, monkeypatch):
    # a wrong bijective-translation predicate shrinks T_G to the identity;
    # P3.11 compares it with the table's units and fails
    path = write_c2(tmp_path)
    monkeypatch.setattr(gpd.report, "bijective_translations", lambda t: ((t.identity,), True))
    assert run(["verify", path, "--props", "P3.11"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["checks"]["P3.11"] == {"pass": False, "witness": ["S", "units", 3]}
    assert run(["verify", path, "--props", "P3.11", "--format", "text"]) == 1
    assert "  P3.11: FAIL" in capsys.readouterr().out.splitlines()


def test_rep_export(tmp_path):
    path = write_c2(tmp_path)
    out = tmp_path / "rep.json"
    assert run(["rep", path, "-o", out]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["operators"]) == 4
    for entry in obj["operators"]:
        assert set(entry) == {"fn", "matrix"}
        assert all(sum(row) == 1 for row in entry["matrix"])


def test_rep_fills_no_cayley_table(tmp_path, monkeypatch):
    # gpd rep reads the certified maps and translations only; its bytes are
    # those of the export of a table-checked enumeration
    path = tmp_path / "c4.json"
    io.save_groupoid(path, corpus.cyclic(4))
    for side in ("S", "S'"):
        want = io.dump_bytes(io.rep_to_dict(gpd.endo.enumerate_monoid(corpus.cyclic(4), side)))
        with monkeypatch.context() as patch:
            fills = []
            patch.setattr(gpd.endo, "_cayley_table", lambda *args: fills.append(args))
            assert run(["rep", path, "--side", side, "-o", tmp_path / "rep.json"]) == 0
        assert fills == [] and (tmp_path / "rep.json").read_bytes() == want, side


@pytest.mark.parametrize("args", [["monoid", "--side", "S"], ["monoid", "--side", "S'"],
                                  ["rep", "--side", "S"], ["rep", "--side", "S'"],
                                  ["verify"]])
def test_exports_are_stdlib_canonical_bytes(tmp_path, args):
    path = tmp_path / "c4.json"
    io.save_groupoid(path, corpus.cyclic(4))
    out = tmp_path / "out.json"
    assert run([args[0], path, *args[1:], "-o", out]) == 0
    data = out.read_bytes()
    assert data == (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_search_order2(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(["search", "--order", 2, "-o", out]) == 0
    obj = json.loads(out.read_text())
    assert obj["forward_holds"] is True
    assert obj["candidates"] == []
    assert len(obj["rows"]) == 3  # 1 at order 1, 2 at order 2


def test_search_order1(capsys):
    assert run(["search", "--order", 1]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["rows"]) == 1
    assert obj["rows"][0]["principal"] is True


def test_search_census_dir(tmp_path, capsys):
    out = tmp_path / "census"
    assert run(["search", "--order", 2, "--census-dir", out, "-o",
                tmp_path / "probe.json"]) == 0
    manifest = json.loads((out / "census-2.json").read_text())
    assert manifest["count"] == 2
    for name in manifest["names"]:
        g = io.load_groupoid(out / f"{name}.json")
        assert g.size == 2


def test_search_census_dir_builds_each_census_once(tmp_path, monkeypatch):
    calls, types = Counter(), Counter()
    real, real_types = census._census, census._component_types

    def counted(order, *args):
        calls[order] += 1
        return real(order, *args)

    def counted_types(order):
        types[order] += 1
        return real_types(order)

    monkeypatch.setattr(census, "_census", counted)
    monkeypatch.setattr(census, "_component_types", counted_types)
    assert run(["search", "--order", 3, "--census-dir", tmp_path / "census",
                "-o", tmp_path / "with.json"]) == 0
    assert calls == {1: 1, 2: 1, 3: 1}
    assert types == {3: 1}  # the component types are built once per search
    assert run(["search", "--order", 3, "-o", tmp_path / "without.json"]) == 0
    assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()


@pytest.mark.parametrize("order", [0, -2])
def test_search_order_below_one(capsys, order):
    assert run(["search", "--order", order]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"order must be >= 1, got {order}" in err


def test_search_cap(capsys):
    assert run(["search", "--order", 21]) == 2


@pytest.mark.parametrize("order, message", [
    (0, "order must be >= 1, got 0"),
    (21, "order 21 exceeds census cap 20"),
])
def test_probe_script_order_outside_the_census(order, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_probe.py"
    src = str(Path(gpd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(script), "--max-order", str(order)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr == f"error: {message}\n"


def test_probe_script_output_in_a_missing_directory(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_probe.py"
    src = str(Path(gpd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, str(script), "--max-order", "1", "-o", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "forward implication" in proc.stdout
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    assert str(out) in proc.stderr and not out.parent.exists()


# each command took all four options, and ignored those it does not read
@pytest.mark.parametrize("args", [
    ["validate", "@", "--cap-monoid", 5],
    ["validate", "@", "--cap-order", 3],
    ["build", "cyclic", 2, "-o", "@out", "--format", "text"],
    ["build", "cyclic", 2, "-o", "@out", "--cap-monoid", 5],
    ["build", "cyclic", 2, "-o", "@out", "--cap-order", 3],
    ["monoid", "@", "--cap-order", 3],
    ["verify", "@", "--cap-order", 3],
    ["rep", "@", "--cap-order", 3],
    ["search", "--order", 1, "--cap-monoid", 5],
])
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, args):
    path, out = write_c2(tmp_path), tmp_path / "out.json"
    assert run([path if a == "@" else out if a == "@out" else a for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("args", [["verify", "@", "--cap-monoid", 0],
                                  ["monoid", "@", "--cap-monoid", -1],
                                  ["search", "--order", 1, "--cap-order", 0]])
def test_caps_must_be_positive(tmp_path, capsys, args):
    path = write_c2(tmp_path)
    assert run([path if a == "@" else a for a in args]) == 2
    assert capsys.readouterr() == ("", "error: caps must be positive\n")


def test_search_exits_1_when_the_forward_implication_fails(monkeypatch, capsys):
    # a principal groupoid whose intersection is not {j} refutes it
    real = census.intersection_size
    monkeypatch.setattr(census, "intersection_size",
                        lambda g: (2, False) if gpd.groupoid.is_principal(g) else real(g))
    assert run(["search", "--order", 2]) == 1
    assert json.loads(capsys.readouterr().out)["forward_holds"] is False
    assert run(["search", "--order", 2, "--format", "text"]) == 1
    assert "forward implication FAILS" in capsys.readouterr().out


def test_usage_error():
    assert run(["frobnicate"]) == 2


def test_parser_reuse_matches_a_fresh_parser(tmp_path, capsys):
    # The parser is built once per process.  A run after usage errors must
    # give the exit code, streams and file bytes of a freshly built parser.
    path, out = write_c2(tmp_path), tmp_path / "out.json"
    cases = [["verify", path, "--props", ","], ["frobnicate"],
             ["verify", path, "-o", out], ["monoid", path, "-o", out]]

    def outcome(args):
        rc, streams = run(args), capsys.readouterr()
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return rc, streams.out, streams.err, data

    fresh = []
    for args in cases:
        cli._parser.cache_clear()
        fresh.append(outcome(args))
    cli._parser.cache_clear()
    assert [outcome(args) for args in cases] == fresh
    assert cli._parser.cache_info().misses == 1
    assert [rc for rc, *_ in fresh] == [2, 2, 0, 0]
    assert all(data for *_, data in fresh[2:])


def test_outputs_deterministic(tmp_path):
    path = write_c2(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", path, "-o", a]) == 0
    assert run(["verify", path, "-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()
