import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpd import cli, corpus, io
from gpd.census import enumerate_groupoids, principal_converse_search
from gpd.endo import (
    DEFAULT_MONOID_CAP,
    SIDES,
    enumerate_monoid,
    gfun,
    involution_star,
    left_translation,
    right_translation,
    star,
    star_prime,
)
from gpd.errors import ShapeError
from gpd.groupoid import disjoint_union, morphism_classify
from gpd.operators import Verdict
import gpd.endo
import gpd.groupoid
import gpd.report
import gpd.structure
from gpd.structure import antihom_classification, intersection_analysis, j_ideal, special_elements
from gpd.report import CHECK_IDS, _Ctx, full_report
from test_operators import left_operator, right_operator


def linop_to_dict(fn, op) -> dict:
    return {"fn": list(fn), "matrix": [list(row) for row in op.matrix]}


def census_to_dict(c) -> dict:
    """The census manifest with ``total_found`` and every representative."""
    out = io.census_manifest(c)
    out["total_found"] = c.total_found
    out["groupoids"] = [io.groupoid_to_dict(g) for g in c.representatives]
    return out


def test_groupoid_round_trip(tmp_path, pair2):
    path = tmp_path / "pair2.json"
    io.save_groupoid(path, pair2)
    loaded = io.load_groupoid(path)
    assert loaded == pair2


def test_groupoid_bytes_stable(pair2):
    assert io.dump_bytes(io.groupoid_to_dict(pair2)) == io.dump_bytes(
        io.groupoid_to_dict(pair2)
    )
    obj = json.loads(io.dump_bytes(io.groupoid_to_dict(pair2)))
    assert obj["size"] == 4
    assert obj["product"][0][0] == 0 and obj["product"][0][2] == -1
    assert obj["inverse"] == [0, 2, 1, 3]


def test_groupoid_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ShapeError):
        io.load_groupoid(path)
    path.write_text('{"size": 1}', encoding="utf-8")
    with pytest.raises(ShapeError):
        io.load_groupoid(path)
    with pytest.raises(ShapeError):
        io.load_groupoid(tmp_path / "missing.json")


def test_action_round_trip(tmp_path):
    a = corpus.swap_action()
    path = tmp_path / "act.json"
    io.save_action(path, a)
    loaded = io.load_action(path)
    assert loaded.act == a.act and loaded.space == a.space
    assert loaded.group == a.group


def test_monoid_export(sg_c2):
    obj = io.monoid_to_dict(sg_c2)
    assert obj["side"] == "S"
    assert obj["identity"] == 0
    assert obj["elements"].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert obj["op"].tolist()[3][3] == 0


def test_linop_export(c2):
    f = gfun(c2, (1, 1))
    obj = linop_to_dict(f.map, left_operator(f))
    assert obj == {"fn": [1, 1], "matrix": [[0, 1], [1, 0]]}


def test_census_manifest():
    c = enumerate_groupoids(2)
    manifest = io.census_manifest(c)
    assert manifest["order"] == 2 and manifest["count"] == 2
    assert len(manifest["names"]) == 2
    full = census_to_dict(c)
    assert len(full["groupoids"]) == 2
    for obj in full["groupoids"]:
        assert io.groupoid_from_dict(obj).size == 2


def test_probe_dict():
    report = principal_converse_search(2)
    obj = io.probe_to_dict(report)
    assert obj["forward_holds"] is True
    assert obj["candidates"] == []
    row = obj["rows"][0]
    assert set(row) == {"order", "name", "principal", "intersection_size", "candidate"}


# ---------------------------------------------------------------------------
# canonical bytes: dump_bytes against the stdlib one-liner


def stdlib_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def listed(obj):
    """``obj`` with every ndarray and ``io.Rows`` replaced by its ``tolist()``."""
    if isinstance(obj, (np.ndarray, io.Rows)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(listed(v) for v in obj)
    return obj


def rep_payload(g, side):
    """The ``gpd rep`` payload built from the scalar operators of each member."""
    build = left_operator if side == "S" else right_operator
    t = enumerate_monoid(g, side)
    members = (gfun(g, m) for m in t.maps.tolist())
    return {"groupoid": g.name, "side": side,
            "operators": [linop_to_dict(f.map, build(f)) for f in members]}


def rep_groupoids():
    """The table-sized corpus members and C3 + C3, by name."""
    named = {name: g for name, g in corpus.standard_corpus() if name != "pair(3)"}
    named["C3+C3"] = disjoint_union(corpus.cyclic(3), corpus.cyclic(3))
    return named


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", list(rep_groupoids()))
def test_rep_export_equals_the_scalar_operators(tmp_path, name, side):
    # gpd rep writes the stacks of maps and matrices as columns; the payload
    # built member by member from left_operator / right_operator must give
    # the same bytes (the trivial groupoid's [[1]] column takes no tokens)
    g = rep_groupoids()[name]
    path, out = tmp_path / "g.json", tmp_path / "rep.json"
    io.save_groupoid(path, g)
    assert cli.main(["rep", str(path), "--side", side, "-o", str(out)]) == 0
    assert out.read_bytes() == io.dump_bytes(rep_payload(g, side))


def real_payloads():
    c3 = corpus.cyclic(3)
    for g in (corpus.cyclic(4), corpus.klein_four()):
        yield io.groupoid_to_dict(g)
        for side in SIDES:
            t = enumerate_monoid(g, side)
            yield io.monoid_to_dict(t)
            yield io.rep_to_dict(t)
            yield rep_payload(g, side)
    yield full_report(disjoint_union(c3, c3)).to_dict()
    for order in range(1, 6):
        yield census_to_dict(enumerate_groupoids(order))
    yield io.probe_to_dict(principal_converse_search(5))


def test_dump_bytes_matches_stdlib_on_real_payloads():
    for obj in real_payloads():
        assert io.dump_bytes(obj) == stdlib_bytes(listed(obj))


EDGE_CASES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], (), (1, 2), [(), (3,)],
    [1, True, None], [False, 0, 0.0], 2**70, [2**70, -(2**70)],
    float("nan"), float("inf"), -float("inf"), -0.0, [float("nan"), -0.0, 1e300],
    'say "hi"', "back\\slash", "line\nbreak", "\u00e9t\u00e9 \u2603 \U0001f600 \x00",
    {"q\"": 1, "\n": 2, "\u00e9": 3, "b": [1, "x\ty"]},
    {1: "a", 2: ["b"]}, {True: 1, False: [2]}, {None: {"z": 1, "a": 2}},
    {"nested": {1: [2, {3: 4}]}}, [{"k": [1, [2, [3]]]}, "s", None],
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_dump_bytes_matches_stdlib_on_edge_cases(obj):
    assert io.dump_bytes(obj) == stdlib_bytes(obj)


JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=JSON_LIKE)
def test_dump_bytes_matches_stdlib_on_random_values(obj):
    assert io.dump_bytes(obj) == stdlib_bytes(obj)


ARRAYS = [
    np.array(3), np.array(-7), np.zeros((0,), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
    np.zeros((2, 0, 3), dtype=np.int8), np.array([0]), np.zeros((1, 1, 1), dtype=np.uint8),
    np.array([-1, 0, 1]), np.array([[2, -3], [0, 1]], dtype=np.int8),
    np.array([True, False, True]), np.array([[0.0, 1.5], [-0.0, 2.0]]),
    np.array([0.0, 1.0], dtype=np.float32),
    np.arange(6, dtype=np.int8).reshape(2, 3), np.arange(6, dtype=np.uint8)[::-1],
    np.arange(24, dtype=np.int64).reshape(2, 3, 4) % 7, np.array([[1, 1], [1, 0]], dtype=np.uint64),
    np.array([0, 2]), np.array([0, 1]), np.array([255, 0], dtype=np.uint8), np.array([0, 2**40]),
    np.eye(3, dtype=np.int8)[np.array([[0, 0, 2], [1, 2, 0]])],
    {"a": np.arange(4).reshape(2, 2), "b": [np.array([1, 0]), {"c": np.array(5)}]},
    [np.array([0, 2**40]), (np.zeros((3, 0), dtype=int), np.array([[-1]])), {"d": []}],
]


@pytest.mark.parametrize("obj", ARRAYS, ids=range(len(ARRAYS)))
def test_dump_bytes_writes_arrays_as_their_lists(obj):
    assert io.dump_bytes(obj) == stdlib_bytes(listed(obj))


def stack(values, dtype=np.int64):
    return np.array(values, dtype=dtype)


ROWS = [
    io.Rows({"fn": stack([[0, 1]]), "matrix": np.eye(2, dtype=np.int8)[None]}),  # one record
    io.Rows({"fn": stack([[0]]), "matrix": stack([[[1]]], np.int8)}),  # n = 1, [[1]] untokenized
    io.Rows({"fn": np.zeros((3, 1), dtype=int), "matrix": np.ones((3, 1, 1), dtype=np.int8)}),
    io.Rows({"a": stack([[0, 5], [1, 2], [3, 4]])}),  # a value >= its record's size
    io.Rows({"a": stack([[0, 9]]), "b": stack([[1, 0]])}),  # a value >= its column's size
    io.Rows({"a": stack([[0, -1], [1, 0]]), "b": stack([[1], [0]], np.uint8)}),  # negative
    io.Rows({"i": stack([[0, 1], [1, 0]]), "f": stack([[0.5, -0.0], [1.0, 2.0]], float),
             "b": stack([True, False], bool), "u": stack([[[1]], [[0]]], np.uint64)}),
    io.Rows({"s": stack([2, 0, 1]), "t": stack([[1, 0], [0, 1], [1, 1]])}),  # scalar records
    io.Rows({"e": np.zeros((2, 0), dtype=int), "m": np.zeros((2, 3, 0), dtype=np.int8)}),
    io.Rows({"a": np.zeros((0, 2), dtype=int)}), io.Rows({}),
    io.Rows({"b\u00e9": stack([[0]]), "a\"": stack([[0]])}),
    io.Rows({1: stack([[0, 1]]), 0: stack([[1, 0]])}),  # keys only json.dumps sorts
    {"ops": io.Rows({"x": stack([[0, 1], [1, 1]])}), "n": [io.Rows({"y": stack([[[0]]])}), 1]},
]


@pytest.mark.parametrize("obj", ROWS, ids=range(len(ROWS)))
def test_dump_bytes_writes_rows_as_their_lists(obj):
    assert io.dump_bytes(obj) == stdlib_bytes(listed(obj))


def test_rows_refuse_columns_of_different_lengths():
    with pytest.raises(ValueError):
        io.Rows({"a": np.zeros((2, 1), dtype=int), "b": np.zeros((3, 1), dtype=int)})


@st.composite
def int_rows(draw):
    records = draw(st.integers(0, 4))
    columns = {}
    for key in draw(st.lists(st.sampled_from("abcd"), max_size=3, unique=True)):
        dtype = np.dtype(draw(st.sampled_from(["int8", "uint8", "int16", "int64", "uint64"])))
        shape = (records, *draw(st.lists(st.integers(0, 3), max_size=3)))
        size = int(np.prod(shape, dtype=np.int64))
        low = draw(st.sampled_from([0, -2]) if dtype.kind == "i" else st.just(0))
        top = draw(st.sampled_from([0, 1, max(size - 1, 0), size, 2 * size + 1]))
        values = draw(st.lists(st.integers(low, max(low, top)), min_size=size, max_size=size))
        columns[key] = np.array(values, dtype=dtype).reshape(shape)
    return io.Rows(columns)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=int_rows())
def test_dump_bytes_matches_stdlib_on_random_rows(rows):
    assert io.dump_bytes(rows) == stdlib_bytes(rows.tolist())
    assert io.dump_bytes({"x": [rows]}) == stdlib_bytes({"x": [rows.tolist()]})


def test_rep_builds_one_token_table_per_column(tmp_path, monkeypatch):
    # the operator export is two stacks, so gpd rep on C4 builds two token
    # tables (maps and matrices), not one per member
    calls, tokens = [], io._tokens

    def spy(arr, lead=0):
        result = tokens(arr, lead)
        calls.append((arr.shape, lead, result is not None))
        return result

    monkeypatch.setattr(io, "_tokens", spy)
    path, out = tmp_path / "c4.json", tmp_path / "rep.json"
    io.save_groupoid(path, corpus.cyclic(4))
    for side in SIDES:
        assert cli.main(["rep", str(path), "--side", side, "-o", str(out)]) == 0
        assert calls == [((256, 4), 1, True), ((256, 4, 4), 1, True)], side
        calls.clear()


def test_only_in_range_integer_arrays_take_the_token_table(monkeypatch):
    # the token table holds max + 1 strings, so it is used only when that is
    # no more than the array's size; every other array is written as its list
    tokenized, tokens = [], io._tokens

    def spy(arr, lead=0):
        result = tokens(arr, lead)
        if result is not None:
            tokenized.append(arr.shape)
        return result

    monkeypatch.setattr(io, "_tokens", spy)
    for arr, taken in [(np.array([[1, 0], [3, 2]], dtype=np.uint8), True),
                       (np.array([0, 1]), True), (np.array([0, 2]), False),
                       (np.array([-1, 0, 1]), False), (np.array([True, False]), False),
                       (np.array([0.0, 1.0]), False), (np.array(0), False),
                       (np.zeros((2, 0), dtype=int), False)]:
        tokenized.clear()
        assert io.dump_bytes({"a": arr}) == stdlib_bytes({"a": arr.tolist()})
        assert bool(tokenized) == taken, arr
    tokenized.clear()
    io.dump_bytes(io.monoid_to_dict(enumerate_monoid(corpus.cyclic(2), "S")))
    assert tokenized == [(4, 2), (4, 4)]  # elements and op, each one array


@st.composite
def int_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(["int8", "uint8", "int16", "uint16", "int32", "int64", "uint64"])))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=4)))
    size = int(np.prod(shape, dtype=np.int64))
    info = np.iinfo(dtype)
    top = draw(st.sampled_from([max(size - 1, 0), size, int(info.max)]))
    low = draw(st.sampled_from([0, max(-2, int(info.min)), int(info.min)]))
    values = draw(st.lists(st.integers(low, max(low, top)), min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arr=int_arrays())
def test_dump_bytes_matches_stdlib_on_random_arrays(arr):
    assert io.dump_bytes(arr) == stdlib_bytes(arr.tolist())
    assert io.dump_bytes({"x": [arr]}) == stdlib_bytes({"x": [arr.tolist()]})


@pytest.mark.parametrize("obj", [[1, np.int64(3)], {"a": {1, 2}}, {1, 2}])
def test_dump_bytes_still_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        io.dump_bytes(obj)


# ---------------------------------------------------------------------------
# the report driver


def test_full_report_c2(c2):
    report = full_report(c2)
    assert set(report.verdicts) == set(CHECK_IDS)
    assert report.all_passed, report.failed()
    assert report.monoid_size == 4
    s = report.structure
    assert s["idempotents"] == [0, 1, 2]
    assert s["right_zeros"] == [1, 2]
    assert s["unit_group"]["indices"] == [0, 3]
    assert s["tg"] == [0, 3]
    assert s["j_ideal"] == [1, 2]
    assert len(s["intersection"]) == 4
    assert report.to_dict()["structure"] is s


def test_full_report_selection(c2):
    report = full_report(c2, checks=("P3.3.4", "P3.8"))
    assert set(report.verdicts) == {"P3.3.4", "P3.8"}
    assert report.all_passed
    with pytest.raises(ShapeError):
        full_report(c2, checks=("NOPE",))


def test_full_report_corpus(small_corpus):
    for name, g in small_corpus:
        report = full_report(g)
        assert report.all_passed, (name, report.failed())
        d = report.to_dict()
        assert set(d["checks"]) == set(CHECK_IDS)
        for verdict in d["checks"].values():
            assert verdict["pass"] is True
        io.dump_bytes(d)  # serializable


def test_report_enumerates_only_what_checks_read(c2, monkeypatch):
    sides = []

    def counting(g, side="S", *args):
        sides.append(side)
        return enumerate_monoid(g, side, *args)

    monkeypatch.setattr(gpd.report, "enumerate_monoid", counting)
    assert full_report(c2, ("CLOSING",)).all_passed
    assert sides == ["S"]
    sides.clear()
    assert full_report(c2).all_passed
    assert sorted(sides) == ["S", "S'"]


def test_report_reads_row_j_once_per_side(monkeypatch):
    # j S is built once per side and read by P3.3.4 and the report's j_ideal
    g = disjoint_union(corpus.cyclic(3), corpus.cyclic(3))
    rows = []

    def counting(t):
        rows.append(t.side)
        return j_ideal(t)

    monkeypatch.setattr(gpd.report, "j_ideal", counting)
    report = full_report(g)
    assert sorted(rows) == ["S", "S'"]
    assert report.structure["j_ideal"] == list(j_ideal(enumerate_monoid(g, "S")))


def test_p311_catches_involution_fault(c2):
    # C2: the units of S are 0 and 3; member 1 (= j) of S' is not dense
    ctx = _Ctx(c2, DEFAULT_MONOID_CAP)
    assert gpd.report._check_p311(ctx).passed
    assert ctx.sides[0].bijective[0] == (0, 3) and 1 not in ctx.sides[1].bijective[0]
    ctx.sigma = ctx.sigma.copy()
    ctx.sigma[3] = 1
    verdict = gpd.report._check_p311(ctx)
    assert verdict.passed is False
    assert verdict.witness == ("involution", "S", 3)


def test_p311_units_come_from_the_table(c2, monkeypatch):
    # T_G and H(1) share the bijective-translation test; P3.11 compares T_G
    # with the Cayley-invertible set, so a wrong predicate is caught
    assert full_report(c2, ("P3.11",)).all_passed
    monkeypatch.setattr(gpd.report, "bijective_translations", lambda t: ((t.identity,), True))
    verdict = full_report(c2, ("P3.11",)).verdicts["P3.11"]
    assert verdict.as_dict() == {"pass": False, "witness": ["S", "units", 3]}


def test_closing_fails_when_the_intersection_misses_a_member(c2):
    # C2 is not principal, so only the closed form |S n S'| = 4 catches it
    ctx = _Ctx(c2, DEFAULT_MONOID_CAP)
    assert gpd.report._check_closing(ctx).passed
    ctx.inter = ctx.inter[:-1]
    assert gpd.report._check_closing(ctx) == Verdict(False, ("enumerated", 3, "closed form", 4))


def _corrupt(t, i, j):
    """The table with cell (i, j) moved to the next member index."""
    op = t.op.copy()
    op[i, j] = (op[i, j] + 1) % len(t)
    return dataclasses.replace(t, op=op)


def _corrupted_ctx(g, side, i, j):
    """A report context whose table on ``side`` has cell (i, j) moved before
    any check reads it."""
    ctx = _Ctx(g, DEFAULT_MONOID_CAP)
    s = ctx.sides[SIDES.index(side)]
    s.table = _corrupt(s.table, i, j)
    return ctx


def _law_verdicts(g, side, i, j):
    ctx = _corrupted_ctx(g, side, i, j)
    return ctx, {cid: gpd.report._CHECKS[cid](ctx) for cid in ("L3.7", "P4.1", "P4.2", "C4.3")}


def test_law_checks_fail_on_a_corrupted_cell(c3):
    i, j = 5, 11
    ctx, v = _law_verdicts(c3, "S", i, j)
    ts = ctx.sides[0].table
    w = int(ts.op[i, j])
    assert [cid for cid, verdict in v.items() if not verdict.passed] == ["L3.7", "P4.1", "C4.3"]
    assert v["L3.7"].witness == (i, j)
    assert v["P4.1"].witness == ("left_hom", (i, j))
    assert v["C4.3"].witness == (i, j)
    fi, fj, fw = (gfun(c3, ts.maps[k].tolist()) for k in (i, j, w))
    assert left_translation(star(fi, fj)) != left_translation(fw)
    mirrored = star_prime(involution_star(fi), involution_star(fj))
    assert right_translation(mirrored) != right_translation(involution_star(fw))

    ctx, v = _law_verdicts(c3, "S'", i, j)
    tsp = ctx.sides[1].table
    w = int(tsp.op[i, j])
    assert [cid for cid, verdict in v.items() if not verdict.passed] == ["P4.2"]
    assert v["P4.2"].witness == ("right_hom", (i, j))
    hi, hj, hw = (gfun(c3, tsp.maps[k].tolist()) for k in (i, j, w))
    assert right_translation(star_prime(hi, hj)) != right_translation(hw)


def test_p41_units_come_from_the_table(c3):
    # moving the inverse cell of unit 5 leaves 5 without a two-sided inverse
    # in the table, while its operator still has det != 0
    t = enumerate_monoid(c3, "S")
    assert t.op[5, 5] == t.identity
    ctx = _corrupted_ctx(c3, "S", 5, 5)
    verdict = ctx.rep_verdicts["left_units_invertible"]
    assert verdict.passed is False
    i, det = verdict.witness
    assert i == 5 and det != 0


def test_p41_dense_rank_compares_with_the_table(c3):
    # the same moved cell makes row 5 of the table repeat a value, so 5 is
    # not left-cancellative while its operator still has full rank
    ctx = _corrupted_ctx(c3, "S", 5, 5)
    verdict = ctx.rep_verdicts["left_dense_full_rank"]
    assert verdict.passed is False
    assert verdict.witness == (5,)


@pytest.mark.parametrize("name, side, cell, cid, witness", [
    # the involution no longer carries this product to the mirror product
    ("c3", "S", (5, 11), "P3.2", (5, 11)),
    # r * j != j: j (member 7) stops being a right zero
    ("c3", "S", (0, 7), "P3.3.1", ("S", 7)),
    # a product into the intersection {j} lands outside it
    ("pair2", "S", (0, 5), "P3.3.3", ("S",)),
    ("c3", "S", (0, 7), "P3.3.4", ("S",)),
    # 2 * 2 becomes the identity: a table unit that H(1) lacks
    ("pair2", "S", (2, 2), "P3.8", ("S", (2,))),
    # the members preserving the unit {0} stop being closed
    ("c2", "S", (0, 1), "P3.9", ((0,), None)),
    # j * j != j: no injective idempotent antihomomorphism is left
    ("c3", "S", (7, 7), "P3.3.6", ()),
    # r * j != j: no right zero is an antihomomorphism
    ("c3", "S", (0, 7), "P3.3.7", ()),
])
def test_structure_checks_fail_on_a_corrupted_cell(request, name, side, cell, cid, witness):
    ctx = _corrupted_ctx(request.getfixturevalue(name), side, *cell)
    assert gpd.report._CHECKS[cid](ctx) == Verdict(False, witness)


def _c3c3():
    return disjoint_union(corpus.cyclic(3), corpus.cyclic(3))


@pytest.mark.parametrize("side, cells", [
    ("S", [(100, 5)]),
    ("S", [(500, 3), (130, 600)]),
    ("S'", [(300, 7)]),
])
def test_p32_witness_past_the_first_row_block(side, cells):
    # C3 + C3's 729 rows are compared 22 at a time; the witness is the first
    # mismatching cell in row-major order of the whole table
    ctx = _Ctx(_c3c3(), DEFAULT_MONOID_CAP)
    s = ctx.sides[SIDES.index(side)]
    for i, j in cells:
        s.table = _corrupt(s.table, i, j)
    ts, tsp = (c.table for c in ctx.sides)
    assert len(ts) == 729 and gpd.endo._BLOCK_CELLS // len(ts) <= min(i for i, _ in cells)
    lhs, rhs = ctx.sigma[ts.op], tsp.op[np.ix_(ctx.sigma, ctx.sigma)]
    first = tuple(int(v) for v in np.argwhere(lhs != rhs)[0])
    assert gpd.report._CHECKS["P3.2"](ctx) == Verdict(False, first)
    if side == "S":
        assert first == min(cells)


def test_checks_stay_below_one_table_of_memory():
    # with both tables of C3 + C3 built, no check id allocates as much as one
    # |S| x |S| table (4 |S|^2 bytes, 2.1 MB) on a fresh context
    g = _c3c3()
    tables = [enumerate_monoid(g, side) for side in SIDES]
    limit = tables[0].op.nbytes
    assert limit == 4 * 729 ** 2
    for cid in CHECK_IDS:
        ctx = _Ctx(g, DEFAULT_MONOID_CAP)
        for s, t in zip(ctx.sides, tables):
            s.table = dataclasses.replace(t)  # no fact cached on the table
        tracemalloc.start()
        try:
            assert gpd.report._CHECKS[cid](ctx).passed, cid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (cid, peak)


def test_antihom_witnesses_replay_on_the_scalar_reference(c3):
    # the two cells moved above: j is an injective antihomomorphism with
    # j * j = j and r * j = j, so P3.3.6 and P3.3.7 fail on the table alone
    t = enumerate_monoid(c3, "S")
    j, r = gfun(c3, c3.inverse), gfun(c3, c3.range_map)
    assert t.maps[7].tolist() == list(j.map) and t.identity == 0
    assert morphism_classify(c3, c3, j.map).antihomomorphism and len(set(j.map)) == c3.size
    assert star(j, j).map == j.map and star(r, j).map == j.map
    assert t.op[7, 7] == 7 and t.op[0, 7] == 7


def _replaced_map_ctx(g, side, i, row):
    """A report context whose table on ``side`` has map i replaced by ``row``."""
    ctx = _Ctx(g, DEFAULT_MONOID_CAP)
    s = ctx.sides[SIDES.index(side)]
    maps = s.table.maps.copy()
    maps[i] = row
    s.table = dataclasses.replace(s.table, maps=maps)
    return ctx


def test_member_checks_fail_on_a_replaced_map(pair2):
    # P3.3.5: the identity permutation in place of r (member 0) is bijective,
    # and its function inverse, itself, is not in side S'
    ident = list(range(pair2.size))
    assert gpd.report._CHECKS["P3.3.5"](_replaced_map_ctx(pair2, "S", 0, ident)) == \
        Verdict(False, (0,))
    assert morphism_classify(pair2, pair2, ident).isomorphism
    assert not gfun(pair2, ident).in_spg

    # P3.3.2: units(2) has S = {r}, and r = j is a left zero; a row that
    # swaps the two units breaks "every member fixes every unit" alone
    u2 = corpus.unit_groupoid(2)
    for side in SIDES:
        ctx = _replaced_map_ctx(u2, side, 0, [1, 0])
        assert gpd.report._CHECKS["P3.3.2"](ctx) == Verdict(False, (side, (0, 0)))
    j = gfun(u2, u2.inverse)
    assert star(j, gfun(u2, u2.range_map)).map == j.map


def test_p338_fails_when_star_prime_moves_a_value(pair2, monkeypatch):
    # i is the first antihomomorphism member of the intersection; on pair(2)
    # it is not member 0, so the witness must name the member replayed
    t = enumerate_monoid(pair2, "S")
    anti = antihom_classification(t, special_elements(t))[0]
    i = next(k for k in intersection_analysis(t) if anti[k])
    f = gfun(pair2, t.maps[i].tolist())
    assert star(f, f).map == star_prime(f, f).map
    assert full_report(pair2, ("P3.3.8",)).verdicts["P3.3.8"] == Verdict(True)

    def moved(h, k):
        m = list(star_prime(h, k).map)
        m[0] = (m[0] + 1) % pair2.size
        return gfun(pair2, m)

    monkeypatch.setattr(gpd.report, "star_prime", moved)
    assert full_report(pair2, ("P3.3.8",)).verdicts["P3.3.8"] == Verdict(False, (i,))
    assert star(f, f).map != gpd.report.star_prime(f, f).map


def test_rebuilt_table_recomputes_cached_facts(c3):
    t = enumerate_monoid(c3, "S")
    assert t.law_witness is None and t.distinct_translations == len(t)
    assert _corrupt(t, 5, 11).law_witness == (5, 11)
    trans = t.trans.copy()
    trans[1] = trans[0]
    assert dataclasses.replace(t, trans=trans).distinct_translations == len(t) - 1


def test_distinct_translations_count_each_row_once():
    t = enumerate_monoid(_c3c3(), "S")
    rng = np.random.default_rng(0)
    for copies in (1, 2, 50, len(t)):
        trans = t.trans.copy()
        trans[rng.choice(len(t), copies, replace=False)] = trans[rng.integers(len(t))]
        counted = dataclasses.replace(t, trans=trans).distinct_translations
        assert counted == len(np.unique(trans, axis=0)), copies


def _count_calls(monkeypatch, fn):
    """Record the arguments of every call to ``fn`` made through any gpd module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "gpd" or name.startswith("gpd."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_shared_table_facts_are_computed_once(c3, monkeypatch):
    laws = _count_calls(monkeypatch, gpd.endo.translation_law_witness)
    tables = _count_calls(monkeypatch, gpd.endo.enumerate_monoid)
    per_side = [_count_calls(monkeypatch, fn) for fn in (
        gpd.structure.cayley_units, gpd.structure.special_elements,
        gpd.structure.left_cancellative, gpd.structure.bijective_translations)]
    classified = _count_calls(monkeypatch, gpd.groupoid.morphism_classify)
    ideals = _count_calls(monkeypatch, gpd.structure.ideal_check)
    report = full_report(c3)
    assert report.all_passed
    assert len(laws) == 3  # side S, side S', the mixed action
    for calls in per_side:
        assert sorted(args[0].side for args in calls) == ["S", "S'"]
    assert classified == []  # P3.3.5-P3.3.8 read antihomomorphisms off the maps
    # only P3.3.4 tests both halves of an ideal; P3.3.3 reads left ideals
    assert sorted(args[0].side for args in ideals) == ["S", "S'"]
    ideals.clear()
    assert full_report(c3, ("P3.3.3",)).all_passed
    assert ideals == []
    laws.clear()
    tables.clear()
    assert full_report(c3, ("L3.7",)).all_passed
    assert len(laws) == 1
    assert [args[1] for args in tables] == ["S"]


def test_report_dict_shape(pair2):
    d = full_report(pair2).to_dict()
    assert d["groupoid"] == "pair(2)"
    assert d["monoid_size"] == 16
    # pair groupoids: the intersection is {j}; j sits in its own ideal
    assert d["structure"]["intersection"] == [5]
    assert 5 in d["structure"]["j_ideal"]
    assert isinstance(d["structure"]["unit_group"]["inverse"], dict)
