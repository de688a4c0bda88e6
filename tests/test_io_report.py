import json

import pytest

from gpd import corpus, io
from gpd.census import enumerate_groupoids, principal_converse_search
from gpd.endo import DEFAULT_MONOID_CAP, DEFAULT_PRODUCT_CAP, enumerate_monoid, gfun
from gpd.errors import ShapeError
from gpd.operators import left_operator
import gpd.report
from gpd.report import CHECK_IDS, _Ctx, full_report


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


def test_gfun_serialization(c2):
    f = gfun(c2, (1, 1))
    obj = io.gfun_to_dict(f)
    assert obj == {"groupoid": "C2", "map": [1, 1]}
    back = io.gfun_from_dict(obj, base=c2)
    assert back.map == f.map
    inline = io.gfun_to_dict(f, inline=True)
    assert io.gfun_from_dict(inline).map == f.map
    with pytest.raises(ShapeError):
        io.gfun_from_dict({"groupoid": "other", "map": [0, 0]}, base=c2)
    with pytest.raises(ShapeError):
        io.gfun_from_dict({"groupoid": "C2", "map": [0, 0]})


def test_monoid_export(sg_c2):
    obj = io.monoid_to_dict(sg_c2)
    assert obj["side"] == "S"
    assert obj["identity"] == 0
    assert obj["elements"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert obj["op"][3][3] == 0


def test_linop_export(c2):
    f = gfun(c2, (1, 1))
    obj = io.linop_to_dict(f, left_operator(f))
    assert obj == {"fn": [1, 1], "matrix": [[0, 1], [1, 0]]}


def test_census_manifest():
    c = enumerate_groupoids(2)
    manifest = io.census_manifest(c)
    assert manifest["order"] == 2 and manifest["count"] == 2
    assert len(manifest["names"]) == 2
    full = io.census_to_dict(c)
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
# the report driver


def test_full_report_c2(c2):
    report = full_report(c2)
    assert set(report.verdicts) == set(CHECK_IDS)
    assert report.all_passed, report.failed()
    assert report.monoid_size == 4
    assert report.idempotent_indices == (0, 1, 2)
    assert report.right_zero_indices == (1, 2)
    assert report.unit_group_indices == (0, 3)
    assert report.tg_indices == (0, 3)
    assert report.j_ideal_indices == (1, 2)
    assert len(report.intersection_indices) == 4


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


def test_p311_catches_involution_fault(c2):
    # C2: the units of S are 0 and 3; member 1 (= j) of S' is not dense
    ctx = _Ctx(c2, DEFAULT_MONOID_CAP, DEFAULT_PRODUCT_CAP)
    assert gpd.report._check_p311(ctx).passed
    assert ctx.tg.indices == (0, 3) and 1 not in ctx.tgp.indices
    ctx.sigma = ctx.sigma.copy()
    ctx.sigma[3] = 1
    verdict = gpd.report._check_p311(ctx)
    assert verdict.passed is False
    assert verdict.witness == ("involution", "S", 3)


def test_report_dict_shape(pair2):
    d = full_report(pair2).to_dict()
    assert d["groupoid"] == "pair(2)"
    assert d["monoid_size"] == 16
    # pair groupoids: the intersection is {j}; j sits in its own ideal
    assert d["structure"]["intersection"] == [5]
    assert 5 in d["structure"]["j_ideal"]
    assert isinstance(d["structure"]["unit_group"]["inverse"], dict)
