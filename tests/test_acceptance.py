"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
monoid laws of every corpus member, pair(3) (19683 elements, too many for a
stored Cayley table) included, are checked without a table: identity on
every member, and closure and associativity by the L3.7 translation
certificate, which covers all |S|^3 triples exactly.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gpd import corpus
from gpd.census import (
    as_isomorphism,
    automorphisms,
    enumerate_groupoids,
    monoid_iso_audit,
    functoriality_audit,
    principal_converse_search,
    transformation_embedding_audit,
)
from gpd.endo import (
    enumerate_monoid,
    gfun,
    involution_indices,
    involution_star,
    law_scan,
    predicted_size,
)
from gpd.groupoid import GroupoidSpec, build_groupoid
from gpd.operators import representation_audit
from gpd.report import full_report
from gpd.structure import (
    bijective_translations,
    cayley_units,
    dense_submonoid,
    group_of_units,
    j_index,
    left_cancellative,
    special_elements,
    units_crosscheck,
)

from test_census import oracle_brute_census


def verdict(name, ok):
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@pytest.fixture(scope="module")
def corpus_list():
    return corpus.standard_corpus()


@pytest.fixture(scope="module")
def table_corpus(corpus_list):
    """Corpus members with stored tables on both sides (pair(3) excluded)."""
    out = []
    for name, g in corpus_list:
        if name == "pair(3)":
            continue
        out.append((name, g, enumerate_monoid(g, "S"), enumerate_monoid(g, "S'")))
    return out


def test_axiom_suite(corpus_list):
    small = [(n, g) for n, g in corpus_list if g.size <= 16]
    t0 = time.monotonic()
    for name, g in small:
        rebuilt = build_groupoid(
            GroupoidSpec(g.size, g.product, g.inverse, g.name)
        )
        assert rebuilt.units == g.units, name
    elapsed = time.monotonic() - t0
    for order in (1, 2, 3, 4):
        for rep in enumerate_groupoids(order).representatives:
            build_groupoid(GroupoidSpec(rep.size, rep.product, rep.inverse, rep.name))
    verdict("axiom-suite", elapsed < 1.0)


def test_monoid_laws(corpus_list):
    expected_sizes = {"C3": 27, "pair(2)": 16, "units(2)": 1}
    t0 = time.monotonic()
    ok = True
    for name, g in corpus_list:
        formula = math.prod(
            sum(1 for y in g.elements() if g.domain_map[y] == g.range_map[x])
            for x in g.elements()
        )
        for side in ("S", "S'"):
            scan = law_scan(g, side)
            ok &= scan.identity_ok and scan.closure_ok and scan.assoc_ok
            ok &= scan.size == formula
            ok &= scan.assoc_mode == "certificate" and scan.assoc_triples == formula ** 3
        if name in expected_sizes:
            ok &= formula == expected_sizes[name]
    elapsed = time.monotonic() - t0
    verdict("monoid-laws", ok and elapsed < 60.0)


def test_involution(table_corpus):
    ok = True
    for name, g, ts, tsp in table_corpus:
        if len(ts) > 2000:
            continue
        members = [gfun(g, m) for m in ts.maps.tolist()]
        sigma = tsp.rank([involution_star(f).map for f in members])
        ok &= bool((sigma >= 0).all()) and len(set(sigma.tolist())) == len(ts)
        for f in members:
            ok &= involution_star(involution_star(f)).map == f.map
        lhs = sigma[ts.op]
        rhs = tsp.op[sigma[:, None], sigma[None, :]]
        ok &= bool(np.array_equal(lhs, rhs))
    verdict("involution", ok)


def test_prop_3_3_suite(table_corpus):
    ok = True
    ids = ("P3.3.1", "P3.3.2", "P3.3.3", "P3.3.4",
           "P3.3.5", "P3.3.6", "P3.3.7", "P3.3.8")
    for name, g, ts, tsp in table_corpus:
        report = full_report(g, checks=ids)
        ok &= report.all_passed
        if name == "C2":
            spec = special_elements(ts)
            maps = {tuple(ts.maps[i].tolist()) for i in spec.idempotents}
            ok &= maps == {(0, 0), (0, 1), (1, 0)}
            zmaps = {tuple(ts.maps[i].tolist()) for i in spec.right_zeros}
            ok &= zmaps == {(0, 1), (1, 0)}
    verdict("prop-3.3-suite", ok)


def test_units(table_corpus):
    ok = True
    for name, g, ts, tsp in table_corpus:
        for t in (ts, tsp):
            bijective = bijective_translations(t)
            inverse, h1 = group_of_units(t, bijective)
            ok &= h1.passed
            ok &= units_crosscheck(bijective[0], cayley_units(t)).passed
            for i, k in inverse.items():
                ok &= t.mul(i, k) == t.identity and t.mul(k, i) == t.identity
        if name == "C2":
            ok &= len(bijective_translations(ts)[0]) == 2
    verdict("units", ok)


def test_dense_submonoid(table_corpus):
    ok = True
    for name, g, ts, tsp in table_corpus:
        dense = {}
        for t in (ts, tsp):
            bijective = bijective_translations(t)
            # T_G (surjective translations) is H(1) (the members with an inverse)
            tg = tuple(i for i, row in enumerate(t.trans.tolist()) if len(set(row)) == g.size)
            ok &= tg == bijective[0] == tuple(group_of_units(t, bijective)[0])
            ok &= dense_submonoid(t, bijective, left_cancellative(t)).passed
            dense[t.side] = [gfun(g, t.maps[i].tolist()) for i in tg]
        # the involution carries each side's dense set onto the other's
        for side, mirror in (("S", "S'"), ("S'", "S")):
            image = {involution_star(f).map for f in dense[side]}
            ok &= image == {f.map for f in dense[mirror]}
    verdict("dense-submonoid", ok)


def test_operator_representation(table_corpus):
    ok = True
    for name, g, ts, tsp in table_corpus:
        verdicts = representation_audit(
            ts, tsp, involution_indices(ts, tsp),
            cayley_units(ts), np.flatnonzero(left_cancellative(ts)),
            cayley_units(tsp), np.flatnonzero(left_cancellative(tsp)),
        )
        ok &= all(v.passed for v in verdicts.values())
    verdict("operator-representation", ok)


def test_functor(corpus_list):
    ok = True
    for g in (corpus.cyclic(2), corpus.cyclic(3), corpus.pair_groupoid(2)):
        autos = automorphisms(g)
        isos = [as_isomorphism(g, g, sigma) for sigma in autos]
        identity = as_isomorphism(g, g, list(g.elements()))
        for iso in isos:
            ok &= monoid_iso_audit(iso).passed
            ok &= functoriality_audit(identity, iso).passed
            ok &= functoriality_audit(iso, identity).passed
        for i1, i2 in itertools.product(isos, repeat=2):
            ok &= functoriality_audit(i1, i2).passed
    verdict("functor", ok)


def test_embedding():
    verdict("transformation-embedding", transformation_embedding_audit(corpus.swap_action()).passed)


def test_census_and_probe():
    t0 = time.monotonic()
    total1, classes1 = oracle_brute_census(1)
    total2, classes2 = oracle_brute_census(2)
    c1, c2 = enumerate_groupoids(1), enumerate_groupoids(2)
    ok = classes1 == c1.count == 1
    ok &= classes2 == c2.count == 2
    ok &= total1 == c1.total_found and total2 == c2.total_found
    report = principal_converse_search(6)
    ok &= report.forward_holds
    ok &= report.candidates == ()  # a found candidate would be reported, not failed
    if report.candidates:
        print(f"NOTE counterexample candidates: {report.candidates}")
    counts = {}
    for row in report.rows:
        counts[row.order] = counts.get(row.order, 0) + 1
    ok &= len(report.rows) == 38
    ok &= counts == {1: 1, 2: 2, 3: 3, 4: 7, 5: 9, 6: 16}
    elapsed = time.monotonic() - t0
    verdict("census-and-probe", ok and elapsed < 600.0)
