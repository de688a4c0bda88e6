import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpd import corpus, endo
from gpd.census import enumerate_groupoids
from gpd.endo import (
    PRODUCT_CAP,
    LawScan,
    _Kernel,
    _cayley_table,
    _certificate,
    _identity,
    _position_fibers,
    _product_columns,
    _radix,
    enumerate_monoid,
    gfun,
    involution_indices,
    involution_star,
    law_scan,
    left_translation,
    membership,
    monoid_maps_array,
    predicted_size,
    right_translation,
    star,
    star_prime,
)
from gpd.errors import BaseMismatch, CapExceeded, MembershipError, ShapeError
from gpd.groupoid import UNDEFINED


def iter_monoid_maps(g, side="S"):
    """Every member map in lexicographic order of its array, from the
    definition: d(f(x)) = r(x) on side S, r(f(x)) = d(x) on side S'."""
    if side == "S":
        fibers = [[y for y in g.elements() if g.d(y) == g.r(x)] for x in g.elements()]
    else:
        fibers = [[y for y in g.elements() if g.r(y) == g.d(x)] for x in g.elements()]
    return itertools.product(*fibers)


# ---------------------------------------------------------------------------
# oracle: the full star table of C(C2, C2), computed from the definition.
# C2 product is XOR; every total map is a member on both sides.
# Maps in lexicographic order: (0,0)=r, (0,1)=id=j, (1,0)=swap, (1,1)=const-a.


def c2_star_oracle(f, g):
    return tuple(g[f[x] ^ x] ^ f[x] for x in range(2))


def c2_star_prime_oracle(h, k):
    return tuple(h[x] ^ k[x ^ h[x]] for x in range(2))


C2_MAPS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_membership_group_case(c2):
    # on a group every total map belongs to both sides
    for m in C2_MAPS:
        flags = membership(c2, m)
        assert flags.in_sg and flags.in_spg


def test_membership_range_map(pair2):
    flags = membership(pair2, pair2.range_map)
    assert flags.in_sg
    # constant map to a fixed non-unit fails side S
    flags = membership(pair2, [1, 1, 1, 1])
    assert not flags.in_sg


def test_membership_shape_errors(c2):
    with pytest.raises(ShapeError):
        membership(c2, [0])
    with pytest.raises(ShapeError):
        membership(c2, [0, 9])


def test_star_matches_oracle_on_c2(c2):
    for fm in C2_MAPS:
        for gm in C2_MAPS:
            got = star(gfun(c2, fm), gfun(c2, gm)).map
            assert got == c2_star_oracle(fm, gm)
            got_p = star_prime(gfun(c2, fm), gfun(c2, gm)).map
            assert got_p == c2_star_prime_oracle(fm, gm)


def test_star_identity_laws(sg_c2, pair2):
    r = gfun(pair2, pair2.range_map)
    for m in iter_monoid_maps(pair2, "S"):
        f = gfun(pair2, m)
        assert star(r, f).map == m
        assert star(f, r).map == m


def test_const_a_squares_to_identity(c2):
    const_a = gfun(c2, (1, 1))
    assert star(const_a, const_a).map == tuple(c2.range_map)


def test_star_prime_identity(c2, pair2):
    for g in (c2, pair2):
        d = gfun(g, g.domain_map)
        for m in iter_monoid_maps(g, "S'"):
            h = gfun(g, m)
            assert star_prime(d, h).map == m
            assert star_prime(h, d).map == m


def test_j_is_right_zero(pair2, c2):
    for g in (pair2, c2):
        j = gfun(g, g.inverse)
        assert star(j, j).map == j.map
        assert star_prime(j, j).map == j.map
        for m in iter_monoid_maps(g, "S"):
            assert star(gfun(g, m), j).map == j.map
        for m in iter_monoid_maps(g, "S'"):
            assert star_prime(gfun(g, m), j).map == j.map


def test_star_errors(c2, c3):
    with pytest.raises(BaseMismatch):
        star(gfun(c2, (0, 0)), gfun(c3, (0, 0, 0)))
    g = corpus.pair_groupoid(2)
    non_member = gfun(g, [1, 1, 1, 1])
    member = gfun(g, g.range_map)
    with pytest.raises(MembershipError):
        star(non_member, member)


def test_involution_basics(c2, c3, pair2):
    for g in (c2, c3, pair2):
        j = gfun(g, g.inverse)
        assert involution_star(j).map == j.map
        r = gfun(g, g.range_map)
        assert involution_star(r).map == tuple(g.domain_map)
    # constant generator map on C3: image is the inverse constant, in side S'
    f = gfun(c3, (1, 1, 1))
    fs = involution_star(f)
    assert fs.map == (2, 2, 2)
    assert fs.in_spg


def test_involution_is_isomorphism_on_small(c2, pair2):
    for g in (c2, pair2):
        for fm, gm in itertools.product(iter_monoid_maps(g, "S"), repeat=2):
            f, h = gfun(g, fm), gfun(g, gm)
            assert involution_star(involution_star(f)).map == fm
            lhs = involution_star(star(f, h))
            rhs = star_prime(involution_star(f), involution_star(h))
            assert lhs.map == rhs.map


def test_translations(c2, pair2):
    r = gfun(c2, c2.range_map)
    assert left_translation(r) == (0, 1)  # identity on G
    j = gfun(pair2, pair2.inverse)
    assert left_translation(j) == tuple(pair2.domain_map)
    const_a = gfun(c2, (1, 1))
    assert left_translation(const_a) == (1, 0)  # the swap
    with pytest.raises(MembershipError):
        left_translation(gfun(pair2, [1, 1, 1, 1]))


def test_translation_composition_law(pair2):
    for fm, gm in itertools.product(iter_monoid_maps(pair2, "S"), repeat=2):
        f, g = gfun(pair2, fm), gfun(pair2, gm)
        lf, lg = left_translation(f), left_translation(g)
        lfg = left_translation(star(f, g))
        assert lfg == tuple(lg[lf[x]] for x in pair2.elements())


# ---------------------------------------------------------------------------
# enumeration


def test_predicted_sizes(named_corpus):
    expected = {
        "trivial": 1,
        "units(2)": 1,
        "C2": 4,
        "C3": 27,
        "C4": 256,
        "V4": 256,
        "pair(2)": 16,
        "pair(3)": 19683,
        "C2+C2": 16,
        "transform": 16,
    }
    for name, g in named_corpus:
        pred = predicted_size(g, "S")
        assert pred == expected[name]
        assert pred == predicted_size(g, "S'")
        # cross-check the formula against an explicit product of fiber sizes
        brute = math.prod(
            sum(1 for y in g.elements() if g.domain_map[y] == g.range_map[x])
            for x in g.elements()
        )
        assert pred == brute


def test_enumeration_matches_prediction(small_corpus):
    for _, g in small_corpus:
        maps = list(iter_monoid_maps(g, "S"))
        assert len(maps) == predicted_size(g, "S")
        assert maps == sorted(maps)  # lexicographic
        for m in maps:
            assert membership(g, m).in_sg


def test_maps_array_matches_iterator(named_corpus):
    # pair(3) included: 19683 rows per side
    for _, g in named_corpus:
        for side in ("S", "S'"):
            arr = monoid_maps_array(g, side)
            assert arr.dtype == np.int32
            assert np.array_equal(arr, np.array(list(iter_monoid_maps(g, side)), dtype=np.int32))


def test_unit_groupoid_monoid_is_trivial():
    # 64 positions: one array axis per position, plus one for the column, would
    # pass numpy's 64-axis limit
    for size in (2, 64):
        for side in ("S", "S'"):
            t = enumerate_monoid(corpus.unit_groupoid(size), side)
            assert len(t) == 1
            assert t.maps.tolist() == [list(range(size))]
            assert t.op.tolist() == [[0]] and t.identity == 0


def test_cap_exceeded(c3, pair3, monkeypatch):
    with pytest.raises(CapExceeded) as err:
        enumerate_monoid(c3, "S", cap=10)
    assert err.value.predicted == 27

    def no_work(*args):
        raise AssertionError("work started before the cap was checked")

    # pair(3): 19683 members fit the monoid cap, their table's 19683^2 products do not
    monkeypatch.setattr(endo, "monoid_maps_array", no_work)
    with pytest.raises(CapExceeded) as err:
        enumerate_monoid(pair3, "S")
    assert err.value.predicted == 387420489


def members(t):
    """Member i of a table as the scalar reference object, built from maps[i]."""
    return [gfun(t.groupoid, m) for m in t.maps.tolist()]


def test_cayley_table_matches_scalar_star(sg_c2, spg_c2, sg_pair2):
    for table, op_fn in ((sg_c2, star), (sg_pair2, star), (spg_c2, star_prime)):
        fs = members(table)
        for i, f in enumerate(fs):
            for j, h in enumerate(fs):
                assert tuple(table.maps[table.mul(i, j)].tolist()) == op_fn(f, h).map


def test_c2_cayley_oracle(sg_c2):
    # indices in lex order: 0=r, 1=id(=j), 2=swap, 3=const-a
    expected = [
        [0, 1, 2, 3],
        [1, 1, 2, 2],
        [2, 1, 2, 1],
        [3, 1, 2, 0],
    ]
    assert sg_c2.op.tolist() == expected
    assert sg_c2.identity == 0


def test_identity_located(sg_pair2, spg_pair2):
    assert tuple(sg_pair2.maps[sg_pair2.identity].tolist()) == sg_pair2.groupoid.range_map
    assert tuple(spg_pair2.maps[spg_pair2.identity].tolist()) == spg_pair2.groupoid.domain_map


def test_monoid_membership_flags(sg_pair2):
    # every enumerated element is in side S; the S' flag marks the intersection
    assert all(f.in_sg for f in members(sg_pair2))
    inter = [f for f in members(sg_pair2) if f.in_spg]
    assert len(inter) == 1  # pair groupoids: only j


def test_translation_array_matches_scalar(small_corpus):
    # t.trans row i is the scalar translation of member i, on both sides
    for name, g in small_corpus:
        for side, fn in (("S", left_translation), ("S'", right_translation)):
            t = enumerate_monoid(g, side)
            assert t.trans.shape == (len(t), g.size), (name, side)
            for i, f in enumerate(members(t)):
                assert tuple(int(v) for v in t.trans[i]) == fn(f), (name, side, i)


def test_rank_numbers_the_maps_rows(small_corpus):
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            assert np.array_equal(t.rank(t.maps), np.arange(len(t))), (name, side)


def test_rank_is_minus_one_off_the_side(sg_pair2, spg_pair2):
    # the identity permutation fixes non-units, so it is in neither side of
    # pair(2); j is in both, d only in S'
    g = sg_pair2.groupoid
    rows = [list(range(4)), g.inverse, g.domain_map]
    assert sg_pair2.rank(rows).tolist() == [-1, 5, -1]
    assert spg_pair2.rank(rows).tolist() == [-1, 3, spg_pair2.identity]
    assert sg_pair2.maps[5].tolist() == spg_pair2.maps[3].tolist() == list(g.inverse)


def test_involution_indices_need_members(sg_pair2, spg_pair2):
    maps = sg_pair2.maps.copy()
    maps[3] = range(4)  # its involution image is itself, not in side S'
    with pytest.raises(MembershipError):
        involution_indices(dataclasses.replace(sg_pair2, maps=maps), spg_pair2)


def test_involution_indices_match_scalar(small_corpus):
    for name, g in small_corpus:
        ts, tsp = enumerate_monoid(g, "S"), enumerate_monoid(g, "S'")
        sigma = involution_indices(ts, tsp)
        assert tsp.maps[sigma].tolist() == [list(involution_star(f).map) for f in members(ts)], name


# ---------------------------------------------------------------------------
# bulk scans


def star_rows(ker, A, B, side):
    """Row-wise products of two (T, n) stacks of member maps, pair by pair;
    UNDEFINED wherever the translation f(x) x (on S', x f(x)) is undefined.
    An oracle independent of the certificate's factored evaluation."""
    if side == "S":
        la = ker.Pflat[A * ker.n + ker.xs[None, :]]
        gl = np.take_along_axis(B, la, axis=1)
        return np.where(la < 0, UNDEFINED, ker.Pflat[gl * ker.n + A])
    ra = ker.Pflat[ker.xs[None, :] * ker.n + A]
    kl = np.take_along_axis(B, ra, axis=1)
    return np.where(ra < 0, UNDEFINED, ker.Pflat[A * ker.n + kl])


def closure_scan_dense(g, side="S", cap=66_000):
    """Direct all-pairs closure scan (quadratic); cross-checks the factored path."""
    maps = monoid_maps_array(g, side, cap)
    ker = _Kernel(g)
    for i in range(len(maps)):
        F = np.broadcast_to(maps[i], maps.shape)
        res = star_rows(ker, F, maps, side)
        d, r = (ker.dm, ker.rm) if side == "S" else (ker.rm, ker.dm)
        if (res < 0).any() or not (d[res] == r).all():
            return False
    return True


def certificate_dense(g, side):
    """The L3.7 certificate evaluated once per member: sum_x k_x |S| gathers
    over the member array, then a sort of the |S| translation rows for
    injectivity.  An oracle for the factored ``endo._certificate``, with the
    same return shape except ``cols``: cols[x], shape (k_x, |S|), holds
    (f * g_j)(x) in row p for every member j and any f taking x to the p-th
    value of x's fiber (UNDEFINED where the translation is undefined)."""
    maps = monoid_maps_array(g, side)
    ker = _Kernel(g)
    n, P = ker.n, ker.Pflat
    conditions, closure, law_witness, cols = 0, None, None, []
    for x, fiber in enumerate(endo._position_fibers(g, side)):
        cols.append(np.full((len(fiber), len(maps)), UNDEFINED, dtype=np.int32))
        for p, v in enumerate(fiber):
            c = int(ker.P[v, x] if side == "S" else ker.P[x, v])
            conditions += len(maps)
            if c < 0:
                closure = closure or (conditions, ("closure", x, v, 0))
                continue
            gc = maps[:, c]
            if side == "S":
                res = cols[x][p] = P[gc * n + v]
                good = (res >= 0) & (ker.dm[np.maximum(res, 0)] == ker.rm[x])
                bad = P[res * n + x] != P[gc * n + c]
            else:
                res = cols[x][p] = P[v * n + gc]
                good = (res >= 0) & (ker.rm[np.maximum(res, 0)] == ker.dm[x])
                bad = P[x * n + res] != P[c * n + gc]
            if not good.all():
                closure = closure or (conditions, ("closure", x, v, int(np.argmax(~good))))
            if law_witness is None and bad.any():
                law_witness = ("translation law", x, v, int(np.argmax(bad)))
    if closure is not None:
        return False, closure[0], False, closure[1], cols
    rows = ker.translation_rows(maps, side)
    order = np.lexsort(rows.T[::-1])
    same = np.flatnonzero((rows[order[1:]] == rows[order[:-1]]).all(axis=1))
    if law_witness is None and len(same):
        law_witness = ("injectivity", *sorted(int(order[k]) for k in (same[0], same[0] + 1)))
    return True, conditions, law_witness is None, law_witness, cols


def test_factored_certificate_matches_dense_oracle(c2, c3, pair2, small_corpus):
    cases = [((g.name, cell), m) for g in (c2, c3, pair2) for cell, m in _mutants(g)]
    expanded = 0
    for case, g in cases + small_corpus:
        for side in ("S", "S'"):
            got = _certificate(_Kernel(g), side)
            want = certificate_dense(g, side)
            assert got[:3] == want[:3], (case, side)
            if want[3] is not None and want[3][0] == "injectivity":
                # the factored witness is another colliding pair
                premise, i, j = got.witness
                trans = _Kernel(g).translation_rows(monoid_maps_array(g, side)[[i, j]], side)
                assert premise == "injectivity" and i != j and (trans[0] == trans[1]).all()
            else:
                assert got.witness == want[3], (case, side)
            if (got.c >= 0).all():
                cols = _product_columns(got, predicted_size(g, side))
                assert len(cols) == len(want[4]), (case, side)
                assert all(np.array_equal(a, b) for a, b in zip(cols, want[4])), (case, side)
                expanded += 1
    assert expanded > 2 * len(small_corpus)


# ---------------------------------------------------------------------------
# the per-(x, v) certificate that the flat triple kernel replaced, kept as an
# oracle of every result, witness and product column


def certificate_oracle(ker, side):
    """The L3.7 certificate, one Python step per (x, v) pair: returns
    (closure_ok, closure_conditions, assoc_ok, witness, rows) with
    rows[x][p] = (c, res) for v the p-th value of x's fiber, res[q] =
    (f * g)(x) for g(c) the q-th value of c's fiber (None where c is
    undefined).  The scan runs on past a closure failure to fill them."""
    n, (Q, d, r) = ker.n, ((ker.P, ker.dm, ker.rm) if side == "S" else (ker.P.T, ker.rm, ker.dm))
    Qf = np.ascontiguousarray(Q).ravel()
    fibers = [np.asarray(fib, dtype=np.int32) for fib in _position_fibers(ker.g, side)]
    strides = [math.prod(map(len, fibers[x + 1:])) for x in range(len(fibers))]
    size = math.prod(map(len, fibers))
    conditions, closure, law_witness, rows = 0, None, None, []
    for x, fiber in enumerate(fibers):
        rows.append([])
        for v in fiber.tolist():
            c = int(Q[v, x])
            conditions += size
            if c < 0:  # no product is defined at x
                closure = closure or (conditions, ("closure", x, v, 0))
                rows[x].append((c, None))
                continue
            w = fibers[c]
            res = Qf[w * n + v]
            rows[x].append((c, res))
            good = (res >= 0) & (d[np.maximum(res, 0)] == r[x])
            if not good.all():
                closure = closure or (conditions, ("closure", x, v, int(np.argmax(~good)) * strides[c]))
            bad = Qf[res * n + x] != Qf[w * n + c]
            if law_witness is None and bad.any():
                law_witness = ("translation law", x, v, int(np.argmax(bad)) * strides[c])
    if closure is not None:
        return False, closure[0], False, closure[1], rows
    for x, row in enumerate(rows if law_witness is None else ()):
        cs = [c for c, _ in row]
        dup = next((p for p, c in enumerate(cs) if c in cs[:p]), None)
        if dup is not None:
            law_witness = ("injectivity", cs.index(cs[dup]) * strides[x], dup * strides[x])
            break
    return True, conditions, law_witness is None, law_witness, rows


def radix_oracle(g, side):
    """``_radix`` one (x, y) at a time: pos[x, y] = y's place in x's sorted
    fiber (-1 off it), strides[x] = the product of the later fiber sizes."""
    fibers = _position_fibers(g, side)
    pos = -np.ones((g.size, g.size), dtype=np.int64)
    for x, fib in enumerate(fibers):
        for p, y in enumerate(fib):
            pos[x, y] = p
    return pos, np.array([math.prod(map(len, fibers[x + 1:])) for x in range(g.size)], dtype=np.int64)


def product_columns_oracle(rows, strides, size):
    """The oracle's rows over all members: cols[x], shape (k_x, |S|), holds
    (f * g_j)(x) in row p, since g_j(c) is at digit (j // strides[c]) % k_c."""
    rank = np.arange(size)
    return [np.stack([res[rank // strides[c] % len(res)] for c, res in row]) for row in rows]


def test_flat_certificate_equals_the_per_pair_oracle(c2, c3, pair2, named_corpus):
    inputs = list(named_corpus) + [
        ("C3+C3", corpus.disjoint_union(corpus.cyclic(3), corpus.cyclic(3))), ("C5", corpus.cyclic(5))]
    inputs += [(g.name, g) for order in range(1, 7) for g in enumerate_groupoids(order).representatives]
    inputs += [((g.name, cell), m) for g in (c2, c3, pair2) for cell, m in _mutants(g)]
    for cells in (((1, 2, 2), (2, 1, 2), (2, 2, 2)), ((1, 2, 1), (2, 1, 1), (2, 2, 2))):
        # injectivity fails at two places other than 0 and 1 of a three-value fiber
        m = functools.reduce(lambda h, cell: _mutant(h, *cell), cells, c3)
        inputs.append((("C3", cells), m))
        assert certificate_oracle(_Kernel(m), "S")[3] in (("injectivity", 3, 6), ("injectivity", 0, 6))
    outcomes, columns = set(), 0
    for case, g in inputs:
        for side in ("S", "S'"):
            got = _certificate(_Kernel(g), side)
            want = certificate_oracle(_Kernel(g), side)
            assert (got.closure_ok, got.closure_conditions, got.assoc_ok, got.witness) == want[:4], (case, side)
            assert all(np.array_equal(a, b) for a, b in zip(_radix(g, side), radix_oracle(g, side))), (case, side)
            outcomes.add(got.witness and got.witness[0])
            size = predicted_size(g, side)
            if got.closure_ok and size ** 2 <= PRODUCT_CAP:  # the sides whose table is filled
                cols = _product_columns(got, size)
                strides = radix_oracle(g, side)[1]
                assert all(np.array_equal(a, b) for a, b in
                           zip(cols, product_columns_oracle(want[4], strides, size), strict=True)), (case, side)
                columns += 1
    assert outcomes == {None, "closure", "translation law", "injectivity"}
    assert columns > 2 * (len(named_corpus) + 40)


def test_law_scan_is_exact_past_int64_sizes():
    # pair(8) has 8^64 = 2^192 members a side, more than int64 counts: sizes,
    # condition counts and witness indices stay exact Python ints
    g = corpus.pair_groupoid(8)
    scan = law_scan(g, "S", cap=2 ** 200)
    assert scan.assoc_ok and scan.identity_ok and scan.size == 8 ** 64
    assert scan.closure_conditions == 64 * 8 * 8 ** 64
    m = _mutant(g, 9, 8, 2)
    witness = law_scan(m, "S", cap=2 ** 200).witness
    assert witness == certificate_oracle(_Kernel(m), "S")[3] == ("closure", 0, 8, 2 ** 165)


def test_identity_reads_a_mislabelled_identity_as_failing(c2, c3, pair2, monkeypatch):
    # the identity helper of enumerate_monoid and law_scan, handed each member
    # map as the identity: it accepts the one map whose laws hold
    for g in (c2, c3, pair2, corpus.unit_groupoid(2)):
        for side in ("S", "S'"):
            cert = _certificate(_Kernel(g), side)
            accepted = [m for m in iter_monoid_maps(g, side)
                        if _identity(cert._replace(e=np.array(m, dtype=np.int32))) is not None]
            assert accepted == [tuple(g.range_map if side == "S" else g.domain_map)], (g.name, side)
            assert accepted == [m for m in iter_monoid_maps(g, side) if _oracle_identity_ok(g, side, m)]
    # enumerate_monoid and law_scan both refuse a certificate whose identity
    # is mislabelled as j, the inverse map
    certificate = endo._certificate

    def mislabelled(ker, side):
        return certificate(ker, side)._replace(e=np.asarray(ker.g.inverse, dtype=np.int32))

    monkeypatch.setattr(endo, "_certificate", mislabelled)
    for side in ("S", "S'"):
        assert law_scan(pair2, side).identity_ok is False
        with pytest.raises(MembershipError, match="identity law fails in the translation certificate"):
            enumerate_monoid(pair2, side)


def test_identity_needs_one_fiber_value_where_c_is_another_position():
    # (e * g)(x) = res[digit_c(g)] cannot follow g(x) when c != x and x's fiber
    # has two values, even with res constant.  A certificate no groupoid gives
    # (two positions, fibers {0, 1}, e = (0, 0)), where every other identity
    # condition holds; with c = x and res = w at position 1 the laws hold
    pairs = dict(x=np.array([0, 0, 1, 1]), v=np.array([0, 1, 0, 1]), first=np.arange(0, 8, 2),
                 pair=np.arange(4).repeat(2), w=np.tile([0, 1], 4))
    cert = endo._Certificate(True, 16, True, None, pos=np.array([[0, 1], [0, 1]]), strides=np.array([2, 1]),
                             k=np.array([2, 2]), e=np.array([0, 0]), c=np.array([0, 0, 0, 1]),
                             res=np.array([0, 1, 1, 0, 0, 0, 1, 0]), **pairs)
    assert _identity(cert) is None
    assert _identity(cert._replace(c=np.array([0, 0, 1, 1]), res=np.array([0, 1, 1, 0, 0, 1, 1, 0]))) == 0


def _count_calls(monkeypatch, owner, attr):
    """Record the arguments of every call to ``owner.attr``."""
    calls, fn = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_law_scan_builds_no_member_array(pair3, monkeypatch):
    arrays = _count_calls(monkeypatch, endo, "monoid_maps_array")
    translations = _count_calls(monkeypatch, _Kernel, "translation_rows")
    for side in ("S", "S'"):
        assert law_scan(pair3, side).assoc_ok
    assert arrays == [] and translations == []
    with pytest.raises(CapExceeded) as err:
        law_scan(pair3, cap=19682)
    assert err.value.predicted == 19683


def test_law_scan_small_and_dense_crosscheck(small_corpus):
    for name, g in small_corpus:
        for side in ("S", "S'"):
            scan = law_scan(g, side)
            assert scan.identity_ok and scan.closure_ok and scan.assoc_ok, (name, side)
            assert scan.assoc_mode == "certificate"
            assert scan.assoc_triples == scan.size ** 3
            assert closure_scan_dense(g, side)


def test_law_scan_pair3(pair3):
    for side in ("S", "S'"):
        scan = law_scan(pair3, side)
        assert scan.size == 19683
        assert scan.identity_ok and scan.closure_ok and scan.assoc_ok
        assert scan.assoc_mode == "certificate"
        assert scan.assoc_triples == 19683 ** 3
        assert scan.witness is None
        # every pairwise closure condition of this side was covered by the
        # factored scan
        maps = monoid_maps_array(pair3, side)
        assert scan.closure_conditions == sum(
            len(np.unique(maps[:, x])) * scan.size for x in range(pair3.size)
        )


def test_law_scan_deterministic(pair3):
    a = law_scan(pair3, "S")
    b = law_scan(pair3, "S")
    assert a == b


# ---------------------------------------------------------------------------
# the one-pass Cayley-table fill against the per-position sum it replaced


def fill_oracle(cols, pos, strides, total):
    """op[i, j] = sum_x strides[x] * pos[x, cols[x][digit_x(i), j]], added
    position by position over all |S|^2 cells."""
    op = np.zeros((total, total), dtype=np.int32)
    for x, col in enumerate(cols):  # axis 1 below is digit_x(i)
        op.reshape(-1, len(col), strides[x], total)[...] += (pos[x, col] * strides[x])[:, None]
    return op


def fill_inputs(g, side):
    """The rows, radix and size that ``enumerate_monoid`` fills one side's table from."""
    pos, strides = _radix(g, side)
    total = predicted_size(g, side)
    return _product_columns(_certificate(_Kernel(g), side), total), pos, strides, total


def test_one_pass_fill_matches_per_position_oracle(small_corpus):
    c2 = corpus.cyclic(2)
    split = corpus.disjoint_union(corpus.disjoint_union(c2, corpus.unit_groupoid(1)), c2)
    # strides 8, 4, 4, 2, 1: the split stride 4, the least whose square reaches
    # |S| = 16, is also the stride of the one-value fiber of the unit at id 2
    assert _radix(split, "S")[1].tolist() == [8, 4, 4, 2, 1]
    cases = list(small_corpus) + [
        ("C3+C3", corpus.disjoint_union(corpus.cyclic(3), corpus.cyclic(3))),
        ("units(1)", corpus.unit_groupoid(1)),  # |S| = 1
        ("C2+unit+C2", split),
    ]
    cases += [(g.name, g) for order in range(1, 7) for g in enumerate_groupoids(order).representatives]
    checked = 0
    for name, g in cases:
        for side in ("S", "S'"):
            if predicted_size(g, side) ** 2 > PRODUCT_CAP:
                continue
            oracle = fill_oracle(*fill_inputs(g, side))
            assert np.array_equal(enumerate_monoid(g, side).op, oracle), (name, side)
            checked += 1
    assert checked == 2 * (len(small_corpus) + 3) + 72  # four order-6 sides (|S| = 46656) are over the cap


@pytest.mark.parametrize("ks", [
    (1,), (1, 1, 1),  # |S| = 1
    (5,), (5, 1, 1),  # a single position with more than one value: no stride's square reaches |S|
    (1, 1, 4, 1),  # a single position with more than one value, after two one-value fibers
    (3, 1, 3), (2, 2, 1, 2, 2),  # the split stride is a one-value fiber's
    (2, 3, 4), (7, 2), (2, 7), (3, 3, 3, 3), (4, 1, 1, 4, 2),
])
def test_one_pass_fill_on_edge_shapes(ks):
    # the fill is arithmetic on fiber positions, so any values in each fiber
    # test it, including shapes no groupoid has
    rng = np.random.default_rng(sum(k * 10 ** x for x, k in enumerate(ks)))
    total = math.prod(ks)
    strides = np.array([math.prod(ks[x + 1:]) for x in range(len(ks))], dtype=np.int64)
    pos = np.tile(np.arange(max(ks)), (len(ks), 1))  # fiber x holds the values 0 .. ks[x] - 1
    cols = [rng.integers(0, k, size=(k, total)) for k in ks]
    assert np.array_equal(_cayley_table(cols, pos, strides, total), fill_oracle(cols, pos, strides, total))


# ---------------------------------------------------------------------------
# the cubic associativity scan, kept here as an oracle independent of the
# translation certificate and of the numpy product kernel


def _oracle_product(product, side, f, h):
    """One product from the defining formula; None where it is undefined."""
    out = []
    for x, v in enumerate(f):
        c = product[v][x] if side == "S" else product[x][v]
        if c < 0:
            return None
        out.append(product[h[c]][v] if side == "S" else product[v][h[c]])
    return tuple(out)


def oracle_table(g, side):
    """The Cayley table of one side, or None if some product leaves it."""
    maps = list(iter_monoid_maps(g, side))
    index = {m: i for i, m in enumerate(maps)}
    op = np.empty((len(maps), len(maps)), dtype=np.int64)
    for i, f in enumerate(maps):
        for j, h in enumerate(maps):
            k = index.get(_oracle_product(g.product, side, f, h))
            if k is None:
                return None
            op[i, j] = k
    return op


def oracle_associative(op, budget=20_000_000):
    """(i*j)*k == i*(j*k) over every index triple of a Cayley table."""
    chunk = max(1, budget // len(op) ** 2)
    for i0 in range(0, len(op), chunk):
        blk = op[i0:i0 + chunk]
        if not np.array_equal(op[blk], blk[:, op]):
            return False
    return True


def test_certificate_agrees_with_cubic_oracle(named_corpus):
    checked = 0
    for name, g in named_corpus:
        for side in ("S", "S'"):
            if predicted_size(g, side) > 256:
                continue
            op = oracle_table(g, side)
            assert op is not None, (name, side)
            assert law_scan(g, side).assoc_ok == oracle_associative(op), (name, side)
            assert np.array_equal(enumerate_monoid(g, side).op, op), (name, side)
            checked += 1
    assert checked == 18  # both sides of the nine corpus members other than pair(3)


def _mutant(g, a, b, w):
    """``g`` with product cell (a, b) set to w.

    ``dataclasses.replace`` skips validation, so the broken table reaches the
    law scan with the original range and domain maps.
    """
    rows = [list(row) for row in g.product]
    rows[a][b] = w
    return dataclasses.replace(g, product=tuple(tuple(row) for row in rows))


def _mutants(g):
    """Every single-cell corruption of the product table, UNDEFINED included."""
    for a, b in itertools.product(g.elements(), repeat=2):
        for w in range(-1, g.size):
            if w != g.product[a][b]:
                yield (a, b, w), _mutant(g, a, b, w)


def _oracle_identity_ok(g, side, e=None):
    """Both identity laws of one side for the map e (by default r on S, d on
    S'), from the defining formula."""
    e = tuple(g.range_map if side == "S" else g.domain_map) if e is None else e
    maps = list(iter_monoid_maps(g, side))
    return all(_oracle_product(g.product, side, e, h) == h
               and _oracle_product(g.product, side, h, e) == h for h in maps)


def test_certificate_sound_on_mutants(c2, c3, pair2):
    outcomes, built = set(), 0
    for g in (c2, c3, pair2):
        for cell, m in _mutants(g):
            for side in ("S", "S'"):
                case = (g.name, cell, side)
                scan = law_scan(m, side)
                outcomes.add(scan.assoc_ok)
                assert scan.identity_ok == _oracle_identity_ok(m, side), case
                if scan.assoc_ok:
                    op = oracle_table(m, side)
                    assert op is not None and oracle_associative(op), case
                try:
                    table = enumerate_monoid(m, side)
                except MembershipError:
                    table = None
                laws_ok = scan.identity_ok and scan.closure_ok and scan.assoc_ok
                assert (table is not None) == laws_ok, case
                if table is not None:
                    assert np.array_equal(table.op, oracle_table(m, side)), case
                    built += 1
    assert outcomes == {True, False}
    assert built > 0


def test_certificate_law_witness_replays(c3):
    m = _mutant(c3, 1, 1, 0)
    for side, op, trans in (("S", star, left_translation),
                            ("S'", star_prime, right_translation)):
        maps = list(iter_monoid_maps(m, side))
        scan = law_scan(m, side)
        assert scan.closure_ok and not scan.assoc_ok
        premise, x, v, gi = scan.witness
        assert premise == "translation law"
        f = gfun(m, next(f for f in maps if f[x] == v))
        h = gfun(m, maps[gi])
        assert trans(op(f, h))[x] != trans(h)[trans(f)[x]]
        assert not oracle_associative(oracle_table(m, side))


def test_identity_scan_sees_undefined_products(c2):
    # With (1,1) undefined, the translation f(1) 1 (on S', 1 f(1)) is
    # undefined for every member with f(1) = 1, so neither identity law can
    # hold; the UNDEFINED sentinel must not wrap around to the last column.
    m = _mutant(c2, 1, 1, -1)
    for side in ("S", "S'"):
        assert law_scan(m, side).identity_ok is False


def test_identity_scan_on_every_two_element_table(c2):
    # Every product table on two elements, under the range and domain maps
    # of units(2) and of C2.  e * g can hold at x although x's row at e's
    # digit has c != x: on units(2), where each fiber has one value, with
    # 0 * 0 = 1 and 1 * 0 = 0; with two values per fiber, never.
    holds = set()
    for g in (corpus.unit_groupoid(2), c2):
        for cells in itertools.product(range(-1, 2), repeat=4):
            m = dataclasses.replace(g, product=(cells[:2], cells[2:]))
            for side in ("S", "S'"):
                ok = _oracle_identity_ok(m, side)
                assert law_scan(m, side).identity_ok == ok, (g.name, cells, side)
                holds.add((g.name, m.product[0][0], ok))
    assert ("units(2)", 1, True) in holds


def test_certificate_is_one_way(c2):
    # The certificate is sufficient, not necessary.  On a valid groupoid the
    # translation x -> f(x) x determines f(x) by cancellation, so distinct
    # members always have distinct translations and the certificate applies;
    # this corrupted table (a * a = a) has no cancellation, so injectivity
    # fails although its product happens to be associative.  build_groupoid
    # rejects such a table, so the certificate never refuses a real groupoid.
    m = _mutant(c2, 1, 1, 1)
    for side, trans in (("S", left_translation), ("S'", right_translation)):
        maps = list(iter_monoid_maps(m, side))
        scan = law_scan(m, side)
        assert scan.closure_ok and not scan.assoc_ok
        assert scan.witness == ("injectivity", 0, 1)
        _, i, j = scan.witness
        assert trans(gfun(m, maps[i])) == trans(gfun(m, maps[j]))
        assert oracle_associative(oracle_table(m, side))
    with pytest.raises(MembershipError, match="injectivity"):
        enumerate_monoid(m, "S")


# ---------------------------------------------------------------------------
# sampled properties on the big instance


def sg_map_strategy(g):
    fibers = [sorted(y for y in g.elements() if g.domain_map[y] == g.range_map[x])
              for x in g.elements()]
    return st.tuples(*[st.sampled_from(f) for f in fibers])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sampled_associativity_pair3(data):
    g = corpus.pair_groupoid(3)
    strat = sg_map_strategy(g)
    f, h, k = (gfun(g, data.draw(strat)) for _ in range(3))
    assert star(star(f, h), k).map == star(f, star(h, k)).map


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sampled_involution_pair3(data):
    g = corpus.pair_groupoid(3)
    strat = sg_map_strategy(g)
    f, h = gfun(g, data.draw(strat)), gfun(g, data.draw(strat))
    assert involution_star(involution_star(f)).map == f.map
    lhs = involution_star(star(f, h)).map
    rhs = star_prime(involution_star(f), involution_star(h)).map
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sampled_left_translation_embedding_pair3(data):
    g = corpus.pair_groupoid(3)
    strat = sg_map_strategy(g)
    f, h = gfun(g, data.draw(strat)), gfun(g, data.draw(strat))
    lf, lh = left_translation(f), left_translation(h)
    assert left_translation(star(f, h)) == tuple(lh[lf[x]] for x in g.elements())
