import dataclasses
import itertools
import time

import numpy as np
import pytest

from gpd import corpus
from gpd.census import enumerate_groupoids
from gpd.endo import (_BLOCK_CELLS, DEFAULT_MONOID_CAP, PRODUCT_CAP, SIDES, Membership,
                      enumerate_monoid, gfun, involution_star, membership,
                      predicted_size, star)
from gpd.errors import EmptySubset, MembershipError, NotASubgroupoid, PreconditionFailed
from gpd.groupoid import is_principal, morphism_classify
from gpd.operators import Verdict
from gpd.report import full_report
import gpd.report
import gpd.structure
from gpd.structure import (
    antihom_classification,
    bijective_translations,
    cayley_units,
    count_intertwining_maps,
    dense_submonoid,
    group_of_units,
    ideal_check,
    intersection_analysis,
    intertwining_maps,
    j_ideal,
    j_index,
    left_cancellative,
    left_ideal,
    left_zero_criterion,
    minimal_ideal,
    range_domain_criterion,
    range_domain_sweep,
    special_elements,
    subgroupoid_semigroup,
    units_crosscheck,
    validate_subgroupoid,
)
from test_endo import iter_monoid_maps

# S_{C2} in lexicographic order: 0 = (0,0) = r, 1 = (0,1) = identity map = j,
# 2 = (1,0) = swap, 3 = (1,1) = const-a.  The expected sets below were frozen
# from a brute-force scan over all 16 products of C(C2, C2); the scan itself
# is re-run in test_c2_sets_against_brute_force.


def brute_c2_products():
    maps = list(itertools.product(range(2), repeat=2))
    out = {}
    for f in maps:
        for g in maps:
            out[(f, g)] = tuple(g[f[x] ^ x] ^ f[x] for x in range(2))
    return maps, out


def test_c2_sets_against_brute_force(sg_c2):
    maps, prod = brute_c2_products()
    idem = {m for m in maps if prod[(m, m)] == m}
    rzero = {z for z in maps if all(prod[(s, z)] == z for s in maps)}
    assert idem == {(0, 0), (0, 1), (1, 0)}
    assert rzero == {(0, 1), (1, 0)}
    spec = special_elements(sg_c2)
    assert {tuple(sg_c2.maps[i].tolist()) for i in spec.idempotents} == idem
    assert {tuple(sg_c2.maps[i].tolist()) for i in spec.right_zeros} == rzero


def test_c2_special_elements_frozen(sg_c2):
    spec = special_elements(sg_c2)
    assert spec.idempotents == (0, 1, 2)
    assert spec.right_zeros == (1, 2)
    assert spec.left_zeros == ()
    assert j_index(sg_c2) == 1


def test_unit_groupoid_special_elements():
    t = enumerate_monoid(corpus.unit_groupoid(2), "S")
    spec = special_elements(t)
    assert spec.idempotents == spec.right_zeros == spec.left_zeros == (0,)


def test_j_always_idempotent_right_zero(small_corpus):
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            spec = special_elements(t)
            j = j_index(t)
            assert j in spec.idempotents, name
            assert j in spec.right_zeros, name


def special_elements_loop(op):
    """Idempotents, right zeros and left zeros cell by cell from their definitions."""
    op = op.tolist()
    n = len(op)
    return (tuple(i for i in range(n) if op[i][i] == i),
            tuple(z for z in range(n) if all(op[s][z] == z for s in range(n))),
            tuple(z for z in range(n) if all(op[z][s] == z for s in range(n))))


def cayley_units_loop(op, identity):
    """The i with i j = identity = j i for some j, cell by cell."""
    op = op.tolist()
    n = len(op)
    return tuple(i for i in range(n)
                 if any(op[i][j] == identity == op[j][i] for j in range(n)))


def test_table_reads_match_cell_loops_and_see_one_moved_cell(small_corpus):
    moved = 0
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            n = len(t)
            assert cayley_units(t) == cayley_units_loop(t.op, t.identity), (name, side)
            # the opposite table turns right zeros into left zeros
            for op in (t.op, t.op.T):
                spec = special_elements(dataclasses.replace(t, op=op))
                assert dataclasses.astuple(spec) == special_elements_loop(op), (name, side)
                if n == 1:
                    continue  # a one-member table has no other value to move a cell to
                # one cell of a right zero's column (a left zero's row) moved
                for z, cell in ([(z, (n - 1, z)) for z in spec.right_zeros[:1]]
                                + [(z, (z, n - 1)) for z in spec.left_zeros[:1]]):
                    mutant_op = op.copy()
                    mutant_op[cell] = (z + 1) % n
                    mutant = special_elements(dataclasses.replace(t, op=mutant_op))
                    assert dataclasses.astuple(mutant) == special_elements_loop(mutant_op), (name, side)
                    assert z not in mutant.right_zeros + mutant.left_zeros, (name, side, cell)
                    moved += 1
            if n == 1:
                continue
            # the cell v u = identity of one unit u moved: u is no longer a unit
            units = cayley_units(t)
            u = units[-1]
            v = int(np.flatnonzero(t.op[u] == t.identity)[0])
            op = t.op.copy()
            op[v, u] = (t.identity + 1) % n
            mutant = cayley_units(dataclasses.replace(t, op=op))
            assert mutant == cayley_units_loop(op, t.identity), (name, side)
            assert u not in mutant, (name, side)
            moved += 1
    assert moved == 2 * 7 * 3  # both sides of the 7 members with |S| > 1: two zeros, one unit


def _j_is_left_zero(t):
    j = j_index(t)
    return bool((t.op[j] == j).all())


def test_left_zero_criterion():
    u2 = enumerate_monoid(corpus.unit_groupoid(2), "S")
    v = left_zero_criterion(u2)
    assert _j_is_left_zero(u2) and v == Verdict(True)  # every member fixes every unit

    t = enumerate_monoid(corpus.cyclic(2), "S")
    v = left_zero_criterion(t)
    assert not _j_is_left_zero(t) and v.passed
    i, u = v.witness  # the first member that moves a unit
    assert t.maps[i, u] != u
    assert (t.maps[:i, t.groupoid.units] == t.groupoid.units).all()

    t = enumerate_monoid(corpus.pair_groupoid(2), "S")
    v = left_zero_criterion(t)
    assert not _j_is_left_zero(t) and v.passed and v.witness is not None


def test_j_ideal_minimal_c2(sg_c2):
    ideal = j_ideal(sg_c2)
    assert ideal == (1, 2)
    assert ideal_check(sg_c2, ideal) and minimal_ideal(sg_c2, ideal)
    # the full monoid is an ideal but not minimal here
    whole = range(len(sg_c2))
    assert ideal_check(sg_c2, whole) and not minimal_ideal(sg_c2, whole)


def test_j_ideal_minimal_everywhere(small_corpus):
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            assert minimal_ideal(t, j_ideal(t)), (name, side)


def oracle_minimal_ideal(t, subset):
    """The generated-ideal loop: an ideal T with S x S = T for every x in T."""
    sub = frozenset(int(i) for i in subset)
    return ideal_check(t, sub) and all(
        frozenset(int(v) for v in t.op[:, t.op[x, :]].ravel()) == sub for x in sub
    )


def test_minimal_ideal_matches_loop_oracle(small_corpus):
    outcomes = set()
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            spec = special_elements(t)
            subsets = [j_ideal(t), range(len(t)), (t.identity,), spec.right_zeros,
                       intersection_analysis(t)]
            for subset in subsets:
                expect = oracle_minimal_ideal(t, subset)
                assert minimal_ideal(t, subset) == expect, (name, side, tuple(subset))
                outcomes.add(expect)
    assert outcomes == {True, False}


def test_intersection_left_ideal(sg_c2, sg_pair2):
    for t in (sg_c2, sg_pair2):
        assert left_ideal(t, intersection_analysis(t))


def test_ideal_check_empty(sg_c2):
    with pytest.raises(EmptySubset):
        ideal_check(sg_c2, [])


def test_group_of_units_c2(sg_c2):
    bijective = bijective_translations(sg_c2)
    assert bijective[0] == (0, 3)
    inverse, verdict = group_of_units(sg_c2, bijective)
    assert verdict == Verdict(True)
    assert inverse == {0: 0, 3: 3}
    assert units_crosscheck(bijective[0], cayley_units(sg_c2)) == Verdict(True)


def test_group_of_units_trivial_cases():
    u2 = corpus.unit_groupoid(2)
    t = enumerate_monoid(u2, "S")
    units = bijective_translations(t)[0]
    assert units == (t.identity,)
    assert units_crosscheck(units, cayley_units(t)).passed


def test_group_of_units_inverse_not_a_member(pair2):
    # the identity permutation in place of unit 6's map: its pointwise
    # inverse, built from the unchanged translation, leaves side S
    t = enumerate_monoid(pair2, "S")
    bijective = bijective_translations(t)
    assert bijective == ((3, 6, 9, 12), True)
    maps = t.maps.copy()
    maps[6] = range(pair2.size)
    inverse, verdict = group_of_units(dataclasses.replace(t, maps=maps), bijective)
    assert verdict == Verdict(False, (6, "inverse not a member"))
    assert inverse == {3: 3, 9: 9, 12: 12}
    psi = np.asarray(pair2.inverse)[maps[6]][np.argsort(t.trans[6])]
    assert t.rank([psi])[0] == -1 and not membership(pair2, psi.tolist()).in_sg


def test_j_index_needs_a_member(pair2):
    t = enumerate_monoid(pair2, "S")
    fake = dataclasses.replace(pair2, inverse=tuple(range(pair2.size)))  # not in S
    with pytest.raises(MembershipError):
        j_index(dataclasses.replace(t, groupoid=fake))


def test_r_always_in_h1_and_crosscheck(small_corpus):
    for name, g in small_corpus:
        t = enumerate_monoid(g, "S")
        bijective = bijective_translations(t)
        assert t.identity in bijective[0], name
        assert group_of_units(t, bijective)[1].passed, name
        assert units_crosscheck(bijective[0], cayley_units(t)).passed, name
        # j is invertible exactly on unit groupoids
        assert (j_index(t) in bijective[0]) == (len(g.units) == g.size), name


def _dense(t):
    return dense_submonoid(t, bijective_translations(t), left_cancellative(t))


def test_dense_submonoid(sg_c2, small_corpus):
    assert bijective_translations(sg_c2)[0] == (0, 3)
    for name, g in small_corpus:
        t = enumerate_monoid(g, "S")
        assert _dense(t) == Verdict(True), name
        # the members with a surjective translation: closed, with the
        # identity, left-cancellative, and at finite scale the table's units
        dense = [i for i, row in enumerate(t.trans.tolist()) if len(set(row)) == g.size]
        assert tuple(dense) == bijective_translations(t)[0] == cayley_units(t), name
        assert np.isin(t.op[np.ix_(dense, dense)], dense).all(), name
        assert t.identity in dense and left_cancellative(t)[dense].all(), name
        # the involution carries T_G onto the mirror set of side S'
        tsp = enumerate_monoid(g, "S'")
        mirror = {tuple(tsp.maps[k].tolist()) for k in bijective_translations(tsp)[0]}
        images = {involution_star(gfun(g, t.maps[i].tolist())).map for i in dense}
        assert images == mirror, name


def _row_loop_cancellative(t):
    """Oracle: a member is left-cancellative when its row holds |S| distinct values."""
    return [len(set(row.tolist())) == len(t) for row in t.op]


def test_left_cancellative_equals_the_row_loop(small_corpus):
    # the row blocks of C3 + C3 (729 rows) and of the |S| = 3125 census sides
    # hold fewer rows than the table
    pool = list(small_corpus) + [("C3+C3", corpus.disjoint_union(corpus.cyclic(3), corpus.cyclic(3)))]
    pool += [(h.name, h) for order in range(1, 7) for h in enumerate_groupoids(order).representatives]
    checked = 0
    for name, g in pool:
        for side in SIDES:
            if predicted_size(g, side) ** 2 > PRODUCT_CAP:
                continue
            t = enumerate_monoid(g, side)
            assert left_cancellative(t).tolist() == _row_loop_cancellative(t), (name, side)
            checked += 1
    assert checked == 2 * (len(small_corpus) + 1) + 72


def test_left_cancellative_sees_a_repeat_in_a_later_row_block():
    # a unit's row past the first block of C3 + C3 gets one repeated value
    t = enumerate_monoid(corpus.disjoint_union(corpus.cyclic(3), corpus.cyclic(3)), "S")
    units = cayley_units(t)
    i = units[-1]
    assert i >= _BLOCK_CELLS // len(t) and left_cancellative(t)[list(units)].all()
    op = t.op.copy()
    op[i, 400] = op[i, 401]
    bad = dataclasses.replace(t, op=op)
    flags = left_cancellative(bad)
    assert flags.tolist() == _row_loop_cancellative(bad)
    assert not flags[i] and flags.sum() == left_cancellative(t).sum() - 1


def test_dense_submonoid_cancellation_witness(c3):
    # a moved cell in unit 5's row repeats a product; the witness names the
    # first column k whose product equals the one at an earlier column j
    t = enumerate_monoid(c3, "S")
    op = t.op.copy()
    op[5, 11] = (op[5, 11] + 1) % len(t)
    corrupted = dataclasses.replace(t, op=op)
    verdict = _dense(corrupted)
    assert not verdict.passed and not left_cancellative(corrupted)[5]
    i, j, k = verdict.witness
    assert i == 5 and j < k and op[5, j] == op[5, k]
    assert len(set(op[5, :k].tolist())) == k


def test_subgroupoid_validation():
    g = corpus.disjoint_union(corpus.cyclic(2), corpus.cyclic(2))
    assert validate_subgroupoid(g, [0, 1]) == (0, 1)
    with pytest.raises(NotASubgroupoid):
        validate_subgroupoid(g, [1])  # misses the unit 0 = 1*1
    with pytest.raises(NotASubgroupoid):
        validate_subgroupoid(g, [])


def _preserving(t, a):
    """The members mapping ``a`` into itself, read off the maps array."""
    return tuple(i for i, row in enumerate(t.maps.tolist()) if {row[x] for x in a} <= set(a))


def test_subgroupoid_semigroup_blocks():
    g = corpus.disjoint_union(corpus.cyclic(2), corpus.cyclic(2))
    t = enumerate_monoid(g, "S")
    assert subgroupoid_semigroup([0, 1], t) == Verdict(True)
    # A = G gives the whole monoid
    assert subgroupoid_semigroup(list(g.elements()), t) == Verdict(True)
    assert _preserving(t, list(g.elements())) == tuple(range(len(t)))
    # units of a unit groupoid: everything preserves them
    u2 = corpus.unit_groupoid(2)
    tu = enumerate_monoid(u2, "S")
    assert subgroupoid_semigroup(u2.units, tu) == Verdict(True)
    assert _preserving(tu, u2.units) == tuple(range(len(tu)))


def test_subgroupoid_semigroup_fails_on_a_moved_cell_inside_a_strict_set():
    # on C3 + C3 (three of its eight preserving sets are all of S), each strict
    # preserving set loses closure when a product of two of its members moves
    # outside it; P3.9 names the first subgroupoid, in sweep order, whose
    # preserving set holds the cell's row and column but not its new value
    g = corpus.disjoint_union(corpus.cyclic(3), corpus.cyclic(3))
    t = enumerate_monoid(g, "S")
    subs = gpd.report._subgroupoids(g)
    preserving = [set(_preserving(t, a)) for a in subs]
    strict = [k for k, p in enumerate(preserving) if len(p) < len(t)]
    assert len(strict) == 5 and len(subs) == 8
    named = set()
    for k in strict:
        i, j = sorted(preserving[k])[1:3]
        first = {w: next(b for b, p in enumerate(preserving) if {i, j} <= p and w not in p)
                 for w in range(len(t)) if w not in preserving[k]}
        w = min(first, key=lambda w: (first[w] != k, w))  # one P3.9 attributes to k, if any
        op = t.op.copy()
        op[i, j] = w
        bad = dataclasses.replace(t, op=op)
        assert subgroupoid_semigroup(subs[k], bad) == Verdict(False, None)
        ctx = gpd.report._Ctx(g, DEFAULT_MONOID_CAP)
        ctx.sides[0].table = bad
        assert gpd.report._CHECKS["P3.9"](ctx) == Verdict(False, (subs[first[w]], None))
        named.add(subs[first[w]])
    # the other strict sets are intersections of these two ((0, 3, 4, 5)
    # has the preserving set of (0,)), so their faults are named earlier
    assert named == {(0,), (3,)}


def test_closed_skips_the_gather_only_for_every_member(c3):
    # a moved cell still holds a member index, so the whole monoid stays
    # closed; one member fewer is gathered and the moved cell is seen
    t = enumerate_monoid(c3, "S")
    total = len(t)
    op = t.op.copy()
    op[3, 4] = total - 1
    bad = dataclasses.replace(t, op=op)
    assert gpd.structure._closed(bad, range(total))
    assert not gpd.structure._closed(bad, range(total - 1))
    # every member preserves A = G, so P3.9's closure passes the moved cell
    # there; a third of them preserve A = {e}, and a cell moved out of that
    # third fails
    everything = tuple(range(c3.size))
    assert _preserving(t, everything) == tuple(range(total))
    assert subgroupoid_semigroup(everything, bad) == Verdict(True)
    third = _preserving(t, (0,))
    assert len(third) == total // 3
    op = t.op.copy()
    op[third[1], third[2]] = next(w for w in range(total) if w not in third)
    assert subgroupoid_semigroup((0,), dataclasses.replace(t, op=op)) == Verdict(False, None)


def iter_intertwining_maps(g):
    """Oracle: all total maps with d(phi(x)) = phi(r(x)), by direct construction.

    Such a map sends units to units; choosing the unit assignment first
    forces each remaining value into a single domain-fiber.
    """
    units = g.units
    non_units = [x for x in g.elements() if not g.is_unit(x)]
    for sigma in itertools.product(units, repeat=len(units)):
        assign = dict(zip(units, sigma))
        pools = [g.d_fibers[assign[g.range_map[x]]] for x in non_units]
        for choice in itertools.product(*pools):
            phi = [0] * g.size
            for u in units:
                phi[u] = assign[u]
            for x, v in zip(non_units, choice):
                phi[x] = v
            yield tuple(phi)


def scalar_p310(g):
    """Oracle: P3.10 as one ``range_domain_criterion`` call per map, in oracle order."""
    for phi in iter_intertwining_maps(g):
        v = range_domain_criterion(g, phi)
        if not v.passed:
            return v
    return Verdict(True)


def loop_count_intertwining_maps(g):
    """The count by summing over all U^U unit assignments."""
    units = g.units
    non_units = [x for x in g.elements() if not g.is_unit(x)]
    total = 0
    for sigma in itertools.product(units, repeat=len(units)):
        assign = dict(zip(units, sigma))
        prod = 1
        for x in non_units:
            prod *= len(g.d_fibers[assign[g.range_map[x]]])
        total += prod
    return total


def test_intertwining_count_matches_the_loop(named_corpus):
    pool = list(named_corpus)
    for order in range(1, 7):
        pool += [(h.name, h) for h in enumerate_groupoids(order).representatives]
    pool += [(h.name, h) for h in enumerate_groupoids(7, max_order=7).representatives]
    assert len(pool) == 70
    for name, g in pool:
        assert count_intertwining_maps(g) == loop_count_intertwining_maps(g), name


def test_p310_count_is_predicted_before_any_work():
    # units(12) has 12^12 unit assignments: the count is read off the fibers
    g = corpus.unit_groupoid(12)
    assert count_intertwining_maps(g) == 12 ** 12
    verdict = full_report(g, ("P3.10",)).verdicts["P3.10"]
    assert verdict == Verdict(None, f"skipped: {12 ** 12} intertwining maps exceed the sweep cap")


def _hits_every_unit(g, phi):
    """Whether the image of every range-fiber meets the matching domain-fiber."""
    return all({phi[x] for x in g.r_fibers[u]} & set(g.d_fibers[u]) for u in g.units)


def test_range_domain_criterion(c2):
    for phi in (list(c2.inverse), list(c2.range_map)):
        assert range_domain_criterion(c2, phi) == Verdict(True)
        assert membership(c2, phi).in_sg and _hits_every_unit(c2, phi)
    with pytest.raises(PreconditionFailed):
        range_domain_criterion(c2, [1, 1])  # d(phi(e)) = e != phi(r(e)) = a


def test_range_domain_sweep(small_corpus):
    for name, g in small_corpus:
        count = count_intertwining_maps(g)
        seen = 0
        for phi in iter_intertwining_maps(g):
            assert range_domain_criterion(g, phi) == Verdict(True), (name, phi)
            assert membership(g, phi).in_sg == _hits_every_unit(g, phi), (name, phi)
            seen += 1
        assert seen == count, name


def test_unit_fixing_membership_equivalence(small_corpus):
    # among intertwining maps, membership in side S is the same as fixing
    # every unit
    for name, g in small_corpus:
        for phi in iter_intertwining_maps(g):
            fixes = all(phi[u] == u for u in g.units)
            assert membership(g, phi).in_sg == fixes, (name, phi)


def test_p310_fails_when_membership_misreads_a_map(monkeypatch):
    # units(2): the unit swap intertwines d and r; it is not in S, meets no
    # domain-fiber and fixes no unit
    u2 = corpus.unit_groupoid(2)
    swap = [1, 0]
    assert not membership(u2, swap).in_sg
    assert not _hits_every_unit(u2, swap)
    assert not any(swap[u] == u for u in u2.units)
    assert full_report(u2, ("P3.10",)).verdicts["P3.10"] == Verdict(True)

    def misread(g, m):
        flags = membership(g, m)
        return Membership(True, flags.in_spg) if list(m) == swap else flags

    monkeypatch.setattr(gpd.structure, "membership", misread)
    assert scalar_p310(u2) == Verdict(False, (1, 0))
    monkeypatch.setattr(gpd.structure, "_in_side", _misread_rows(gpd.structure._in_side, {tuple(swap)}))
    assert full_report(u2, ("P3.10",)).verdicts["P3.10"] == Verdict(False, (1, 0))


def _misread_rows(in_side, phis):
    """``_in_side`` with side S read the other way round on the rows in phis."""
    def misread(g, side, maps):
        flags = in_side(g, side, maps)
        return flags ^ (np.array([tuple(row) in phis for row in maps.tolist()]) & (side == "S"))
    return misread


def _p310_pool(named_corpus):
    return list(named_corpus) + [
        (h.name, h) for order in range(1, 7) for h in enumerate_groupoids(order).representatives]


def test_intertwining_chunks_match_the_oracle(named_corpus):
    # the chunked arrays hold the oracle's maps in the oracle's order, and the
    # array sweep's verdict equals the scalar loop's
    pool = _p310_pool(named_corpus)
    assert len(pool) == 48
    crossed = 0
    for name, g in pool:
        chunks = list(intertwining_maps(g))
        assert all(len(c) <= _BLOCK_CELLS for c in chunks), name
        crossed += len(chunks) > 1
        maps = [tuple(row) for c in chunks for row in c.tolist()]
        assert maps == list(iter_intertwining_maps(g)), name
        assert len(maps) == count_intertwining_maps(g), name
        assert range_domain_sweep(g) == scalar_p310(g) == Verdict(True), name
    assert crossed == 2  # pair(3) (19683 maps) and units(6) (46656)


def _misread_membership(member, phis):
    """``membership`` with side S read the other way round at the maps in phis."""
    def misread(g, m):
        flags = member(g, m)
        return Membership(not flags.in_sg, flags.in_spg) if tuple(m) in phis else flags
    return misread


def test_p310_sweep_names_the_same_misread_map_as_the_scalar_loop(named_corpus, monkeypatch):
    # two maps are read the other way round by both paths' membership tests,
    # the last in sweep order and one before it; both paths fail with the
    # earlier, which pair(3) and units(6) (census-6-0) put past a chunk boundary
    pool = dict(_p310_pool(named_corpus))
    for name in ("trivial", "C3", "transform", "pair(3)", "census-6-0"):
        g = pool[name]
        maps = list(iter_intertwining_maps(g))
        first = maps[min(_BLOCK_CELLS + 1, len(maps) // 2)]
        with monkeypatch.context() as m:
            m.setattr(gpd.structure, "membership", _misread_membership(membership, {first, maps[-1]}))
            m.setattr(gpd.structure, "_in_side", _misread_rows(gpd.structure._in_side, {first, maps[-1]}))
            assert range_domain_sweep(g) == scalar_p310(g) == Verdict(False, first), name


def test_p310_sweeps_units_7_within_a_second():
    g = corpus.unit_groupoid(7)
    assert count_intertwining_maps(g) == 7 ** 7
    start = time.perf_counter()
    verdict = full_report(g, ("P3.10",)).verdicts["P3.10"]
    assert verdict == Verdict(True)
    assert time.perf_counter() - start < 1.0


def test_antihom_classification_c2(sg_c2):
    spec = special_elements(sg_c2)
    anti, p335, p336, p337 = antihom_classification(sg_c2, spec)
    assert p335 == Verdict(True)
    assert p336 == Verdict(True, (1,))  # the injective idempotent antihomomorphisms
    assert p337 == Verdict(True, (1,))  # the right-zero antihomomorphisms
    # the swap map is an injective idempotent that is not an antihomomorphism
    injective = [len(set(row)) == 2 for row in sg_c2.maps.tolist()]
    assert tuple(i for i in spec.idempotents if injective[i] and not anti[i]) == (2,)


def test_antihom_classification_corpus(small_corpus):
    for name, g in small_corpus:
        t = enumerate_monoid(g, "S")
        _, *verdicts = antihom_classification(t, special_elements(t))
        assert [v.passed for v in verdicts] == [True] * 3, name


def test_antihom_star_equals_star_prime(small_corpus):
    # members of both sides that are antihomomorphisms square identically
    # under the two products
    from gpd.endo import star_prime
    from gpd.groupoid import morphism_classify

    for name, g in small_corpus:
        for m in iter_monoid_maps(g, "S"):
            f = gfun(g, m)
            if not f.in_spg:
                continue
            if not morphism_classify(g, g, m).antihomomorphism:
                continue
            assert star(f, f).map == star_prime(f, f).map, (name, m)


def test_member_masks_match_the_scalar_reference(small_corpus):
    # the antihomomorphism flags and the intersection, read off the maps
    # array, equal morphism_classify and membership member by member
    pool = list(small_corpus)
    for order in range(1, 6):
        pool += [(h.name, h) for h in enumerate_groupoids(order).representatives]
    for name, g in pool:
        for side in SIDES:
            t = enumerate_monoid(g, side)
            flags = antihom_classification(t, special_elements(t))[0]
            maps = t.maps.tolist()
            assert flags.tolist() == [morphism_classify(g, g, m).antihomomorphism for m in maps], \
                (name, side)
            mirror = [membership(g, m).in_spg if side == "S" else membership(g, m).in_sg
                      for m in maps]
            assert intersection_analysis(t) == tuple(np.flatnonzero(mirror)), (name, side)


def test_intersection_analysis(sg_c2, sg_pair2):
    # CLOSING: principal implies the intersection is exactly {j}
    assert len(intersection_analysis(sg_c2)) == 4 and not is_principal(sg_c2.groupoid)
    assert full_report(sg_c2.groupoid, ("CLOSING",)).verdicts["CLOSING"] == \
        Verdict(True, ("principal", False, "only_j", False))  # vacuous: not principal

    assert intersection_analysis(sg_pair2) == (j_index(sg_pair2),)
    assert full_report(sg_pair2.groupoid, ("CLOSING",)).verdicts["CLOSING"] == \
        Verdict(True, ("principal", True, "only_j", True))

    u2 = corpus.unit_groupoid(2)
    t = enumerate_monoid(u2, "S")
    assert intersection_analysis(t) == (j_index(t),) and is_principal(u2)
