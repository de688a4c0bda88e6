import dataclasses
import itertools

import numpy as np
import pytest

from gpd import corpus
from gpd.census import enumerate_groupoids
from gpd.endo import SIDES, enumerate_monoid, gfun, involution_star, iter_monoid_maps, membership, star
from gpd.errors import EmptySubset, MembershipError, NotASubgroupoid, PreconditionFailed
from gpd.groupoid import morphism_classify
from gpd.structure import (
    antihom_classification,
    bijective_translations,
    cayley_units,
    count_intertwining_maps,
    dense_submonoid,
    group_of_units,
    ideal_check,
    intersection_analysis,
    iter_intertwining_maps,
    j_ideal,
    j_index,
    left_cancellative,
    left_zero_criterion,
    minimal_ideal,
    range_domain_criterion,
    special_elements,
    subgroupoid_semigroup,
    units_crosscheck,
    validate_subgroupoid,
)

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


def test_left_zero_criterion():
    u2 = enumerate_monoid(corpus.unit_groupoid(2), "S")
    v = left_zero_criterion(corpus.unit_groupoid(2), u2)
    assert v.j_is_left_zero and v.all_maps_fix_units and v.equivalence_holds

    c2 = corpus.cyclic(2)
    t = enumerate_monoid(c2, "S")
    v = left_zero_criterion(c2, t)
    assert not v.j_is_left_zero and not v.all_maps_fix_units
    assert v.equivalence_holds
    i, u = v.witness
    assert t.maps[i, u] != u

    p2 = corpus.pair_groupoid(2)
    v = left_zero_criterion(p2, enumerate_monoid(p2, "S"))
    assert not v.j_is_left_zero and v.equivalence_holds


def test_j_ideal_minimal_c2(sg_c2):
    ideal = j_ideal(sg_c2)
    assert ideal == (1, 2)
    assert ideal_check(sg_c2, ideal).ideal and minimal_ideal(sg_c2, ideal)
    # the full monoid is an ideal but not minimal here
    whole = range(len(sg_c2))
    assert ideal_check(sg_c2, whole).ideal and not minimal_ideal(sg_c2, whole)


def test_j_ideal_minimal_everywhere(small_corpus):
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            assert minimal_ideal(t, j_ideal(t)), (name, side)


def oracle_minimal_ideal(t, subset):
    """The generated-ideal loop: an ideal T with S x S = T for every x in T."""
    sub = frozenset(int(i) for i in subset)
    verdict = ideal_check(t, sub)
    return verdict.ideal and all(
        frozenset(int(v) for v in t.op[:, t.op[x, :]].ravel()) == sub for x in sub
    )


def test_minimal_ideal_matches_loop_oracle(small_corpus):
    outcomes = set()
    for name, g in small_corpus:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            spec = special_elements(t)
            subsets = [j_ideal(t), range(len(t)), (t.identity,), spec.right_zeros,
                       intersection_analysis(g, t).indices]
            for subset in subsets:
                expect = oracle_minimal_ideal(t, subset)
                assert minimal_ideal(t, subset) == expect, (name, side, tuple(subset))
                outcomes.add(expect)
    assert outcomes == {True, False}


def test_intersection_left_ideal(sg_c2, sg_pair2):
    for t in (sg_c2, sg_pair2):
        inter = intersection_analysis(t.groupoid, t).indices
        assert ideal_check(t, inter).left_ideal


def test_ideal_check_empty(sg_c2):
    with pytest.raises(EmptySubset):
        ideal_check(sg_c2, [])


def test_group_of_units_c2(sg_c2):
    h1 = group_of_units(sg_c2.groupoid, sg_c2, bijective_translations(sg_c2))
    assert h1.indices == (0, 3)
    assert h1.verified
    assert h1.inverse == {0: 0, 3: 3}
    cross = units_crosscheck(h1, cayley_units(sg_c2))
    assert cross.agrees


def test_group_of_units_trivial_cases():
    u2 = corpus.unit_groupoid(2)
    t = enumerate_monoid(u2, "S")
    h1 = group_of_units(u2, t, bijective_translations(t))
    assert h1.indices == (t.identity,)
    assert units_crosscheck(h1, cayley_units(t)).agrees


def test_group_of_units_inverse_not_a_member(pair2):
    # the identity permutation in place of unit 6's map: its pointwise
    # inverse, built from the unchanged translation, leaves side S
    t = enumerate_monoid(pair2, "S")
    bijective = bijective_translations(t)
    assert bijective == ((3, 6, 9, 12), True)
    maps = t.maps.copy()
    maps[6] = range(pair2.size)
    h1 = group_of_units(pair2, dataclasses.replace(t, maps=maps), bijective)
    assert not h1.verified
    assert h1.witness == (6, "inverse not a member")
    assert h1.inverse == {3: 3, 9: 9, 12: 12}
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
        h1 = group_of_units(g, t, bijective_translations(t))
        assert t.identity in h1.indices, name
        assert h1.verified, name
        assert units_crosscheck(h1, cayley_units(t)).agrees, name
        # j is invertible exactly on unit groupoids
        assert (j_index(t) in h1.indices) == (len(g.units) == g.size), name


def _dense(t):
    return dense_submonoid(t, bijective_translations(t), left_cancellative(t))


def test_dense_submonoid(sg_c2, small_corpus):
    tg = _dense(sg_c2)
    assert tg.indices == (0, 3)  # equals H(1)
    for name, g in small_corpus:
        t = enumerate_monoid(g, "S")
        tg = _dense(t)
        h1 = group_of_units(g, t, bijective_translations(t))
        assert tg.indices == h1.indices, name  # finite case: dense = bijective
        assert tg.closed and tg.contains_identity, name
        assert tg.left_cancellative, name
        # the involution carries T_G onto the mirror set of side S'
        tsp = enumerate_monoid(g, "S'")
        mirror = {tuple(tsp.maps[k].tolist()) for k in _dense(tsp).indices}
        images = {involution_star(gfun(g, t.maps[i].tolist())).map for i in tg.indices}
        assert images == mirror, name


def test_dense_submonoid_cancellation_witness(c3):
    # a moved cell in unit 5's row repeats a product; the witness names the
    # first column k whose product equals the one at an earlier column j
    t = enumerate_monoid(c3, "S")
    op = t.op.copy()
    op[5, 11] = (op[5, 11] + 1) % len(t)
    tg = _dense(dataclasses.replace(t, op=op))
    assert not tg.left_cancellative
    i, j, k = tg.witness
    assert i == 5 and j < k and op[5, j] == op[5, k]
    assert len(set(op[5, :k].tolist())) == k


def test_subgroupoid_validation():
    g = corpus.disjoint_union(corpus.cyclic(2), corpus.cyclic(2))
    assert validate_subgroupoid(g, [0, 1]) == (0, 1)
    with pytest.raises(NotASubgroupoid):
        validate_subgroupoid(g, [1])  # misses the unit 0 = 1*1
    with pytest.raises(NotASubgroupoid):
        validate_subgroupoid(g, [])


def test_subgroupoid_semigroup_blocks():
    g = corpus.disjoint_union(corpus.cyclic(2), corpus.cyclic(2))
    t = enumerate_monoid(g, "S")
    rep = subgroupoid_semigroup(g, [0, 1], t)
    assert rep.closed and rep.translation_agrees
    # A = G gives the whole monoid
    rep_all = subgroupoid_semigroup(g, list(g.elements()), t)
    assert rep_all.indices == tuple(range(len(t)))
    # units of a unit groupoid: everything preserves them
    u2 = corpus.unit_groupoid(2)
    tu = enumerate_monoid(u2, "S")
    rep_u = subgroupoid_semigroup(u2, u2.units, tu)
    assert rep_u.indices == tuple(range(len(tu)))


def test_range_domain_criterion(c2):
    j = list(c2.inverse)
    v = range_domain_criterion(c2, j)
    assert v.in_sg and v.hits_every_unit and v.equivalence_holds
    r = list(c2.range_map)
    v = range_domain_criterion(c2, r)
    assert v.in_sg and v.hits_every_unit
    with pytest.raises(PreconditionFailed):
        range_domain_criterion(c2, [1, 1])  # d(phi(e)) = e != phi(r(e)) = a


def test_range_domain_sweep(small_corpus):
    for name, g in small_corpus:
        count = count_intertwining_maps(g)
        seen = 0
        for phi in iter_intertwining_maps(g):
            v = range_domain_criterion(g, phi)
            assert v.equivalence_holds, (name, phi)
            seen += 1
        assert seen == count, name


def test_unit_fixing_membership_equivalence(small_corpus):
    # among intertwining maps, membership in side S is the same as fixing
    # every unit
    for name, g in small_corpus:
        for phi in iter_intertwining_maps(g):
            v = range_domain_criterion(g, phi)
            fixes = all(phi[u] == u for u in g.units)
            assert v.in_sg == fixes, (name, phi)


def test_antihom_classification_c2(sg_c2):
    v = antihom_classification(sg_c2.groupoid, sg_c2, special_elements(sg_c2))
    assert v.injective_idempotent_antihoms == (1,)
    assert v.right_zero_antihoms == (1,)
    assert v.only_j_rule_six and v.only_j_rule_seven
    assert v.bijective_inverses_in_mirror
    # the swap map is an injective idempotent that is not an antihomomorphism
    assert v.injective_idempotent_non_antihoms == (2,)


def test_antihom_classification_corpus(small_corpus):
    for name, g in small_corpus:
        t = enumerate_monoid(g, "S")
        v = antihom_classification(g, t, special_elements(t))
        assert v.only_j_rule_six, name
        assert v.only_j_rule_seven, name
        assert v.bijective_inverses_in_mirror, name


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
            flags = antihom_classification(g, t, special_elements(t)).antihom_flags
            maps = t.maps.tolist()
            assert flags == tuple(morphism_classify(g, g, m).antihomomorphism for m in maps), \
                (name, side)
            mirror = [membership(g, m).in_spg if side == "S" else membership(g, m).in_sg
                      for m in maps]
            assert intersection_analysis(g, t).indices == tuple(np.flatnonzero(mirror)), (name, side)


def test_intersection_analysis(sg_c2, sg_pair2):
    v = intersection_analysis(sg_c2.groupoid, sg_c2)
    assert len(v.indices) == 4 and not v.equals_j_only and not v.principal
    assert v.forward_implication_holds  # vacuous: not principal

    v = intersection_analysis(sg_pair2.groupoid, sg_pair2)
    assert v.indices == (j_index(sg_pair2),)
    assert v.equals_j_only and v.principal and v.forward_implication_holds

    u2 = corpus.unit_groupoid(2)
    t = enumerate_monoid(u2, "S")
    v = intersection_analysis(u2, t)
    assert v.equals_j_only and v.principal
