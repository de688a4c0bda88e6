import itertools
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from gpd import census, corpus, endo
from gpd.census import (
    MAX_CENSUS_ORDER,
    Census,
    Isomorphism,
    _fingerprints,
    _groups,
    as_isomorphism,
    automorphisms,
    canonical_form,
    census_through,
    enumerate_groupoids,
    functoriality_audit,
    groupoid_from_canonical,
    intersection_size,
    monoid_iso_audit,
    principal_converse_search,
    transformation_embedding_audit,
)
from gpd.endo import GFun, enumerate_monoid, gfun, monoid_maps_array, star
from gpd.errors import CapExceeded, NotAnIsomorphism
from gpd.groupoid import (UNDEFINED, Groupoid, disjoint_union, make_action, make_groupoid,
                          transformation_groupoid)
from gpd.operators import Verdict
from test_endo import iter_monoid_maps

# ---------------------------------------------------------------------------
# oracle 1: blind brute force over every (product, inverse) combination with
# a standalone axiom checker, feasible for order <= 2.  Written first; the
# census must reproduce its counts.


def oracle_valid(n, prod, inv):
    for x in range(n):
        if inv[inv[x]] != x:
            return False
        if prod[x][inv[x]] < 0 or prod[inv[x]][x] < 0:
            return False
    rng = [prod[x][inv[x]] for x in range(n)]
    dom = [prod[inv[x]][x] for x in range(n)]
    for x in range(n):
        for y in range(n):
            if (prod[x][y] >= 0) != (rng[y] == dom[x]):
                return False
    for x in range(n):
        if prod[rng[x]][x] != x or prod[x][dom[x]] != x:
            return False
        for y in range(n):
            if prod[x][y] >= 0 and prod[inv[x]][prod[x][y]] != y:
                return False
            if prod[y][x] >= 0 and prod[prod[y][x]][inv[x]] != y:
                return False
    for x in range(n):
        for y in range(n):
            if prod[x][y] < 0:
                continue
            for z in range(n):
                if prod[y][z] < 0:
                    continue
                if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
                    return False
    return set(rng) == set(dom)


def oracle_brute_census(n):
    structures = []
    cells = [(i, j) for i in range(n) for j in range(n)]
    for inv in itertools.product(range(n), repeat=n):
        if any(inv[inv[x]] != x for x in range(n)):
            continue
        for values in itertools.product(range(-1, n), repeat=n * n):
            prod = [[values[i * n + j] for j in range(n)] for i in range(n)]
            if oracle_valid(n, prod, inv):
                structures.append((tuple(map(tuple, prod)), tuple(inv)))
    # dedup by brute-force relabeling
    classes = []
    for prod, inv in structures:
        found = False
        for cls in classes:
            if _oracle_iso(n, (prod, inv), cls):
                found = True
                break
        if not found:
            classes.append((prod, inv))
    return len(structures), len(classes)


def _oracle_iso(n, a, b):
    pa, ia = a
    pb, ib = b
    for sigma in itertools.permutations(range(n)):
        if any(sigma[ia[x]] != ib[sigma[x]] for x in range(n)):
            continue
        ok = True
        for x in range(n):
            for y in range(n):
                v = pa[x][y]
                w = pb[sigma[x]][sigma[y]]
                if (v < 0) != (w < 0) or (v >= 0 and sigma[v] != w):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_iso(g: Groupoid, h: Groupoid) -> bool:
    if g.size != h.size:
        return False
    return _oracle_iso(g.size, (g.product, g.inverse), (h.product, h.inverse))


# ---------------------------------------------------------------------------
# oracle 2: constructive.  Every finite groupoid splits into connected
# components, and a component with k units and isotropy group H is the
# product of the pair groupoid on k units with H.  Groups up to order 5 are
# known (C1..C5 plus the Klein group), so the full census at order <= 5 can
# be generated independently of the search.

GROUPS_BY_ORDER = {
    1: [corpus.trivial()],
    2: [corpus.cyclic(2)],
    3: [corpus.cyclic(3)],
    4: [corpus.cyclic(4), corpus.klein_four()],
    5: [corpus.cyclic(5)],
}


def component_groupoid(k: int, h: Groupoid) -> Groupoid:
    """pair(k) x H: elements (i, j, a), product (i,j,a)(j,l,b) = (i,l,ab)."""
    m = h.size
    size = k * k * m

    def eid(i, j, a):
        return (i * k + j) * m + a

    prod = [[-1] * size for _ in range(size)]
    inv = [0] * size
    for i in range(k):
        for j in range(k):
            for a in range(m):
                inv[eid(i, j, a)] = eid(j, i, h.inverse[a])
                for l in range(k):
                    for b in range(m):
                        prod[eid(i, j, a)][eid(j, l, b)] = eid(i, l, h.mul(a, b))
    return make_groupoid(size, prod, inv, f"comp({k},{h.name})")


def component_types(size: int):
    out = []
    for k in range(1, size + 1):
        if k * k > size or size % (k * k):
            continue
        for h in GROUPS_BY_ORDER.get(size // (k * k), []):
            out.append((k, h))
    return out


def oracle_constructive_census(n: int) -> list[Groupoid]:
    """All groupoids of order n as unions of components, one per iso class."""
    type_list = []
    for size in range(1, n + 1):
        for k, h in component_types(size):
            type_list.append((size, k, h))

    results = []

    def rec(remaining, start, chosen):
        if remaining == 0:
            g = chosen[0]
            for extra in chosen[1:]:
                g = disjoint_union(g, extra)
            results.append(g)
            return
        for idx in range(start, len(type_list)):
            size, k, h = type_list[idx]
            if size <= remaining:
                rec(remaining - size, idx, chosen + [component_groupoid(k, h)])

    rec(n, 0, [])
    return results


# ---------------------------------------------------------------------------
# oracle 4: the least key over every permutation inside every fingerprint
# block, and automorphisms among every class-preserving bijection.  The
# census narrows both searches to relabelings that commute with the inverse.


def _oracle_classes(g):
    classes = {}
    for x, fp in enumerate(_fingerprints(g)):
        classes.setdefault(fp, []).append(x)
    return classes


def _oracle_key(g, sigma):
    n = g.size
    inv = [0] * n
    for x in range(n):
        inv[sigma[x]] = sigma[g.inverse[x]]
    flat = [-1] * (n * n)
    for x in range(n):
        for y in range(n):
            v = g.product[x][y]
            if v >= 0:
                flat[sigma[x] * n + sigma[y]] = sigma[v]
    return tuple(inv) + tuple(flat)


def oracle_canonical_form(g):
    classes = _oracle_classes(g)
    ordered = [classes[key] for key in sorted(classes)]
    starts = list(itertools.accumulate([0] + [len(grp) for grp in ordered]))
    best = None
    for arrangement in itertools.product(*[itertools.permutations(grp) for grp in ordered]):
        sigma = [0] * g.size
        for start, perm in zip(starts, arrangement):
            for offset, old in enumerate(perm):
                sigma[old] = start + offset
        key = _oracle_key(g, sigma)
        if best is None or key < best:
            best = key
    return best


def _class_preserving_perms(g):
    """Bijections sending each fingerprint class onto itself; every
    automorphism is one of these."""
    groups = list(_oracle_classes(g).values())
    for arrangement in itertools.product(*[itertools.permutations(grp) for grp in groups]):
        sigma = [0] * g.size
        for grp, perm in zip(groups, arrangement):
            for old, new in zip(grp, perm):
                sigma[old] = new
        yield tuple(sigma)


def oracle_automorphisms(g):
    base = _oracle_key(g, range(g.size))
    return sorted(s for s in _class_preserving_perms(g) if _oracle_key(g, s) == base)


# oracle 9: isomorphism by canonical form, and automorphisms by relabelling.
# The census finds both by generator images instead.


def isomorphic(g: Groupoid, h: Groupoid) -> bool:
    if g.size != h.size or sorted(_fingerprints(g)) != sorted(_fingerprints(h)):
        return False
    return canonical_form(g) == canonical_form(h)


def _block_orders(g: Groupoid, grp: list[int]):
    """The orders of one fingerprint class that can carry a least key: all
    of them for a class of self-inverse elements, otherwise every order of
    its inverse pairs with each pair in either orientation.

    Every isomorphism respects the classes, so the least key over all
    permutations inside the classes' blocks of ids is equal exactly for
    isomorphic groupoids.  A key starts with the relabelled inverse array.
    A class holds only self-inverse elements or none, and with x it holds
    x^-1 (|r-fiber(u)| = |d-fiber(u)|).  A self-inverse block always reads
    (s, s+1, ...).  On a block s..s+2m-1 without fixed points the segment
    is at best (s+1, s, s+3, s+2, ...), reached exactly when every inverse
    pair sits on adjacent ids.  So these m! 2^m orders, instead of (2m)!,
    give the same least key.
    """
    inv = g.inverse
    if inv[grp[0]] == grp[0]:
        yield from itertools.permutations(grp)
        return
    pairs = [(x, inv[x]) for x in grp if x < inv[x]]
    for order in itertools.permutations(pairs):
        for oriented in itertools.product(*[(p, p[::-1]) for p in order]):
            yield tuple(itertools.chain.from_iterable(oriented))


def relabelling_automorphisms(g: Groupoid) -> list[tuple[int, ...]]:
    """All self-isomorphisms, in lexicographic order of their map arrays.

    An automorphism keeps each fingerprint class and commutes with the
    inverse, so it maps the first of a class's ``_block_orders`` onto one
    of them, position by position; each such map is tried once.
    """
    cells = census._defined_cells(g)
    base = census._relabel_key(g, range(g.size), cells)
    per_class = []
    for grp in census._classes(g):
        orders = list(_block_orders(g, grp))
        per_class.append([(orders[0], order) for order in orders])
    out = []
    for choice in itertools.product(*per_class):
        sigma = [0] * g.size
        for first, order in choice:
            for old, new in zip(first, order):
                sigma[old] = new
        if census._relabel_key(g, sigma, cells) == base:
            out.append(tuple(sigma))
    return sorted(out)


@pytest.fixture(scope="module")
def census7():
    return enumerate_groupoids(7, max_order=7)


# ---------------------------------------------------------------------------
# the tests


def test_brute_census_counts_orders_1_2():
    total1, classes1 = oracle_brute_census(1)
    assert classes1 == 1
    total2, classes2 = oracle_brute_census(2)
    assert classes2 == 2
    c1 = enumerate_groupoids(1)
    c2 = enumerate_groupoids(2)
    assert c1.count == classes1 and c1.total_found == total1
    assert c2.count == classes2 and c2.total_found == total2


def test_canonical_iso_agrees_with_brute_force():
    pool = [g for _, g in corpus.standard_corpus() if g.size <= 4]
    pool += list(enumerate_groupoids(3).representatives)
    for g, h in itertools.combinations(pool, 2):
        assert isomorphic(g, h) == brute_iso(g, h), (g.name, h.name)
    for g in pool:
        relabeled = _shift_relabel(g)
        assert isomorphic(g, relabeled) and brute_iso(g, relabeled)


def _shift_relabel(g: Groupoid) -> Groupoid:
    return _relabel(g, [(x + 1) % g.size for x in range(g.size)], g.name + "-shift")


def _relabel(g: Groupoid, sigma, name: str = "") -> Groupoid:
    """The copy of g in which element x is called sigma[x]."""
    n = g.size
    prod = [[-1] * n for _ in range(n)]
    inv = [0] * n
    for x in range(n):
        inv[sigma[x]] = sigma[g.inverse[x]]
        for y in range(n):
            v = g.product[x][y]
            if v >= 0:
                prod[sigma[x]][sigma[y]] = sigma[v]
    return make_groupoid(n, prod, inv, name)


@pytest.mark.parametrize("order,count", [(1, 1), (2, 2), (3, 3), (4, 7), (5, 9)])
def test_census_matches_constructive_oracle(order, count):
    reps = enumerate_groupoids(order).representatives
    oracle = oracle_constructive_census(order)
    assert len(oracle) == count
    assert len(reps) == count
    # 1:1 matching between oracle classes and search representatives
    used = set()
    for g in oracle:
        matches = [i for i, rep in enumerate(reps) if isomorphic(g, rep)]
        assert len(matches) == 1, g.name
        assert matches[0] not in used
        used.add(matches[0])


# oracle 8: the product-table backtracker.  ``_complete_products`` fills
# every product table consistent with an inverse map and a range map, by
# cancellation and the forced cells of inverses, with a final
# associativity scan; ``_one_unit_tables`` runs it with one unit.  The
# census builds its groups by cyclic extension instead (``_groups``).


def _complete_products(n: int, iota, rng):
    """Backtrack over the product table consistent with (iota, rng).

    dom is rng . iota; cells exist exactly where rng[y] == dom[x].  Each
    assignment x y = z forces iota[x] z = y, z iota[y] = x and
    iota[y] iota[x] = iota[z]; rows and columns stay duplicate-free by
    cancellation.  Completed tables still get a final associativity scan.
    """
    dom = tuple(rng[iota[x]] for x in range(n))
    fibers: dict[tuple[int, int], list[int]] = {}
    for z in range(n):
        fibers.setdefault((rng[z], dom[z]), []).append(z)

    table = [[UNDEFINED] * n for _ in range(n)]
    row_used = [set() for _ in range(n)]
    col_used = [set() for _ in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n) if rng[y] == dom[x]]

    def assign(x, y, z, trail):
        stack = [(x, y, z)]
        while stack:
            a, b, c = stack.pop()
            cur = table[a][b]
            if cur != UNDEFINED:
                if cur != c:
                    return False
                continue
            if rng[c] != rng[a] or dom[c] != dom[b]:
                return False
            if c in row_used[a] or c in col_used[b]:
                return False
            table[a][b] = c
            row_used[a].add(c)
            col_used[b].add(c)
            trail.append((a, b, c))
            stack.append((iota[a], c, b))
            stack.append((c, iota[b], a))
            stack.append((iota[b], iota[a], iota[c]))
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            a, b, c = trail.pop()
            table[a][b] = UNDEFINED
            row_used[a].discard(c)
            col_used[b].discard(c)

    trail: list[tuple[int, int, int]] = []
    for x in range(n):
        if not assign(rng[x], x, x, trail):
            return
        if not assign(x, dom[x], x, trail):
            return
        if not assign(x, iota[x], rng[x], trail):
            return
        if not assign(iota[x], x, dom[x], trail):
            return

    def associative() -> bool:
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                if xy == UNDEFINED:
                    continue
                for z in range(n):
                    yz = table[y][z]
                    if yz == UNDEFINED:
                        continue
                    if table[xy][z] != table[x][yz]:
                        return False
        return True

    def dfs(pos):
        while pos < len(cells) and table[cells[pos][0]][cells[pos][1]] != UNDEFINED:
            pos += 1
        if pos == len(cells):
            if associative():
                yield [row[:] for row in table]
            return
        x, y = cells[pos]
        for z in fibers.get((rng[x], dom[y]), ()):
            if z in row_used[x] or z in col_used[y]:
                continue
            mark = len(trail)
            if assign(x, y, z, trail):
                yield from dfs(pos + 1)
            undo(trail, mark)

    yield from dfs(0)


def _one_unit_tables(m: int):
    """The labelled group tables the census searches: unit 0, and one
    inverse map per number t of self-inverse non-units.  Any two
    involutions of {1..m-1} with t fixed points are conjugate by a
    relabelling that fixes 0, so these meet every group of order m."""
    for t in range((m - 1) % 2, m, 2):
        iota = tuple(range(t + 1)) + tuple(x + 1 if (x - t) % 2 else x - 1
                                           for x in range(t + 1, m))
        for table in _complete_products(m, iota, (0,) * m):
            yield make_groupoid(m, table, iota)


# oracle 5: the backtracking census.  Every involution and range map with
# unit set {0..u-1}, products completed by ``_complete_products`` and
# deduplicated by canonical form; a structure with another unit set of size
# u is a relabelled copy of one of these, hence the weight comb(n, u).  The
# census builds one table per multiset of components instead.


def _involutions(n: int):
    """All self-inverse maps on n points, in lexicographic order."""
    cur = [None] * n

    def rec(x):
        if x == n:
            yield tuple(cur)
            return
        if cur[x] is not None:
            yield from rec(x + 1)
            return
        cur[x] = x
        yield from rec(x + 1)
        cur[x] = None
        for y in range(x + 1, n):
            if cur[y] is None:
                cur[x], cur[y] = y, x
                yield from rec(x + 1)
                cur[x] = cur[y] = None

    yield from rec(0)


def _skeletons(n: int):
    """(weight, iota, rng) with unit set {0..u-1}: both fix the units, iota
    is any involution on the rest and rng sends the rest into the units."""
    for u in range(1, n + 1):
        units = tuple(range(u))
        for tail in _involutions(n - u):
            iota = units + tuple(u + t for t in tail)
            for choice in itertools.product(units, repeat=n - u):
                yield math.comb(n, u), iota, units + choice


def oracle_backtrack_census(order):
    seen = set()
    total = 0
    for weight, iota, rng in _skeletons(order):
        for table in _complete_products(order, iota, rng):
            seen.add(canonical_form(make_groupoid(order, table, iota)))
            total += weight
    reps = tuple(groupoid_from_canonical(key, order, f"census-{order}-{i}")
                 for i, key in enumerate(sorted(seen)))
    return Census(order=order, representatives=reps, total_found=total)


def test_census_matches_backtracking_oracle(census7):
    # the same classes, each once: the representatives' canonical forms are
    # pairwise distinct and are the oracle's keys
    totals = {1: 1, 2: 3, 3: 10, 4: 65, 5: 341, 6: 2761, 7: 20448}
    for order, total in totals.items():
        census = census7 if order == 7 else enumerate_groupoids(order)
        oracle = oracle_backtrack_census(order)
        assert census.total_found == oracle.total_found == total, order
        keys = [canonical_form(g) for g in census.representatives]
        assert len(set(keys)) == len(keys), order
        assert sorted(keys) == [canonical_form(g) for g in oracle.representatives], order
        assert [g.name for g in census.representatives] == [
            f"census-{order}-{i}" for i in range(len(keys))], order


def test_census_takes_no_canonical_form_and_validates_each_class_once(monkeypatch):
    def fail(*args):
        raise AssertionError("canonical form on the census path")

    validated = Counter()
    real = census.make_groupoid

    def counted(size, product, inverse, name=""):
        validated[name] += 1
        return real(size, product, inverse, name)

    monkeypatch.setattr(census, "canonical_form", fail)
    monkeypatch.setattr(census, "groupoid_from_canonical", fail)
    monkeypatch.setattr(census, "make_groupoid", counted)
    names = [g.name for c in census_through(10, 10) for g in c.representatives]
    assert len(names) == 249
    assert {name: validated[name] for name in names} == dict.fromkeys(names, 1)


def test_census_counts_through_order_15():
    # classes through 12 and the labelled totals are those of the canonical-
    # form census; 275, 413 and 562 were counted by it at orders 13 to 15
    counts = [1, 2, 3, 7, 9, 16, 22, 42, 57, 90, 124, 204, 275, 413, 562]
    totals = [1, 3, 10, 65, 341, 2761, 20448, 223065, 2178505, 26540311,
              309857406, 4655607793]
    censuses = census_through(15, 15)
    assert [c.count for c in censuses] == counts
    assert [c.total_found for c in censuses[:12]] == totals
    for c in censuses[7:10]:  # orders 8 to 10, past the backtracking oracle
        keys = {canonical_form(g) for g in c.representatives}
        assert len(keys) == c.count, c.order


def test_component_types_count_automorphisms_without_listing_them(monkeypatch):
    # |Aut(H)| was len(automorphisms(H)), a sorted list of every map (20160
    # for C2^4); the tower is built first, since _groups lists them on purpose
    tower = group_tower(12)
    expected = [(m * k * k, h, k, len(automorphisms(h)) * math.factorial(k) * m ** (k - 1))
                for m in range(1, 13) for h in tower[m] for k in range(1, math.isqrt(12 // m) + 1)]

    def listed(g):
        raise AssertionError("_component_types listed the automorphisms")

    monkeypatch.setattr(census, "_groups", lambda m, _: tower[m])
    monkeypatch.setattr(census, "automorphisms", listed)
    assert census._component_types(12) == expected


def group_tower(top):
    """``_groups`` of every order up to top, built smallest order first."""
    tower = {}
    for m in range(1, top + 1):
        tower[m] = _groups(m, tower)
    return tower


def test_groups_match_the_unrestricted_one_unit_search():
    tower = group_tower(7)
    for m, count in enumerate([1, 1, 1, 2, 1, 2, 1], start=1):
        groups = tower[m]
        assert len(groups) == count, m
        keys = {canonical_form(make_groupoid(m, table, iota))
                for iota in _involutions(m) if iota[0] == 0
                for table in _complete_products(m, iota, (0,) * m)}
        found = [canonical_form(h) for h in groups]  # the same classes, each once
        assert len(set(found)) == len(found) and sorted(found) == sorted(keys), m


def test_groups_match_the_backtracker_through_order_10():
    # the same classes, each once
    tower = group_tower(10)
    for m in range(1, 11):
        keys = {canonical_form(g) for g in _one_unit_tables(m)}
        found = [canonical_form(h) for h in tower[m]]
        assert len(set(found)) == len(found), m
        assert sorted(found) == sorted(keys), m


def test_group_counts_are_a000001_through_order_15():
    # Order 12 is the first with a non-abelian N (S3, of index 2).  Below
    # it conjugation by z and by z^-1 agree on every N, so the key
    # comparison through order 10 cannot tell them apart.
    counts = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1]
    assert [len(groups) for groups in group_tower(15).values()] == counts


def test_group_counts_are_a000001_from_order_16_through_31():
    counts = [14, 1, 5, 1, 5, 2, 2, 1, 15, 2, 2, 5, 4, 1, 4, 1]
    tower = group_tower(31)
    assert [len(tower[m]) for m in range(16, 32)] == counts


def test_automorphisms_match_the_relabelling_oracle():
    tower = group_tower(12)
    pool = [h for m in range(1, 13) for h in tower[m]]
    pool += [g for c in census_through(7, 7) for g in c.representatives]
    assert len(pool) == 24 + 60
    for g in pool:
        assert automorphisms(g) == relabelling_automorphisms(g), (g.name, g.product)


def test_automorphisms_of_c2_to_the_4_are_gl_4_2():
    # 20160 = |GL(4, 2)|; the relabelling search tries 15! maps here
    c2_4 = [h for h in group_tower(16)[16] if h.inverse == tuple(range(16))]
    assert len(c2_4) == 1 and len(automorphisms(c2_4[0])) == 20160


def test_the_group_tower_is_built_once_per_census(monkeypatch):
    # each order's groups are built once, from the smaller orders' groups
    # that the same census already holds
    calls = Counter()
    real = census._groups

    def counted(m, tower):
        calls[m] += 1
        return real(m, tower)

    monkeypatch.setattr(census, "_groups", counted)
    assert enumerate_groupoids(10, max_order=10).count == 90
    assert calls == Counter(range(1, 11))


def test_groups_refuse_order_60_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("work started")

    for name in ("automorphisms", "_isomorphisms", "_group_invariant", "canonical_form",
                 "make_groupoid"):
        monkeypatch.setattr(census, name, fail)
    with pytest.raises(CapExceeded) as err:
        census._groups(60, {})
    assert err.value.predicted == 60


# oracle 3: the unrestricted search.  Every involution, every unit set
# inside its fixed points and every range map into that unit set, each
# labelled structure built once.  The census builds only unit sets
# {0..u-1} and counts the rest by a binomial weight; both must meet the
# same classes and the same number of labelled structures.


def oracle_unrestricted_census(n):
    keys = set()
    total = 0
    for iota in _involutions(n):
        fixed = [x for x in range(n) if iota[x] == x]
        for k in range(1, len(fixed) + 1):
            for units in itertools.combinations(fixed, k):
                free = [x for x in range(n) if x not in units]
                for choice in itertools.product(units, repeat=len(free)):
                    rng = list(range(n))
                    for x, v in zip(free, choice):
                        rng[x] = v
                    for table in _complete_products(n, iota, rng):
                        keys.add(canonical_form(make_groupoid(n, table, iota)))
                        total += 1
    return keys, total


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_census_matches_unrestricted_search(order):
    census = enumerate_groupoids(order)
    keys, total = oracle_unrestricted_census(order)
    assert {canonical_form(rep) for rep in census.representatives} == keys
    assert census.total_found == total


def test_canonical_form_matches_full_block_search(census7):
    tables = 0
    for order in range(1, 7):
        for _, iota, rng in _skeletons(order):
            for table in _complete_products(order, iota, rng):
                g = make_groupoid(order, table, iota)
                assert canonical_form(g) == oracle_canonical_form(g), (order, table)
                tables += 1
    assert tables == 279
    assert len(census7.representatives) == 22
    for rep in census7.representatives:
        g = _shift_relabel(rep)
        assert canonical_form(g) == oracle_canonical_form(g) == canonical_form(rep), rep.name


# oracle 7: the exhaustive minimum over every block relabeling, each
# fingerprint class in each of its ``_block_orders``.  ``canonical_form``
# searches the same relabelings by branch and bound and must find the same
# least key.


def _block_relabelings(g: Groupoid):
    for arrangement in itertools.product(*[_block_orders(g, grp)
                                           for grp in census._classes(g)]):
        sigma = [0] * g.size
        for new, old in enumerate(itertools.chain.from_iterable(arrangement)):
            sigma[old] = new
        yield sigma


def oracle_block_minimum(g: Groupoid) -> tuple:
    cells = census._defined_cells(g)
    return tuple(min(census._relabel_key(g, sigma, cells) for sigma in _block_relabelings(g)))


def _seeded_relabel(g: Groupoid, seed: int) -> Groupoid:
    sigma = list(range(g.size))
    random.Random(seed).shuffle(sigma)
    return _relabel(g, sigma, g.name + "-relabelled")


def test_canonical_form_matches_the_block_minimum_through_order_8():
    classes = [rep for c in census.census_through(8, 8) for rep in c.representatives]
    assert len(classes) == 102
    for seed, rep in enumerate(classes):
        g = _seeded_relabel(rep, seed)
        assert canonical_form(g) == oracle_block_minimum(g) == canonical_form(rep), rep.name
    tables = [g for m in range(1, 9) for g in _one_unit_tables(m)]
    assert len(tables) == 101
    for g in tables:
        assert canonical_form(g) == oracle_block_minimum(g), g.product


def _keys_evaluated(monkeypatch, g: Groupoid) -> int:
    """Complete keys ``canonical_form`` builds for g, one per leaf of its search."""
    calls = Counter()
    real = census._relabel_key

    def counted(*args):
        calls["keys"] += 1
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(census, "_relabel_key", counted)
        canonical_form(g)
    return calls["keys"]


def test_twins_leave_the_unit_groupoid_one_key(monkeypatch):
    # every transposition of units(8) is an automorphism: one branch per id
    assert _keys_evaluated(monkeypatch, corpus.unit_groupoid(8)) == 1


def _search_nodes(g: Groupoid) -> int:
    """Calls of ``canonical_form``'s search, one per node of its tree."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "search" \
                and frame.f_code.co_filename == census.__file__:
            calls["nodes"] += 1

    sys.setprofile(profile)
    try:
        canonical_form(g)
    finally:
        sys.setprofile(None)
    return calls["nodes"]


def test_the_bound_prunes_c2_cubed(monkeypatch):
    # C2^3 has no twins (no transposition of its seven involutions is an
    # automorphism) and 168 automorphisms.  Its 7! = 5040 block relabelings
    # make a search tree of 18740 nodes; the bound leaves about 1500, and
    # only leaves whose row 0 is no larger than the best key's build a key.
    tables = [g for g in _one_unit_tables(8) if g.inverse == tuple(range(8))]
    assert len(tables) == 30 and len(automorphisms(tables[0])) == 168
    for g in tables:
        assert census._twins(g, census._classes(g), census._defined_cells(g)) == list(range(8))
        assert 168 <= _keys_evaluated(monkeypatch, g) <= 5040 // 10
        assert _search_nodes(g) <= 5040 // 2


def test_twin_pruning_keeps_the_key_under_relabelling():
    g = disjoint_union(corpus.cyclic(2), corpus.unit_groupoid(5))
    key = canonical_form(g)
    for seed in range(5):
        h = _seeded_relabel(g, seed)
        assert canonical_form(h) == key == oracle_block_minimum(h), seed


def test_automorphisms_match_class_preserving_search(census7):
    pool = [g for _, g in corpus.standard_corpus() if g.size <= 9]
    for order in range(1, 7):
        pool += list(enumerate_groupoids(order).representatives)
    pool += list(census7.representatives)
    assert len(pool) == 70
    for g in pool:
        assert automorphisms(g) == oracle_automorphisms(g), g.name


def test_census_orbit_stabilizer(census7):
    # A class with automorphism group A has n!/|A| labelled members.
    expected = {1: 1, 2: 3, 3: 10, 4: 65, 5: 341, 6: 2761, 7: 20448}
    for order, total in expected.items():
        census = census7 if order == 7 else enumerate_groupoids(order)
        orbits = sum(math.factorial(order) // len(automorphisms(rep))
                     for rep in census.representatives)
        assert orbits == census.total_found == total, order


def test_census_order3_membership():
    reps = enumerate_groupoids(3).representatives
    known = [
        corpus.cyclic(3),
        corpus.unit_groupoid(3),
        disjoint_union(corpus.trivial(), corpus.cyclic(2)),
    ]
    for g in known:
        assert any(isomorphic(g, rep) for rep in reps), g.name


def test_census_determinism_and_validity():
    a = enumerate_groupoids(4)
    b = enumerate_groupoids(4)
    assert [r.product for r in a.representatives] == [r.product for r in b.representatives]
    assert all(isinstance(r, Groupoid) for r in a.representatives)
    # representatives pairwise non-isomorphic by brute force
    for g, h in itertools.combinations(a.representatives, 2):
        assert not brute_iso(g, h)


def test_census_cap():
    assert MAX_CENSUS_ORDER == 20
    with pytest.raises(CapExceeded):
        enumerate_groupoids(MAX_CENSUS_ORDER + 1)


# ---------------------------------------------------------------------------
# isomorphism transport


def test_automorphism_counts(c2, c3, pair2):
    assert automorphisms(c2) == [(0, 1)]
    assert automorphisms(c3) == [(0, 1, 2), (0, 2, 1)]  # identity and inversion
    assert len(automorphisms(pair2)) == 2  # unit swap
    assert len(automorphisms(corpus.unit_groupoid(2))) == 2


def test_as_isomorphism_rejects(c2, pair2):
    with pytest.raises(NotAnIsomorphism):
        as_isomorphism(c2, c2, [0, 0])
    with pytest.raises(NotAnIsomorphism):
        as_isomorphism(c2, pair2, [0, 1])


def test_identity_transport_is_identity(c3):
    iso = as_isomorphism(c3, c3, [0, 1, 2])
    for side in ("S", "S'"):
        t = enumerate_monoid(c3, side)
        assert census.transport(t, t, iso.carry).tolist() == list(range(len(t)))


# oracle 6: transport from the definition, one position at a time, and the
# product by scalar star over all pairs, on side S.


def scalar_transport(iso: Isomorphism, m) -> GFun:
    return gfun(iso.dst, [iso.map[m[iso.inverse_map[x]]] for x in iso.dst.elements()])


def scalar_iso_audit(iso: Isomorphism) -> Verdict:
    src = [gfun(iso.src, m) for m in iter_monoid_maps(iso.src, "S")]
    dst = {m: k for k, m in enumerate(iter_monoid_maps(iso.dst, "S"))}
    images = [scalar_transport(iso, f.map) for f in src]
    for i, f in enumerate(images):
        if not f.in_sg:
            return Verdict(False, ("members", "S", i))
    hits = Counter(f.map for f in images)
    for m, k in dst.items():
        if hits[m] != 1:
            return Verdict(False, ("bijective", "S", k))
    e = src.index(gfun(iso.src, iso.src.range_map))
    if images[e].map != iso.dst.range_map:
        return Verdict(False, ("identity", "S", e))
    for i, j in itertools.product(range(len(src)), repeat=2):
        if scalar_transport(iso, star(src[i], src[j]).map) != star(images[i], images[j]):
            return Verdict(False, ("products", "S", i, j))
    return Verdict(True)


def test_array_audit_matches_the_scalar_oracle(c2, c3, pair2):
    # each swap of two elements is a bijection but no isomorphism, and fails on side S
    for g, swap in ((c2, (1, 0)), (c3, (1, 0, 2)), (pair2, (1, 0, 2, 3)), (pair2, (0, 1, 3, 2))):
        autos = automorphisms(g)
        isos = [as_isomorphism(g, g, sigma) for sigma in autos] + [Isomorphism(g, g, swap, swap)]
        for iso in isos:
            expected = scalar_iso_audit(iso)
            assert expected.passed is (iso.map in autos)
            assert monoid_iso_audit(iso) == expected, (g.name, iso.map)


def test_monoid_iso_audit_automorphisms(small_corpus):
    # both sides of the table-sized corpus members and the census through order 4
    pool = [g for _, g in small_corpus]
    pool += [g for order in range(1, 5) for g in enumerate_groupoids(order).representatives]
    for g in pool:
        for sigma in automorphisms(g):
            assert monoid_iso_audit(as_isomorphism(g, g, sigma)) == Verdict(True), (g.name, sigma)


def test_monoid_iso_audit_relabeling(c2):
    relabeled = _shift_relabel(c2)
    iso = as_isomorphism(c2, relabeled, [1, 0])
    assert monoid_iso_audit(iso) == scalar_iso_audit(iso) == Verdict(True)


def test_functoriality(c3, pair2):
    for g in (c3, pair2):
        autos = automorphisms(g)
        for s1 in autos:
            i1 = as_isomorphism(g, g, s1)
            for s2 in autos:
                i2 = as_isomorphism(g, g, s2)
                assert functoriality_audit(i1, i2) == Verdict(True)
        # an automorphism composed with its inverse transports trivially
        for s1 in autos:
            i1 = as_isomorphism(g, g, s1)
            i2 = as_isomorphism(g, g, i1.inverse_map)
            assert functoriality_audit(i1, i2) == Verdict(True)
            for m in iter_monoid_maps(g, "S"):
                assert scalar_transport(i2, scalar_transport(i1, m).map).map == m


def _swap_two_entries(monkeypatch) -> list:
    """Make census.transport swap the last two non-identity entries of pi;
    returns the list of every pi it hands out."""
    real, handed = census.transport, []

    def swapped(ts, th, image):
        pi = real(ts, th, image).copy()
        a, b = [i for i in range(len(pi)) if i != ts.identity][-2:]
        pi[[a, b]] = pi[[b, a]]
        handed.append(pi)
        return pi

    monkeypatch.setattr(census, "transport", swapped)
    return handed


def test_audits_catch_a_swapped_transport(c3, monkeypatch):
    iso = as_isomorphism(c3, c3, [0, 2, 1])
    handed = _swap_two_entries(monkeypatch)
    verdict = monoid_iso_audit(iso)
    pi = handed[0]
    assert verdict.passed is False and verdict.witness[:2] == ("products", "S")
    # the witness replays through scalar star: pi breaks the law at (i, j)
    # while transport from the definition keeps it
    i, j = verdict.witness[2:]
    ts = enumerate_monoid(c3, "S")
    f, h = (gfun(c3, ts.maps[k].tolist()) for k in (i, j))
    fh = star(f, h)
    member = lambda k: gfun(c3, ts.maps[pi[k]].tolist())
    assert member(int(ts.rank([fh.map])[0])) != star(member(i), member(j))
    carried = [scalar_transport(iso, m) for m in (fh.map, f.map, h.map)]
    assert carried[0] == star(carried[1], carried[2])

    verdict = functoriality_audit(iso, iso)
    assert verdict.passed is False and verdict.witness[:2] == ("functoriality", "S")
    m = tuple(ts.maps[verdict.witness[2]].tolist())
    # transport along the composite, the identity, fixes m
    assert scalar_transport(iso, scalar_transport(iso, m).map).map == m


# ---------------------------------------------------------------------------
# the embedding audit


def test_embedding_audit_swap_action():
    assert transformation_embedding_audit(corpus.swap_action()) == Verdict(True)


def test_embedding_audit_catches_a_swapped_transport(monkeypatch):
    action = corpus.swap_action()
    t, g = action.group, transformation_groupoid(action)
    tt, tg = enumerate_monoid(t, "S"), enumerate_monoid(g, "S")
    handed = _swap_two_entries(monkeypatch)
    verdict = transformation_embedding_audit(action)
    assert verdict.passed is False and verdict.witness[:2] == ("products", "S")
    i, j = verdict.witness[2:]
    (pi,) = handed
    member = lambda k: gfun(g, tg.maps[pi[k]].tolist())
    phi = star(*(gfun(t, tt.maps[k].tolist()) for k in (i, j)))
    assert member(int(tt.rank([phi.map])[0])) != star(member(i), member(j))


def test_embedding_constant_identity_is_range_map():
    action = corpus.swap_action()
    g = transformation_groupoid(action)
    t = action.group
    e = t.units[0]
    # f attached to the constant-identity map is the range map, idempotent
    m = [0] * g.size
    for u in range(action.space):
        for x in range(t.size):
            m[u * t.size + x] = action.act[u][t.inverse[e]] * t.size + e
    f = gfun(g, m)
    assert f.map == tuple(g.range_map)
    assert star(f, f).map == f.map


def test_embedding_cap(monkeypatch):
    # C6 has 6^6 = 46656 self-maps, so its table would need 46656^2 products
    action = make_action(corpus.cyclic(6), 1, [[0] * 6])

    def no_work(*args):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(endo, "monoid_maps_array", no_work)
    monkeypatch.setattr(census, "transformation_groupoid", no_work)
    with pytest.raises(CapExceeded) as err:
        transformation_embedding_audit(action)
    assert err.value.predicted == 46656 ** 2


# ---------------------------------------------------------------------------
# the probe


def test_probe_order_2():
    report = principal_converse_search(2)
    assert report.forward_holds
    assert report.candidates == ()
    by_order = {}
    for row in report.rows:
        by_order.setdefault(row.order, []).append(row)
    assert len(by_order[1]) == 1 and len(by_order[2]) == 2
    c2_rows = [r for r in by_order[2] if not r.principal]
    assert len(c2_rows) == 1
    assert c2_rows[0].intersection_size == 4  # all of C(C2, C2)
    assert not c2_rows[0].candidate


def test_probe_order_3():
    report = principal_converse_search(3)
    assert report.forward_holds and not report.candidates
    assert len(report.rows) == 1 + 2 + 3


def oracle_intersection_size(g):
    """Enumerate side S and count the members that also lie on side S'."""
    maps = monoid_maps_array(g, "S")
    flags = (np.asarray(g.range_map)[maps] == np.asarray(g.domain_map)).all(axis=1)  # r(f(x)) = d(x)
    size = int(flags.sum())
    only_j = size == 1 and tuple(int(v) for v in maps[int(np.argmax(flags))]) == tuple(g.inverse)
    return size, only_j


def test_intersection_closed_form_matches_enumeration(census7):
    pool = [g for _, g in corpus.standard_corpus() if g.size <= 9]
    for order in range(1, 7):
        pool += list(enumerate_groupoids(order).representatives)
    pool += list(census7.representatives)
    assert len(pool) == 70
    for g in pool:
        assert intersection_size(g) == oracle_intersection_size(g), g.name


def test_intersection_size_function(c2, pair2):
    assert intersection_size(c2) == (4, False)
    assert intersection_size(pair2) == (1, True)


def test_probe_through_the_cap_finds_no_candidate():
    report = principal_converse_search(MAX_CENSUS_ORDER)
    assert report.forward_holds and report.candidates == ()
    assert len(report.rows) == 11111
    assert sum(row.order == 20 for row in report.rows) == 3308


def test_probe_cap():
    with pytest.raises(CapExceeded):
        principal_converse_search(MAX_CENSUS_ORDER + 1)
