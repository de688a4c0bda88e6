"""Isomorphism machinery, the small-groupoid census, and the converse probe.

A groupoid isomorphism psi transports a member f to psi . f . psi^-1.  On
enumerated tables that is a map pi of member indices, one ``rank`` call that
never reads a Cayley table, so the audits check the functor laws on both
sides as array comparisons between two independently built tables: pi is a
permutation fixing the identity with pi[i * j] = pi[i] * pi[j], and pi along
a composite is the composite of the two.

``enumerate_groupoids`` builds the census from the structure theorem: a
connected finite groupoid is isomorphic to H x pair(k), H its isotropy
group (Brown, Topology and Groupoids), so the classes of order n are the
multisets of components (H, k) with sum |H| k^2 = n, and distinct
multisets give non-isomorphic groupoids.  Each class is the disjoint union
of its sorted multiset, validated once and named in the order the
multisets come; no canonical form is taken.  The groups H are cyclic
extensions: a finite solvable group has a normal subgroup N of prime index
p, so it is <N, t> with t^p = z, and conjugation by t is an automorphism
phi of N fixing z, with phi^p equal to conjugation by z.  Every group of
order below 60 is solvable, so ``_groups`` builds them all from the groups
of order m/p.  It buckets the candidates by sorted element orders, number
of squares and centre size, and keeps one of each class in a bucket.

Isomorphisms, automorphisms included, come from generator images (G. L.
Miller, STOC 1978): every element is a word in a greedy generating tuple,
so a map is fixed by the generators' images, and each tuple of distinct
images with the generators' invariants is extended along the words and
checked.  A group of order n has a generating tuple of at most log2 n
elements.

``canonical_form``, an isomorphism test independent of generator images
that the tests use, is the least key (relabelled inverse array, then
product table) over the relabelings that keep each fingerprint class on
its own block of ids and each inverse pair on adjacent ids.  It is found
by branch and bound with twin pruning (McKay and Piperno, Practical graph
isomorphism II, J. Symb. Comput. 60, 2014); the README gives the bound and
why it is safe.

The probe records, for every census groupoid, whether it is principal and
whether the two monoids meet only in j.  For finite discrete groupoids the
converse of the paper's closing remark is a theorem: a member of both
sides chooses at each x an arrow of a hom-set the size of the isotropy
group at r(x) (``intersection_size``), so the intersection is {j} exactly
when G is principal.  It stays open in the paper's topological setting.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .endo import SIDES, MonoidTable, enumerate_monoid
from .errors import CapExceeded, NotAnIsomorphism, ShapeError
from .groupoid import (
    UNDEFINED,
    GroupAction,
    Groupoid,
    is_principal,
    make_groupoid,
    morphism_classify,
    transformation_groupoid,
)
from .operators import Verdict
from .structure import bijective_translations

MAX_CENSUS_ORDER = 20


# ---------------------------------------------------------------------------
# canonical forms and isomorphisms


def _fingerprints(g: Groupoid) -> list[tuple]:
    """Per-element data preserved by every isomorphism."""
    out = []
    for x in g.elements():
        out.append((
            g.is_unit(x),
            x == g.inverse[x],
            g.range_map[x] == g.domain_map[x],
            len(g.r_fibers[g.range_map[x]]),
            len(g.d_fibers[g.domain_map[x]]),
        ))
    return out


def _classes(g: Groupoid) -> list[list[int]]:
    """The fingerprint classes, ordered by fingerprint."""
    classes: dict[tuple, list[int]] = {}
    for x, fp in enumerate(_fingerprints(g)):
        classes.setdefault(fp, []).append(x)
    return [classes[key] for key in sorted(classes)]


def _defined_cells(g: Groupoid) -> list[tuple[int, int, int]]:
    return [(x, y, v) for x, row in enumerate(g.product)
            for y, v in enumerate(row) if v != UNDEFINED]


def _relabel_key(g: Groupoid, sigma, cells) -> list[int]:
    n = g.size
    key = [0] * n + [UNDEFINED] * (n * n)
    for x in range(n):
        key[sigma[x]] = sigma[g.inverse[x]]
    for x, y, v in cells:
        key[n + sigma[x] * n + sigma[y]] = sigma[v]
    return key


def _swap_is_automorphism(g: Groupoid, x: int, y: int, cells) -> bool:
    tau = list(range(g.size))
    tau[x], tau[y] = y, x
    prod = g.product
    return all(prod[tau[a]][tau[b]] == tau[v] for a, b, v in cells)


def _twins(g: Groupoid, classes: list[list[int]], cells) -> list[int]:
    """twin[x]: the least member of x's twin class.  Self-inverse x and y
    of one class are twins when the transposition (x y) is an automorphism;
    conjugating (y z) by (x y) gives (x z), so twinship is an equivalence
    and one test against each twin class's least member decides it."""
    twin = list(range(g.size))
    for grp in classes:
        if g.inverse[grp[0]] != grp[0]:
            continue
        leaders: list[int] = []
        for x in grp:
            twin[x] = next((r for r in leaders if _swap_is_automorphism(g, r, x, cells)), x)
            if twin[x] == x:
                leaders.append(x)
    return twin


def canonical_form(g: Groupoid) -> tuple:
    """The least ``_relabel_key`` over the relabelings that put each
    fingerprint class on its block of ids, each inverse pair on two
    adjacent ids, found by branch and bound (the README gives the bound)."""
    n, prod, inv = g.size, g.product, g.inverse
    cells = _defined_cells(g)
    classes = _classes(g)
    class_of_id, start, end = [], [], []
    class_of = [0] * n
    for c, grp in enumerate(classes):
        start.append(len(class_of_id))
        class_of_id += [c] * len(grp)
        end.append(len(class_of_id))
        for x in grp:
            class_of[x] = c
    twin = _twins(g, classes, cells)
    new, old = [-1] * n, [-1] * n
    best = None

    def beaten(t: int) -> bool:
        """Whether every completion of ids 0..t-1 has a larger key than best.
        Cells (0, b), b < t, are the known key prefix; a value with no id
        yet takes one of its class's ids >= t."""
        row = prod[old[0]]
        for b in range(t):
            v = row[old[b]]
            if v != UNDEFINED:
                if new[v] >= 0:
                    v = new[v]
                else:
                    lo = max(start[class_of[v]], t)
                    if end[class_of[v]] - lo > 1:
                        return best[n + b] < lo
                    v = lo
            if v != best[n + b]:
                return v > best[n + b]
        return False

    def search(t: int) -> None:
        nonlocal best
        if t == n:
            key = _relabel_key(g, new, cells)
            if best is None or key < best:
                best = key
            return
        grp = classes[class_of_id[t]]
        tried = set()
        for x in grp:
            if new[x] >= 0 or twin[x] in tried:
                continue
            tried.add(twin[x])
            step = (x,) if inv[x] == x else (x, inv[x])
            for i, y in enumerate(step):
                new[y], old[t + i] = t + i, y
            if best is None or not beaten(t + len(step)):
                search(t + len(step))
            for y in step:
                new[y] = -1

    search(0)
    return tuple(best)


def groupoid_from_canonical(key: tuple, size: int, name: str = "") -> Groupoid:
    inv = key[:size]
    flat = key[size:]
    prod = [list(flat[i * size:(i + 1) * size]) for i in range(size)]
    return make_groupoid(size, prod, inv, name)


def _invariants(g: Groupoid) -> list[tuple]:
    """Each element's fingerprint, then its order if it is a loop (r(x) = d(x)), else 0."""
    out = []
    for x, fp in enumerate(_fingerprints(g)):
        k, y = int(fp[2]), x
        while fp[2] and y != g.range_map[x]:
            y, k = g.product[y][x], k + 1
        out.append(fp + (k,))
    return out


def _words(g: Groupoid, invariants: list[tuple]) -> list[list[tuple[int, int, int]]]:
    """A greedy generating tuple and every element as a word in it.

    Elements are tried units last, then by decreasing order, then by id;
    one joins the tuple when the closure under product and inverse of those
    before it misses it.  Entry i lists, breadth first, the steps generator
    i adds to the closure: (x, -1, i) for the generator x itself, (x, a, -1)
    for x = a^-1 and (x, a, b) for x = a b."""
    prod, seen, closure, segments = g.product, [False] * g.size, [], []
    for gen in sorted(g.elements(), key=lambda x: (invariants[x][0], -invariants[x][-1], x)):
        if seen[gen]:
            continue
        seen[gen], steps = True, [(gen, -1, len(segments))]
        for x, _, _ in steps:  # each pair of the closure is met once its later member is here
            closure.append(x)
            for v, a, b in [(g.inverse[x], x, -1)] + [
                    c for y in closure for c in ((prod[x][y], x, y), (prod[y][x], y, x))]:
                if v != UNDEFINED and not seen[v]:
                    seen[v] = True
                    steps.append((v, a, b))
        segments.append(steps)
    return segments


def _isomorphisms(g: Groupoid, h: Groupoid):
    """Every isomorphism g -> h as a map array, by generator images (G. L.
    Miller, On the n^(log n) isomorphism technique, STOC 1978).

    Each generator of ``_words`` takes a distinct image with its invariants,
    and the images extend along the words.  A candidate is kept if it is a
    bijection that respects every defined product and the inverse, with
    undefined products going to undefined ones."""
    mine = _invariants(g)
    theirs = mine if h is g else _invariants(h)
    if sorted(mine) != sorted(theirs):
        return
    gp, hp, gi, hi = (np.asarray(a) for a in (g.product, h.product, g.inverse, h.inverse))
    segments, sigma, used = _words(g, mine), [UNDEFINED] * g.size, [False] * h.size

    def extend(i: int):
        if i == len(segments):
            s = np.array(sigma + [UNDEFINED])  # s[-1] carries undefined to undefined
            if (hp[s[:-1, None], s[:-1]] == s[gp]).all() and (hi[s[:-1]] == s[gi]).all():
                yield tuple(sigma)
            return
        for image in h.elements():
            done = []
            for x, a, b in segments[i]:
                v = image if a < 0 else h.inverse[sigma[a]] if b < 0 else h.product[sigma[a]][sigma[b]]
                if v == UNDEFINED or used[v] or theirs[v] != mine[x]:
                    break
                sigma[x], used[v] = v, True
                done.append(x)
            else:
                yield from extend(i + 1)
            for x in done:
                used[sigma[x]], sigma[x] = False, UNDEFINED

    yield from extend(0)


def automorphisms(g: Groupoid) -> list[tuple[int, ...]]:
    """All self-isomorphisms, in lexicographic order of their map arrays."""
    return sorted(_isomorphisms(g, g))


@dataclass(frozen=True)
class Isomorphism:
    src: Groupoid
    dst: Groupoid
    map: tuple[int, ...]
    inverse_map: tuple[int, ...]

    def carry(self, maps: np.ndarray) -> np.ndarray:
        """psi . f . psi^-1 for each row f of a (T, n) stack of maps on ``src``."""
        return np.asarray(self.map)[maps[:, np.asarray(self.inverse_map)]]


def as_isomorphism(g: Groupoid, h: Groupoid, m) -> Isomorphism:
    m = tuple(int(v) for v in m)
    if len(m) != g.size or g.size != h.size:
        raise NotAnIsomorphism("size mismatch")
    rep = morphism_classify(g, h, m)
    if not rep.isomorphism:
        raise NotAnIsomorphism(f"map {m} is not an isomorphism")
    back = [0] * h.size
    for x, v in enumerate(m):
        back[v] = x
    return Isomorphism(g, h, m, tuple(back))


# ---------------------------------------------------------------------------
# the functor and embedding audits, as maps of member indices


def transport(ts: MonoidTable, th: MonoidTable, image) -> np.ndarray:
    """pi[i] = the index in ``th`` of ``image`` applied to member i of ``ts``,
    -1 where that map is not a member; ``image`` maps a (T, n) stack of maps."""
    return th.rank(image(ts.maps))


def _tables(side: str, *gs: Groupoid) -> list[MonoidTable]:
    """Each groupoid's table on ``side``, enumerated once per distinct groupoid."""
    built = {g: enumerate_monoid(g, side) for g in dict.fromkeys(gs)}
    return [built[g] for g in gs]


def _first(bad: np.ndarray) -> tuple[int, ...]:
    return tuple(int(v) for v in np.argwhere(bad)[0])


def _morphism_failure(pi: np.ndarray, ts: MonoidTable, th: MonoidTable,
                      onto: bool) -> tuple | None:
    """The first law pi breaks as a monoid morphism from ts into th, as
    (law, side, member) or ("products", side, i, j), or None.  In order:
    members, bijective (``onto``; else injective; the member is one of th
    hit other than once), identity (``onto`` only), and products."""
    if (pi < 0).any():
        return "members", ts.side, *_first(pi < 0)
    hits = np.bincount(pi, minlength=len(th))
    bad = hits != 1 if onto else hits > 1
    if bad.any():
        return "bijective" if onto else "injective", ts.side, *_first(bad)
    if onto and pi[ts.identity] != th.identity:
        return "identity", ts.side, ts.identity
    bad = pi[ts.op] != th.op[pi[:, None], pi[None, :]]
    if bad.any():
        return "products", ts.side, *_first(bad)
    return None


def monoid_iso_audit(iso: Isomorphism) -> Verdict:
    """Exhaustively verify, on both sides, that transport along iso is a
    monoid isomorphism between the tables of its source and target."""
    for side in SIDES:
        ts, th = _tables(side, iso.src, iso.dst)
        failure = _morphism_failure(transport(ts, th, iso.carry), ts, th, onto=True)
        if failure:
            return Verdict(False, failure)
    return Verdict(True)


def functoriality_audit(iso1: Isomorphism, iso2: Isomorphism) -> Verdict:
    """Transport along psi2 psi1 equals transport along psi1, then psi2, on
    every member of both sides; the witness names the first member where
    they differ."""
    if iso1.dst != iso2.src:
        raise NotAnIsomorphism("isomorphisms do not compose")
    comp = as_isomorphism(iso1.src, iso2.dst, [iso2.map[v] for v in iso1.map])
    for side in SIDES:
        t1, t2, t3 = _tables(side, iso1.src, iso1.dst, iso2.dst)
        first, second = transport(t1, t2, iso1.carry), transport(t2, t3, iso2.carry)
        whole = transport(t1, t3, comp.carry)
        laws = [("members", pi < 0) for pi in (first, second, whole)]
        for law, bad in laws + [("functoriality", second[first] != whole)]:
            if bad.any():
                return Verdict(False, (law, side, *_first(bad)))
    return Verdict(True)


def transformation_embedding_audit(action: GroupAction) -> Verdict:
    """Audit the embedding of the acting group's monoid into the monoid of
    its transformation groupoid.

    A self-map phi of the group T goes to the member
    f_phi(u, t) = (u . phi(t)^-1, phi(t)) of the groupoid U x T.  Verified
    exhaustively on the tables of side S: every f_phi is a member,
    phi -> f_phi is injective and turns the product of maps on T into the
    product on U x T, units go to units, the constant maps give a family
    with f_z1 * f_z2 = f_(z1 z2), and the twisted maps t -> t s^-1 t land
    in the dense-translation submonoid.  Units and dense members are read
    off the translations.
    """
    t = action.group
    tt = enumerate_monoid(t, "S")
    tg = enumerate_monoid(transformation_groupoid(action), "S")
    k = t.size
    act, tinv, tp = np.asarray(action.act), np.asarray(t.inverse), np.asarray(t.product)

    def embed(phi: np.ndarray) -> np.ndarray:  # f_phi at (u, x) has id u k + x
        return (act[:, tinv[phi]].transpose(1, 0, 2) * k + phi[:, None, :]).reshape(len(phi), -1)

    pi = transport(tt, tg, embed)
    failure = _morphism_failure(pi, tt, tg, onto=False)
    if failure:
        return Verdict(False, failure)
    xs = np.arange(k)
    units = np.isin(np.arange(len(tt)), bijective_translations(tt)[0])
    dense = np.isin(pi, bijective_translations(tg)[0])  # f_phi has a bijective translation
    const = pi[tt.rank(np.repeat(xs[:, None], k, axis=1))]  # const[z]: f_phi for phi = z
    twisted = tt.rank(tp[tp[xs, tinv[:, None]], xs])  # row s: x -> x s^-1 x
    for law, bad in (("units", units & ~dense),
                     ("constant family", tg.op[const[:, None], const[None, :]] != const[tp]),
                     ("twisted", ~dense[twisted])):
        if bad.any():
            return Verdict(False, (law, "S", *_first(bad)))
    return Verdict(True)


# ---------------------------------------------------------------------------
# the census from the structure theorem


def _groups(m: int, tower: dict[int, list[Groupoid]]) -> list[Groupoid]:
    """One group of each isomorphism class of order m < 60, by cyclic
    extension; ``tower`` maps each proper divisor of m to its groups.

    A finite solvable group G > 1 has a normal subgroup N of prime index
    p, so G = <N, t> with t^p = z in N, and phi = conjugation by t is an
    automorphism of N with phi(z) = z and phi^p equal to conjugation by z.
    Every group of order below 60 is solvable (A5, of order 60, is the
    least that is not), so trying every such (phi, z) on every N of
    ``tower[m // p]``, for each prime p dividing m, meets every class.
    The element a t^i gets id i |N| + a, with
    (a t^i)(b t^j) = a phi^i(b) z^[i+j >= p] t^((i+j) mod p).
    """
    if m >= 60:
        raise CapExceeded(f"groups of order {m} >= 60 need not be solvable", predicted=m)
    if m == 1:
        return [make_groupoid(1, [[0]], [0])]
    found = {}
    for p in [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]:
        for n in tower[m // p]:
            k, mul, e = n.size, n.product, n.units[0]
            for phi in automorphisms(n):
                pows = [range(k)]  # pows[i][b] = phi^i(b)
                for _ in range(p):
                    pows.append([phi[b] for b in pows[-1]])
                for z in range(k):
                    if phi[z] != z or any(mul[pows[p][a]][z] != mul[z][a] for a in range(k)):
                        continue
                    prod = [[(i + j) % p * k + mul[mul[a][pows[i][b]]][z if i + j >= p else e]
                             for j in range(p) for b in range(k)]
                            for i in range(p) for a in range(k)]
                    g = make_groupoid(m, prod, [row.index(e) for row in prod])
                    same = found.setdefault(_group_invariant(g), [])
                    if not any(next(_isomorphisms(g, h), None) for h in same):
                        same.append(g)
    return [g for same in found.values() for g in same]


def _group_invariant(g: Groupoid) -> tuple:
    """Sorted element orders, number of squares and centre size of a group."""
    prod = g.product
    centre = sum(all(prod[x][y] == prod[y][x] for y in g.elements()) for x in g.elements())
    return (tuple(sorted(fp[-1] for fp in _invariants(g))),
            len({prod[x][x] for x in g.elements()}), centre)


def _union_of_components(order: int, comps, name: str = "") -> Groupoid:
    """The disjoint union of the groupoids H x pair(k) for (H, k) in comps:
    (a,i,j)(b,j,l) = (ab,i,l) and (a,i,j)^-1 = (a^-1,j,i)."""
    prod = [[UNDEFINED] * order for _ in range(order)]
    inv = [0] * order
    base = 0
    for h, k in comps:
        m = h.size
        for i, j, a in itertools.product(range(k), range(k), range(m)):
            x = base + (i * k + j) * m + a
            inv[x] = base + (j * k + i) * m + h.inverse[a]
            for l, b in itertools.product(range(k), range(m)):
                prod[x][base + (j * k + l) * m + b] = base + (i * k + l) * m + h.product[a][b]
        base += m * k * k
    return make_groupoid(order, prod, inv, name)


def _multisets(sizes: list[int], total: int, start: int = 0):
    """Non-decreasing index tuples into ``sizes`` (all positive) whose sizes
    sum to total."""
    if total == 0:
        yield ()
    for i in range(start, len(sizes)):
        if sizes[i] <= total:
            yield from ((i,) + rest for rest in _multisets(sizes, total - sizes[i], i))


@dataclass(frozen=True)
class Census:
    order: int
    representatives: tuple[Groupoid, ...]
    total_found: int

    @property
    def count(self):
        return len(self.representatives)


def _component_types(max_order: int) -> list[tuple[int, Groupoid, int, int]]:
    """(|H| k^2, H, k, |Aut(H x pair(k))|) for every connected groupoid of
    order at most max_order, with |Aut(H x pair(k))| = |Aut(H)| k! |H|^(k-1)."""
    types, tower = [], {}
    for m in range(1, max_order + 1):
        tower[m] = _groups(m, tower)
        for h in tower[m]:
            aut = sum(1 for _ in _isomorphisms(h, h))  # counted, never listed
            types += [(m * k * k, h, k, aut * math.factorial(k) * m ** (k - 1))
                      for k in range(1, math.isqrt(max_order // m) + 1)]
    return types


def _census(order: int, types) -> Census:
    """The census of one order from ``_component_types`` of at least that order:
    one class per multiset of types whose sizes sum to order, in ``_multisets`` order."""
    reps, total = [], 0
    for i, choice in enumerate(_multisets([t[0] for t in types], order)):
        comps = [types[c] for c in choice]
        aut = math.prod(t[3] for t in comps) * math.prod(
            math.factorial(c) for c in Counter(choice).values())
        total += math.factorial(order) // aut
        reps.append(_union_of_components(order, [(h, k) for _, h, k, _ in comps],
                                         f"census-{order}-{i}"))
    return Census(order=order, representatives=tuple(reps), total_found=total)


def enumerate_groupoids(order: int, max_order: int = MAX_CENSUS_ORDER) -> Census:
    """Every groupoid on ``order`` labeled points, up to isomorphism.

    One class per multiset of components (H, k) with sum |H| k^2 = order.
    A class with automorphism group A has order!/|A| labelled copies, with
    a factor m! in |A| for a component repeated m times; ``total_found``
    sums these.  Deterministic: representative i, ``census-{order}-{i}``,
    is the i-th multiset in ``_multisets`` order.
    """
    if order < 1:
        raise ShapeError(f"order must be >= 1, got {order}")
    if order > max_order:
        raise CapExceeded(f"census order {order} exceeds cap {max_order}", predicted=order)
    return _census(order, _component_types(order))


# ---------------------------------------------------------------------------
# the converse probe


@dataclass(frozen=True)
class ProbeRow:
    order: int
    name: str
    principal: bool
    intersection_size: int
    candidate: bool


@dataclass(frozen=True)
class ProbeReport:
    max_order: int
    rows: tuple[ProbeRow, ...]
    forward_holds: bool
    candidates: tuple[str, ...]


def intersection_size(g: Groupoid) -> tuple[int, bool]:
    """Size of the two-sided intersection and whether it is exactly {j}.

    A member of both sides picks at each x, independently, an arrow y with
    d(y) = r(x) and r(y) = d(x).  j is one, so size 1 means {j}."""
    homs = Counter(zip(g.range_map, g.domain_map))
    size = math.prod(homs[g.domain_map[x], g.range_map[x]] for x in g.elements())
    return size, size == 1


def census_through(max_order: int, census_cap: int) -> tuple[Census, ...]:
    """The censuses of orders 1..max_order, sharing one list of component
    types; refused whole above the cap."""
    if max_order < 1:
        raise ShapeError(f"order must be >= 1, got {max_order}")
    if max_order > census_cap:
        raise CapExceeded(f"order {max_order} exceeds census cap {census_cap}",
                          predicted=max_order)
    types = _component_types(max_order)
    return tuple(_census(order, types) for order in range(1, max_order + 1))


def converse_probe(max_order: int, censuses: tuple[Census, ...]) -> ProbeReport:
    """The probe over the censuses of orders 1..max_order, already built."""
    rows = []
    forward = True
    for census in censuses:
        for rep in census.representatives:
            size, only_j = intersection_size(rep)
            principal = is_principal(rep)
            forward &= only_j or not principal
            rows.append(ProbeRow(census.order, rep.name, principal, size,
                                 only_j and not principal))
    return ProbeReport(max_order, tuple(rows), forward,
                       tuple(row.name for row in rows if row.candidate))


def principal_converse_search(max_order: int,
                              census_cap: int = MAX_CENSUS_ORDER) -> ProbeReport:
    """Scan the full census for the converse of: principal implies the two
    monoids meet only in j.  Reports any non-principal groupoid whose
    intersection is {j}; finding one is a result to report, not an error.
    Evidence is limited to the searched range."""
    return converse_probe(max_order, census_through(max_order, census_cap))
