"""Semigroup-theoretic structure of the endomorphism monoids.

All operations take an enumerated ``MonoidTable`` and scan it exhaustively:
idempotents and one-sided zeros, ideals and (separately) the
generated-ideal minimality criterion, the group of units characterised
through bijective translations (cross-checked against the set of
Cayley-invertible elements), the dense-translation submonoid, subsemigroups
attached to subgroupoids, and the classification of antihomomorphism
members.  Member facts are read off the table's arrays: member i is row i
of ``maps`` and of ``trans``, and ``MonoidTable.rank`` numbers any stack of
maps.  A fact that several operations share (the special elements, the
bijective-translation set and its closure, the left-cancellative mask) is
passed in by the caller, which computes it once per table.  A function that
decides a claim returns one ``Verdict`` whose witness makes a failure
reproducible from the report alone; one that computes a set returns member
indices or a mask.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptySubset, MembershipError, NotASubgroupoid, PreconditionFailed, ShapeError
from .groupoid import UNDEFINED, Groupoid
from .endo import _BLOCK_CELLS, MonoidTable, membership
from .operators import Verdict

_MIRROR = {"S": "S'", "S'": "S"}


def j_index(t: MonoidTable) -> int:
    j = int(t.rank([t.groupoid.inverse])[0])
    if j < 0:
        raise MembershipError(f"the inverse map is not in side {t.side}")
    return j


def _in_side(g: Groupoid, side: str, maps: np.ndarray) -> np.ndarray:
    """Whether each row of a (T, n) stack of maps lies on ``side``:
    d(f(x)) = r(x) on S, r(f(x)) = d(x) on S'."""
    rm, dm = np.asarray(g.range_map), np.asarray(g.domain_map)
    return ((dm[maps] == rm) if side == "S" else (rm[maps] == dm)).all(axis=1)


@dataclass(frozen=True)
class SpecialElements:
    idempotents: tuple[int, ...]
    right_zeros: tuple[int, ...]
    left_zeros: tuple[int, ...]


def special_elements(t: MonoidTable) -> SpecialElements:
    op, idx = t.op, np.arange(len(t))
    idem = np.flatnonzero(op[idx, idx] == idx)
    # z is a right (left) zero when its column (row) holds only z: min and max are z
    right = np.flatnonzero((op.min(axis=0) == idx) & (op.max(axis=0) == idx))
    left = np.flatnonzero((op.min(axis=1) == idx) & (op.max(axis=1) == idx))
    return SpecialElements(tuple(map(int, idem)), tuple(map(int, right)), tuple(map(int, left)))


def left_zero_criterion(t: MonoidTable) -> Verdict:
    """j is a left zero exactly when every member fixes every unit; both
    sides of the equivalence are computed independently.  The witness is the
    first (member, unit) the member moves, or None."""
    j = j_index(t)
    units = list(t.groupoid.units)
    moved = np.argwhere(t.maps[:, units] != units)
    witness = (int(moved[0, 0]), units[moved[0, 1]]) if len(moved) else None
    return Verdict(bool((t.op[j] == j).all()) == (witness is None), witness)


def left_ideal(t: MonoidTable, subset: Sequence[int]) -> bool:
    """Whether S I lies in I, by a scan of the table's columns at I."""
    mask = np.zeros(len(t), dtype=bool)
    mask[[int(i) for i in subset]] = True
    if not mask.any():
        raise EmptySubset("ideal subset must be nonempty")
    if mask.all():
        return True  # every table cell is a member index
    return bool(mask[t.op[:, mask]].all())


def ideal_check(t: MonoidTable, subset: Sequence[int]) -> bool:
    """Whether a subset is a two-sided ideal, by table scan; I is a right
    ideal of S exactly when it is a left ideal of the opposite monoid."""
    return left_ideal(t, subset) and left_ideal(replace(t, op=t.op.T), subset)


def minimal_ideal(t: MonoidTable, subset: Sequence[int]) -> bool:
    """Whether a subset is a minimal two-sided ideal.

    An ideal T is minimal exactly when the ideal S x S generated by each of
    its elements is all of T.  S is a monoid here, so S x S contains x.
    S x S is marked from the distinct values of x S, which lie in T.
    """
    sub = [int(i) for i in subset]
    if not ideal_check(t, sub):
        return False
    members = np.zeros(len(t), dtype=bool)
    members[sub] = True
    for x in np.flatnonzero(members):
        generated = np.zeros_like(members)
        generated[t.op[:, np.unique(t.op[x])]] = True
        if not np.array_equal(generated, members):
            return False
    return True


def j_ideal(t: MonoidTable) -> tuple[int, ...]:
    """The two-sided ideal j S (or j S' on the mirror side), the members row j
    hits; a bincount, since ``np.unique`` loads ``numpy.ma`` (about 1.2 MB)."""
    return tuple(np.flatnonzero(np.bincount(t.op[j_index(t)], minlength=len(t))).tolist())


def _closed(t: MonoidTable, indices: Sequence[int]) -> bool:
    """Whether the table closes a set of members: the |I| x |I| block of
    ``op`` at I, gathered by index, lies in I."""
    idx = np.asarray(indices, dtype=np.intp)
    mask = np.zeros(len(t), dtype=bool)
    mask[idx] = True
    if mask.all():
        return True  # every table cell is a member index
    return bool(mask[np.take(np.take(t.op, idx, axis=0), idx, axis=1)].all())


def bijective_translations(t: MonoidTable) -> tuple[tuple[int, ...], bool]:
    """The members whose translation is a bijection of G, and whether the
    table closes that set.  H(1) and T_G are both read from this pair."""
    n = t.groupoid.size
    bijective = (np.sort(t.trans, axis=1) == np.arange(n)).all(axis=1)
    indices = tuple(int(i) for i in np.flatnonzero(bijective))
    return indices, _closed(t, indices)


def group_of_units(t: MonoidTable,
                   bijective: tuple[tuple[int, ...], bool]) -> tuple[dict[int, int], Verdict]:
    """The inverses in H(1) = members whose left translation is a bijection
    of G, and whether they verify.

    ``bijective`` is ``bijective_translations(t)``.  For each member the
    inverse is constructed pointwise from the translation:
    psi(y) = (phi(x))^-1 where y = phi(x) x, then the group laws
    phi psi = psi phi = identity are verified against the table.  Mirrored
    via right translations on side S'.
    """
    indices, closed = bijective
    rows = list(indices)
    psi = np.take_along_axis(np.asarray(t.groupoid.inverse)[t.maps[rows]],  # psi(phi(x) x) = phi(x)^-1
                             np.argsort(t.trans[rows], axis=1), axis=1)
    inverse, witness = {}, None
    for i, k in zip(indices, t.rank(psi).tolist()):
        if k < 0:
            witness = (i, "inverse not a member")
            continue
        inverse[i] = k
        if t.mul(i, k) != t.identity or t.mul(k, i) != t.identity:
            witness = (i, k)
    if not closed:
        witness = ("closure",)
    if t.identity not in indices:
        witness = ("identity missing",)
    return inverse, Verdict(witness is None, witness)


def cayley_units(t: MonoidTable) -> tuple[int, ...]:
    """The two-sided-invertible members, read from the Cayley table alone:
    i such that i j = identity = j i for some j, tested only at the cells
    of the identity."""
    i, j = np.divmod(np.flatnonzero(t.op == t.identity), len(t))
    return tuple(int(v) for v in np.unique(i[t.op[j, i] == t.identity]))


def units_crosscheck(indices: Sequence[int], invertible: Sequence[int]) -> Verdict:
    """Compare H(1) with the table's two-sided-invertible set (``cayley_units``);
    this is the maximality claim at testable level."""
    stray = tuple(sorted(set(invertible) ^ set(indices)))
    return Verdict(not stray, stray or None)


def left_cancellative(t: MonoidTable) -> np.ndarray:
    """Whether each member is left-cancellative, i.e. its row of the Cayley
    table, sorted one block of rows at a time, has no two equal neighbours."""
    step = max(1, _BLOCK_CELLS // len(t))
    blocks = (np.sort(t.op[i0:i0 + step], axis=1) for i0 in range(0, len(t), step))
    return np.concatenate([(b[:, 1:] != b[:, :-1]).all(axis=1) for b in blocks])


def dense_submonoid(t: MonoidTable, bijective: tuple[tuple[int, ...], bool],
                    cancellative: np.ndarray) -> Verdict:
    """Whether the members whose translation image is dense, i.e. all of G at
    finite discrete scale, form a left-cancellative submonoid.

    The set is ``bijective_translations(t)``; closure, the identity and
    exhaustive left cancellativity, read from the mask
    ``left_cancellative(t)``, are verified.  The witness is the first
    cancellation failure as (member, j, k) with equal products at columns
    j < k; the report matches the set with its mirror through the involution.
    """
    indices, closed = bijective
    cancellative = cancellative[list(indices)]
    witness = None
    if not cancellative.all():  # the first column whose product repeats an earlier one
        i = indices[int(np.argmin(cancellative))]
        row = t.op[i]
        repeat = np.ones(len(row), dtype=bool)
        repeat[np.unique(row, return_index=True)[1]] = False
        k = int(np.argmax(repeat))
        witness = (i, int(np.argmax(row == row[k])), k)
    return Verdict(closed and t.identity in indices and witness is None, witness)


def validate_subgroupoid(g: Groupoid, a: Sequence[int]) -> tuple[int, ...]:
    """A nonempty id set closed under inverses and defined products."""
    sub = sorted(set(int(x) for x in a))
    if not sub:
        raise NotASubgroupoid("empty set")
    for x in sub:
        if not 0 <= x < g.size:
            raise ShapeError(f"id {x} out of range")
        if g.inverse[x] not in sub:
            raise NotASubgroupoid((x, "inverse"))
    for x in sub:
        for y in sub:
            v = g.product[x][y]
            if v != UNDEFINED and v not in sub:
                raise NotASubgroupoid((x, y))
    return tuple(sub)


def subgroupoid_semigroup(a: Sequence[int], t: MonoidTable) -> Verdict:
    """Whether the members mapping a subgroupoid A into itself form a
    subsemigroup.

    Also verifies the auxiliary fact the closure argument rests on: a member
    preserves A exactly when its translation map does; the witness is the
    first member where the two disagree, as (member,).
    """
    sub = validate_subgroupoid(t.groupoid, a)
    in_sub = np.zeros(t.groupoid.size, dtype=bool)
    in_sub[list(sub)] = True
    preserves = in_sub[t.maps[:, sub]].all(axis=1)
    mismatch = np.flatnonzero(preserves != in_sub[t.trans[:, sub]].all(axis=1))
    witness = (int(mismatch[0]),) if len(mismatch) else None
    return Verdict(_closed(t, np.flatnonzero(preserves)) and witness is None, witness)


def range_domain_criterion(g: Groupoid, phi: Sequence[int]) -> Verdict:
    """For maps intertwining d and r (d(phi(x)) = phi(r(x))): membership in
    side S, the image of every range-fiber meeting the matching domain-fiber,
    and fixing every unit all agree.  The witness of a disagreement is phi."""
    if len(phi) != g.size or any(not 0 <= v < g.size for v in phi):
        raise ShapeError("phi must be a total self-map")
    for x in g.elements():
        if g.domain_map[phi[x]] != phi[g.range_map[x]]:
            raise PreconditionFailed(f"d(phi({x})) != phi(r({x}))")
    in_sg = membership(g, phi).in_sg
    hits = all({phi[x] for x in g.r_fibers[u]} & set(g.d_fibers[u]) for u in g.units)
    fixes = all(phi[u] == u for u in g.units)
    agree = in_sg == hits == fixes
    return Verdict(agree, None if agree else tuple(phi))


def intertwining_maps(g: Groupoid):
    """The maps with d(phi(x)) = phi(r(x)) as (T, n) arrays, T <= _BLOCK_CELLS, below
    the sweep cap.  Unit assignment sigma (base-|U| code, first unit most significant)
    owns prod_x k_{sigma(r(x))} maps, k_v = |d^-1(v)|, whose digits are the places of
    the non-units x in d^-1(sigma(r(x))), the last least significant."""
    units, k = np.asarray(g.units), np.array([len(g.d_fibers[u]) for u in g.units])
    fibers = np.array([list(g.d_fibers[u]) + [0] * (k.max() - len(g.d_fibers[u])) for u in g.units])
    non_units = [x for x in g.elements() if not g.is_unit(x)]
    ru = np.searchsorted(units, np.asarray(g.range_map)[non_units])  # r(x)'s place among the units
    sizes = math.prod(np.ix_(*(k ** m for m in np.bincount(ru, minlength=len(units))))).ravel()
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    for c0 in range(0, int(offsets[-1]), _BLOCK_CELLS):
        index = np.arange(c0, min(c0 + _BLOCK_CELLS, int(offsets[-1])))
        code = np.searchsorted(offsets, index, side="right") - 1
        sigma = np.stack(np.unravel_index(code, (len(units),) * len(units)), axis=1)
        phi, local = np.empty((len(index), g.size), dtype=np.intp), index - offsets[code]
        phi[:, units] = units[sigma]
        for x, r in zip(reversed(non_units), ru[::-1]):
            local, digit = np.divmod(local, k[sigma[:, r]])
            phi[:, x] = fibers[sigma[:, r], digit]
        yield phi


def range_domain_sweep(g: Groupoid) -> Verdict:
    """``range_domain_criterion`` on every ``intertwining_maps`` chunk; the first failure."""
    rm, dm, units = np.asarray(g.range_map), np.asarray(g.domain_map), np.asarray(g.units)
    for phi in intertwining_maps(g):
        image = dm[phi]
        if (image != phi[:, rm]).any():
            x = int(np.argmax(image != phi[:, rm])) % g.size
            raise PreconditionFailed(f"d(phi({x})) != phi(r({x}))")
        hits = np.logical_and.reduce([(image[:, g.r_fibers[u]] == u).any(axis=1) for u in g.units])
        agree = (_in_side(g, "S", phi) == hits) & (hits == (phi[:, units] == units).all(axis=1))
        if not agree.all():
            return Verdict(False, tuple(int(v) for v in phi[np.argmin(agree)]))
    return Verdict(True)


def count_intertwining_maps(g: Groupoid) -> int:
    """The number of maps ``intertwining_maps`` yields, before any is built.

    Summing over the unit assignments sigma of the product of the pool sizes,
    prod_x k_{sigma(r(x))} with k_v = |d^-1(v)|, factors per unit:
    prod_u sum_v k_v^{m_u}, m_u being the number of non-units x with r(x) = u.
    """
    k = [len(g.d_fibers[v]) for v in g.units]
    m = Counter(g.range_map[x] for x in g.elements() if not g.is_unit(x))
    return math.prod(sum(kv ** m[u] for kv in k) for u in g.units)


def antihom_classification(
    t: MonoidTable, spec: SpecialElements,
) -> tuple[np.ndarray, Verdict, Verdict, Verdict]:
    """Classify members that are antihomomorphisms of the base groupoid.

    ``spec`` is ``special_elements(t)``.  Returns the mask of
    antihomomorphism members and three verdicts: the function inverse of
    each bijective member lands on the mirror side (witness: the first
    member whose inverse does not), j is the only injective idempotent
    antihomomorphism, and j is the only right-zero antihomomorphism (each
    witnessed by the members found).
    """
    g = t.groupoid
    P, M = np.asarray(g.product), t.maps
    xs, ys = np.nonzero(P != UNDEFINED)  # f(xy) = f(y) f(x) at every defined cell
    anti = (P[M[:, ys], M[:, xs]] == M[:, P[xs, ys]]).all(axis=1)

    injective = (np.sort(t.maps, axis=1) == np.arange(g.size)).all(axis=1)
    rule6 = tuple(i for i in spec.idempotents if injective[i] and anti[i])
    rule7 = tuple(i for i in spec.right_zeros if anti[i])

    # the function inverse of a bijective member is back[f(x)] = x; on side
    # S it must lie in S' (r(back(x)) = d(x)), on side S' in S
    stray = np.flatnonzero(injective & ~_in_side(g, _MIRROR[t.side], np.argsort(t.maps, axis=1)))
    witness = (int(stray[0]),) if len(stray) else None

    j = j_index(t)
    return (anti, Verdict(witness is None, witness),
            Verdict(rule6 == (j,), rule6), Verdict(rule7 == (j,), rule7))


def intersection_analysis(t: MonoidTable) -> tuple[int, ...]:
    """S and S' intersected, as indices of the given table."""
    return tuple(int(i) for i in np.flatnonzero(_in_side(t.groupoid, _MIRROR[t.side], t.maps)))
