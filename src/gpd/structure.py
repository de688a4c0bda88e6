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
passed in by the caller, which computes it once per table.  Verdicts carry
witnesses so a failure is reproducible from the report alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptySubset, MembershipError, NotASubgroupoid, PreconditionFailed, ShapeError
from .groupoid import UNDEFINED, Groupoid, is_principal
from .endo import MonoidTable, membership


def j_index(t: MonoidTable) -> int:
    j = int(t.rank([t.groupoid.inverse])[0])
    if j < 0:
        raise MembershipError(f"the inverse map is not in side {t.side}")
    return j


def _in_mirror(g: Groupoid, side: str, maps: np.ndarray) -> np.ndarray:
    """Whether each row of a (T, n) stack of maps lies on the side other than
    ``side``: r(f(x)) = d(x) for S', d(f(x)) = r(x) for S."""
    rm, dm = np.asarray(g.range_map), np.asarray(g.domain_map)
    return ((rm[maps] == dm) if side == "S" else (dm[maps] == rm)).all(axis=1)


@dataclass(frozen=True)
class SpecialElements:
    idempotents: tuple[int, ...]
    right_zeros: tuple[int, ...]
    left_zeros: tuple[int, ...]


def special_elements(t: MonoidTable) -> SpecialElements:
    op = t.op
    n = len(t)
    diag = op[np.arange(n), np.arange(n)]
    idem = np.flatnonzero(diag == np.arange(n))
    right = np.flatnonzero((op == np.arange(n)[None, :]).all(axis=0))
    left = np.flatnonzero((op == np.arange(n)[:, None]).all(axis=1))
    return SpecialElements(tuple(map(int, idem)), tuple(map(int, right)), tuple(map(int, left)))


@dataclass(frozen=True)
class LeftZeroVerdict:
    j_is_left_zero: bool
    all_maps_fix_units: bool
    equivalence_holds: bool
    witness: tuple | None


def left_zero_criterion(g: Groupoid, t: MonoidTable) -> LeftZeroVerdict:
    """j is a left zero exactly when every member fixes every unit; both
    sides of the equivalence are computed independently."""
    j = j_index(t)
    j_left = bool((t.op[j] == j).all())
    units = list(g.units)
    moved = np.argwhere(t.maps[:, units] != units)
    witness = (int(moved[0, 0]), units[moved[0, 1]]) if len(moved) else None
    fix = witness is None
    return LeftZeroVerdict(j_left, fix, j_left == fix, witness)


@dataclass(frozen=True)
class IdealVerdict:
    left_ideal: bool
    right_ideal: bool
    ideal: bool


def left_ideal(t: MonoidTable, subset: Sequence[int]) -> bool:
    """Whether S I lies in I, by a scan of the table's columns at I."""
    mask = np.zeros(len(t), dtype=bool)
    mask[[int(i) for i in subset]] = True
    if not mask.any():
        raise EmptySubset("ideal subset must be nonempty")
    if mask.all():
        return True  # every table cell is a member index
    return bool(mask[t.op[:, mask]].all())


def ideal_check(t: MonoidTable, subset: Sequence[int]) -> IdealVerdict:
    """Left, right and two-sided ideal membership by table scan; I is a
    right ideal of S exactly when it is a left ideal of the opposite monoid."""
    left = left_ideal(t, subset)
    right = left_ideal(replace(t, op=t.op.T), subset)
    return IdealVerdict(left, right, left and right)


def minimal_ideal(t: MonoidTable, subset: Sequence[int]) -> bool:
    """Whether a subset is a minimal two-sided ideal.

    An ideal T is minimal exactly when the ideal S x S generated by each of
    its elements is all of T.  S is a monoid here, so S x S contains x.
    S x S is marked from the distinct values of x S, which lie in T.
    """
    sub = [int(i) for i in subset]
    if not ideal_check(t, sub).ideal:
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
    """The two-sided ideal j S (or j S' on the mirror side)."""
    return tuple(sorted(set(int(v) for v in t.op[j_index(t)])))


@dataclass(frozen=True)
class UnitGroup:
    indices: tuple[int, ...]
    inverse: dict[int, int]
    verified: bool
    witness: tuple | None


def _closed(t: MonoidTable, indices: Sequence[int]) -> bool:
    mask = np.zeros(len(t), dtype=bool)
    mask[list(indices)] = True
    return bool(mask[t.op[np.ix_(mask, mask)]].all())


def bijective_translations(t: MonoidTable) -> tuple[tuple[int, ...], bool]:
    """The members whose translation is a bijection of G, and whether the
    table closes that set.  H(1) and T_G are both read from this pair."""
    n = t.groupoid.size
    bijective = (np.sort(t.trans, axis=1) == np.arange(n)).all(axis=1)
    indices = tuple(int(i) for i in np.flatnonzero(bijective))
    return indices, _closed(t, indices)


def group_of_units(g: Groupoid, t: MonoidTable,
                   bijective: tuple[tuple[int, ...], bool]) -> UnitGroup:
    """H(1) = members whose left translation is a bijection of G.

    ``bijective`` is ``bijective_translations(t)``.  For each member the
    inverse is constructed pointwise from the translation:
    psi(y) = (phi(x))^-1 where y = phi(x) x, then the group laws
    phi psi = psi phi = identity are verified against the table.  Mirrored
    via right translations on side S'.
    """
    indices, closed = bijective
    rows = list(indices)
    psi = np.take_along_axis(np.asarray(g.inverse)[t.maps[rows]],  # psi(phi(x) x) = phi(x)^-1
                             np.argsort(t.trans[rows], axis=1), axis=1)
    inverse, witness, verified = {}, None, True
    for i, k in zip(indices, t.rank(psi).tolist()):
        if k < 0:
            verified, witness = False, (i, "inverse not a member")
            continue
        inverse[i] = k
        if t.mul(i, k) != t.identity or t.mul(k, i) != t.identity:
            verified, witness = False, (i, k)
    if not closed:
        verified, witness = False, ("closure",)
    if t.identity not in indices:
        verified, witness = False, ("identity missing",)
    return UnitGroup(indices, inverse, verified, witness)


@dataclass(frozen=True)
class CrossCheck:
    agrees: bool
    witness: tuple | None


def cayley_units(t: MonoidTable) -> tuple[int, ...]:
    """The two-sided-invertible members, read from the Cayley table alone."""
    m = t.op == t.identity
    return tuple(int(i) for i in np.flatnonzero((m & m.T).any(axis=1)))


def units_crosscheck(h1: UnitGroup, invertible: Sequence[int]) -> CrossCheck:
    """Compare H(1) with the table's two-sided-invertible set (``cayley_units``);
    this is the maximality claim at testable level."""
    stray = tuple(sorted(set(invertible) ^ set(h1.indices)))
    return CrossCheck(not stray, stray or None)


def left_cancellative(t: MonoidTable) -> np.ndarray:
    """Whether each member is left-cancellative, i.e. its row of the Cayley
    table repeats no value."""
    hit = np.zeros(t.op.shape, dtype=bool)
    hit[np.arange(len(t))[:, None], t.op] = True
    return hit.all(axis=1)


@dataclass(frozen=True)
class DenseSubmonoid:
    indices: tuple[int, ...]
    closed: bool
    contains_identity: bool
    left_cancellative: bool
    witness: tuple | None


def dense_submonoid(t: MonoidTable, bijective: tuple[tuple[int, ...], bool],
                    cancellative: np.ndarray) -> DenseSubmonoid:
    """Members whose translation image is dense, i.e. all of G at finite
    discrete scale, from ``bijective_translations(t)``.  Verifies closure,
    the identity and exhaustive left cancellativity, read from the mask
    ``left_cancellative(t)``; the report matches the set with its mirror
    through the involution."""
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
    return DenseSubmonoid(indices, closed, t.identity in indices, witness is None, witness)


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


@dataclass(frozen=True)
class SubgroupoidSemigroup:
    subgroupoid: tuple[int, ...]
    indices: tuple[int, ...]
    closed: bool
    translation_agrees: bool
    witness: tuple | None


def subgroupoid_semigroup(g: Groupoid, a: Sequence[int], t: MonoidTable) -> SubgroupoidSemigroup:
    """Members mapping a subgroupoid A into itself form a subsemigroup.

    Also verifies the auxiliary fact the closure argument rests on: a member
    preserves A exactly when its translation map does.
    """
    sub = validate_subgroupoid(g, a)
    in_sub = np.zeros(g.size, dtype=bool)
    in_sub[list(sub)] = True
    preserves = in_sub[t.maps[:, sub]].all(axis=1)
    indices = tuple(int(i) for i in np.flatnonzero(preserves))
    mismatch = np.flatnonzero(preserves != in_sub[t.trans[:, sub]].all(axis=1))
    witness = (int(mismatch[0]),) if len(mismatch) else None
    return SubgroupoidSemigroup(sub, indices, _closed(t, indices), witness is None, witness)


@dataclass(frozen=True)
class RangeDomainVerdict:
    in_sg: bool
    hits_every_unit: bool
    equivalence_holds: bool


def range_domain_criterion(g: Groupoid, phi: Sequence[int]) -> RangeDomainVerdict:
    """For maps intertwining d and r (d(phi(x)) = phi(r(x))): membership in
    side S is equivalent to the image of every range-fiber meeting the
    matching domain-fiber."""
    if len(phi) != g.size or any(not 0 <= v < g.size for v in phi):
        raise ShapeError("phi must be a total self-map")
    for x in g.elements():
        if g.domain_map[phi[x]] != phi[g.range_map[x]]:
            raise PreconditionFailed(f"d(phi({x})) != phi(r({x}))")
    in_sg = membership(g, phi).in_sg
    hits = True
    for u in g.units:
        image = {phi[x] for x in g.r_fibers[u]}
        if not image & set(g.d_fibers[u]):
            hits = False
            break
    return RangeDomainVerdict(in_sg, hits, in_sg == hits)


def iter_intertwining_maps(g: Groupoid):
    """All total maps with d(phi(x)) = phi(r(x)), by direct construction.

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


def count_intertwining_maps(g: Groupoid) -> int:
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


@dataclass(frozen=True)
class AntihomVerdicts:
    injective_idempotent_antihoms: tuple[int, ...]
    right_zero_antihoms: tuple[int, ...]
    antihom_flags: tuple[bool, ...]
    only_j_rule_six: bool
    only_j_rule_seven: bool
    bijective_inverses_in_mirror: bool
    injective_idempotent_non_antihoms: tuple[int, ...]
    witness: tuple | None


def antihom_classification(g: Groupoid, t: MonoidTable, spec: SpecialElements) -> AntihomVerdicts:
    """Classify members that are antihomomorphisms of the base groupoid.

    ``spec`` is ``special_elements(t)``.  Checks that j is the only injective
    idempotent antihomomorphism and the only right-zero antihomomorphism,
    and that the function inverse of each bijective member lands on the
    mirror side.  Injective idempotents that are not antihomomorphisms are
    recorded separately; ``antihom_flags[i]`` says whether member i is one.
    """
    j = j_index(t)
    P, M = np.asarray(g.product), t.maps
    xs, ys = np.nonzero(P != UNDEFINED)  # f(xy) = f(y) f(x) at every defined cell
    anti_flags = tuple((P[M[:, ys], M[:, xs]] == M[:, P[xs, ys]]).all(axis=1).tolist())

    injective = (np.sort(t.maps, axis=1) == np.arange(g.size)).all(axis=1)
    rule6 = tuple(i for i in spec.idempotents if injective[i] and anti_flags[i])
    rule7 = tuple(i for i in spec.right_zeros if anti_flags[i])
    extra = tuple(i for i in spec.idempotents if injective[i] and not anti_flags[i])

    # the function inverse of a bijective member is back[f(x)] = x; on side
    # S it must lie in S' (r(back(x)) = d(x)), on side S' in S
    stray = np.flatnonzero(injective & ~_in_mirror(g, t.side, np.argsort(t.maps, axis=1)))
    witness = (int(stray[0]),) if len(stray) else None

    return AntihomVerdicts(
        injective_idempotent_antihoms=rule6,
        right_zero_antihoms=rule7,
        antihom_flags=anti_flags,
        only_j_rule_six=rule6 == (j,),
        only_j_rule_seven=rule7 == (j,),
        bijective_inverses_in_mirror=witness is None,
        injective_idempotent_non_antihoms=extra,
        witness=witness,
    )


@dataclass(frozen=True)
class IntersectionReport:
    indices: tuple[int, ...]
    equals_j_only: bool
    principal: bool
    forward_implication_holds: bool


def intersection_analysis(g: Groupoid, t: MonoidTable) -> IntersectionReport:
    """S and S' intersected, as indices of the given table, together with
    the principality flag and the one-way implication between them."""
    inter = tuple(int(i) for i in np.flatnonzero(_in_mirror(g, t.side, t.maps)))
    only_j = inter == (j_index(t),)
    principal = is_principal(g)
    forward = (not principal) or only_j
    return IntersectionReport(inter, only_j, principal, forward)
