"""The combined verification suite over one groupoid.

``full_report`` runs the selected checks over a lazily filled context: one
object per side holds its table and each fact read off it, so a monoid is
enumerated only when a check reads it and each fact is computed once.  Each
claim is decided in ``structure`` or ``operators``, which return a
``Verdict``; a check here adds the side name to a failing witness, or
compares index sets and masks.  ``full_report`` produces a
``StructureReport``: one verdict per check id plus ``structure``, the
structural index sets of side S, built once as the report's JSON block.
The ids below are the stable names used in report files and on the
command line (see the README table for what each one verifies):

    P3.2     monoid laws on both sides; the involution is an isomorphism
    P3.3.1   j is a shared idempotent right zero
    P3.3.2   j left zero  <=>  every member fixes every unit (both sides)
    P3.3.3   the intersection is a left ideal of both monoids
    P3.3.4   the ideal generated by j is minimal in both monoids
    P3.3.5   bijective members have their function inverse on the mirror side
    P3.3.6   the only injective idempotent antihomomorphism member is j
    P3.3.7   the only right-zero antihomomorphism member is j
    P3.3.8   antihomomorphism members of the intersection square identically
    L3.7     the translation embedding is injective and turns * into composition
    P3.8     the unit group is the bijective-translation set, cross-checked
    P3.9     subgroupoid-preserving members form subsemigroups
    P3.10    fiber-meeting criterion for membership among intertwining maps
    P3.11    dense-translation submonoids: cancellative, the table's units, involution-matched
    P4.1     left operator representation (hom, injective, units, dense)
    P4.2     right operator representation (mirror)
    C4.3     the induced mixed right action satisfies its composite law
    CLOSING  principal implies the intersection is exactly {j}; its size
             matches the product of hom-set sizes

A verdict with ``passed None`` was skipped (reason in the witness field);
skipped checks do not count as failures unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .census import intersection_size
from .endo import (
    _BLOCK_CELLS,
    DEFAULT_MONOID_CAP,
    SIDES,
    enumerate_monoid,
    gfun,
    involution_indices,
    star,
    star_prime,
)
from .errors import NotASubgroupoid, ShapeError
from .groupoid import Groupoid, is_principal
from .operators import Verdict, representation_audit
from .structure import (
    antihom_classification,
    bijective_translations,
    cayley_units,
    count_intertwining_maps,
    dense_submonoid,
    group_of_units,
    intersection_analysis,
    j_ideal,
    j_index,
    left_cancellative,
    left_ideal,
    left_zero_criterion,
    minimal_ideal,
    range_domain_sweep,
    special_elements,
    subgroupoid_semigroup,
    units_crosscheck,
    validate_subgroupoid,
)

SUBGROUPOID_SWEEP_LIMIT = 12   # P3.9 sweeps all subsets up to this size, else skips
INTERTWINING_SWEEP_CAP = 1_000_000


@dataclass
class StructureReport:
    """The verdicts plus ``structure``, side S's index sets exactly as the
    report's JSON block prints them."""

    groupoid: Groupoid
    monoid_size: int
    structure: dict
    verdicts: dict[str, Verdict]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values() if v.passed is not None)

    def failed(self) -> list[str]:
        return [k for k, v in self.verdicts.items() if v.passed is False]

    def to_dict(self) -> dict:
        return {
            "groupoid": self.groupoid.name,
            "size": self.groupoid.size,
            "monoid_size": self.monoid_size,
            "checks": {k: v.as_dict() for k, v in self.verdicts.items()},
            "structure": self.structure,
        }


class _Side:
    """One side's table and the facts read off it, each built on first read.

    A table assigned to ``table`` before any fact is read drives every fact.
    """

    def __init__(self, g: Groupoid, name: str, cap):
        self.g = g
        self.name = name
        self.cap = cap

    @cached_property
    def table(self):
        return enumerate_monoid(self.g, self.name, self.cap)

    @cached_property
    def special(self):
        return special_elements(self.table)

    @cached_property
    def units(self):
        return cayley_units(self.table)

    @cached_property
    def j_ideal(self):
        return j_ideal(self.table)

    @cached_property
    def cancellative(self):
        return left_cancellative(self.table)

    @cached_property
    def bijective(self):
        return bijective_translations(self.table)

    @cached_property
    def h1(self):
        return group_of_units(self.table, self.bijective)

    @cached_property
    def tg(self):
        return dense_submonoid(self.table, self.bijective, self.cancellative)


class _Ctx:
    """``sides`` (S, then S') and the facts read off side S alone or both
    sides, each built on first use.

    A check pulls only what it reads, so ``--props CLOSING`` enumerates side
    S alone; the report's structure fields read side S only.  The translation
    law witness and injectivity are cached on each ``MonoidTable`` instead,
    since the operator audit reads them from the tables it is given.
    """

    def __init__(self, g: Groupoid, cap):
        self.g = g
        self.sides = tuple(_Side(g, name, cap) for name in SIDES)

    @cached_property
    def sigma(self):
        s, sp = self.sides
        return involution_indices(s.table, sp.table)

    @cached_property
    def inter(self):
        return intersection_analysis(self.sides[0].table)

    @cached_property
    def antihoms(self):
        s = self.sides[0]
        return antihom_classification(s.table, s.special)

    @cached_property
    def rep_verdicts(self):
        # both reference sets come from the Cayley tables, not from the
        # translations whose ranks the audit reads
        s, sp = self.sides
        return representation_audit(
            s.table, sp.table, self.sigma,
            s.units, np.flatnonzero(s.cancellative),
            sp.units, np.flatnonzero(sp.cancellative),
        )


def _check_p32(ctx: _Ctx) -> Verdict:
    # the monoid laws of both sides were certified when _Ctx enumerated them
    # (enumerate_monoid raises MembershipError otherwise).
    # involution: bijective and converts * into the mirror product, sigma[op_S]
    # == op_S'[sigma][:, sigma] by row blocks; the witness is the first bad cell
    ts, tsp = (side.table for side in ctx.sides)
    if len(set(ctx.sigma.tolist())) != len(ts):
        return Verdict(False, ("involution not bijective",))
    sigma, step = ctx.sigma.astype(ts.op.dtype), max(1, _BLOCK_CELLS // len(ts))
    for i0 in range(0, len(ts), step):
        rows = tsp.op.take(sigma[i0:i0 + step], axis=0)
        bad = sigma.take(ts.op[i0:i0 + step]) != rows.take(sigma, axis=1)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(ts))
            return Verdict(False, (i0 + i, j))
    back = involution_indices(tsp, ts)[ctx.sigma]
    stray = np.flatnonzero(back != np.arange(len(ts)))
    if len(stray):
        return Verdict(False, (int(stray[0]), "involution not involutive"))
    if int(ctx.sigma[ts.identity]) != tsp.identity:
        return Verdict(False, ("identity not preserved",))
    return Verdict(True)


def _check_p331(ctx: _Ctx) -> Verdict:
    for side in ctx.sides:
        j = j_index(side.table)
        if j not in side.special.idempotents or j not in side.special.right_zeros:
            return Verdict(False, (side.name, j))
    return Verdict(True)


def _check_p332(ctx: _Ctx) -> Verdict:
    for side in ctx.sides:
        v = left_zero_criterion(side.table)
        if not v.passed:
            return Verdict(False, (side.name, v.witness))
    return Verdict(True)


def _check_p333(ctx: _Ctx) -> Verdict:
    inter = list(ctx.inter)
    for side, sub in zip(ctx.sides, (inter, ctx.sigma[inter])):
        if not left_ideal(side.table, sub):
            return Verdict(False, (side.name,))
    return Verdict(True)


def _check_p334(ctx: _Ctx) -> Verdict:
    for side in ctx.sides:
        if not minimal_ideal(side.table, side.j_ideal):
            return Verdict(False, (side.name,))
    return Verdict(True)


def _check_p338(ctx: _Ctx) -> Verdict:
    ts, anti = ctx.sides[0].table, ctx.antihoms[0]
    for i in ctx.inter:
        if anti[i]:  # the scalar replay, on the antihomomorphisms only
            f = gfun(ctx.g, ts.maps[i].tolist())
            if star(f, f).map != star_prime(f, f).map:
                return Verdict(False, (i,))
    return Verdict(True)


def _check_l37(ctx: _Ctx) -> Verdict:
    # the certificate proved the law from the product formula; this checks
    # it against the stored table
    ts = ctx.sides[0].table
    if ts.distinct_translations != len(ts):
        return Verdict(False, ("not injective",))
    return Verdict(ts.law_witness is None, ts.law_witness)


def _check_p38(ctx: _Ctx) -> Verdict:
    for side in ctx.sides:
        for v in (side.h1[1], units_crosscheck(side.bijective[0], side.units)):
            if not v.passed:
                return Verdict(False, (side.name, v.witness))
    return Verdict(True)


def _subgroupoids(g: Groupoid):
    found = []
    for mask in range(1, 1 << g.size):
        subset = [x for x in range(g.size) if mask >> x & 1]
        try:
            found.append(validate_subgroupoid(g, subset))
        except NotASubgroupoid:
            continue
    return found


def _check_p39(ctx: _Ctx) -> Verdict:
    if ctx.g.size > SUBGROUPOID_SWEEP_LIMIT:
        return Verdict(None, f"skipped: {ctx.g.size} elements exceed the all-subsets sweep "
                             f"limit of {SUBGROUPOID_SWEEP_LIMIT}")
    for sub in _subgroupoids(ctx.g):
        v = subgroupoid_semigroup(sub, ctx.sides[0].table)
        if not v.passed:
            return Verdict(False, (sub, v.witness))
    return Verdict(True, "all-subsets")


def _check_p310(ctx: _Ctx) -> Verdict:
    count = count_intertwining_maps(ctx.g)
    if count > INTERTWINING_SWEEP_CAP:
        return Verdict(None, f"skipped: {count} intertwining maps exceed the sweep cap")
    return range_domain_sweep(ctx.g)


def _check_p311(ctx: _Ctx) -> Verdict:
    for side in ctx.sides:
        if not side.tg.passed:
            return Verdict(False, (side.name, side.tg.witness))
        # at finite scale T_G is the unit group, read here from the table alone
        stray = set(side.bijective[0]) ^ set(side.units)
        if stray:
            return Verdict(False, (side.name, "units", min(stray)))
    # the involution carries T_G onto T_G', which was computed from the S' table
    tg, tgp = (side.bijective[0] for side in ctx.sides)
    mirror = set(tgp)
    for i in tg:
        if int(ctx.sigma[i]) not in mirror:
            return Verdict(False, ("involution", "S", i))
    missed = mirror - {int(ctx.sigma[i]) for i in tg}
    if missed:
        return Verdict(False, ("involution", "S'", min(missed)))
    return Verdict(True)


def _check_operators(ctx: _Ctx, side: str) -> Verdict:
    """P4.1 on side "left", P4.2 on side "right": the first failing audit verdict."""
    for key in (f"{side}_{k}" for k in ("hom", "injective", "units_invertible", "dense_full_rank")):
        if not ctx.rep_verdicts[key].passed:
            return Verdict(False, (key, ctx.rep_verdicts[key].witness))
    return Verdict(True)


def _check_c43(ctx: _Ctx) -> Verdict:
    return ctx.rep_verdicts["mixed_right_action"]


def _check_closing(ctx: _Ctx) -> Verdict:
    # the intersection enumerated from side S against the product of hom-set sizes
    size, _ = intersection_size(ctx.g)
    if len(ctx.inter) != size:
        return Verdict(False, ("enumerated", len(ctx.inter), "closed form", size))
    principal = is_principal(ctx.g)
    only_j = ctx.inter == (j_index(ctx.sides[0].table),)
    return Verdict(not principal or only_j, ("principal", principal, "only_j", only_j))


_CHECKS = {
    "P3.2": _check_p32,
    "P3.3.1": _check_p331,
    "P3.3.2": _check_p332,
    "P3.3.3": _check_p333,
    "P3.3.4": _check_p334,
    "P3.3.5": lambda ctx: ctx.antihoms[1],
    "P3.3.6": lambda ctx: ctx.antihoms[2],
    "P3.3.7": lambda ctx: ctx.antihoms[3],
    "P3.3.8": _check_p338,
    "L3.7": _check_l37,
    "P3.8": _check_p38,
    "P3.9": _check_p39,
    "P3.10": _check_p310,
    "P3.11": _check_p311,
    "P4.1": lambda ctx: _check_operators(ctx, "left"),
    "P4.2": lambda ctx: _check_operators(ctx, "right"),
    "C4.3": _check_c43,
    "CLOSING": _check_closing,
}

CHECK_IDS = tuple(_CHECKS)


def full_report(
    g: Groupoid,
    checks: tuple[str, ...] | None = None,
    cap: int = DEFAULT_MONOID_CAP,
) -> StructureReport:
    """Run the selected checks (default: all) and assemble the report."""
    selected = CHECK_IDS if checks is None else tuple(checks)
    unknown = [c for c in selected if c not in _CHECKS]
    if unknown:
        raise ShapeError(f"unknown check ids: {unknown}")
    ctx = _Ctx(g, cap)
    verdicts = {cid: _CHECKS[cid](ctx) for cid in CHECK_IDS if cid in selected}
    s = ctx.sides[0]
    structure = {
        "idempotents": list(s.special.idempotents),
        "right_zeros": list(s.special.right_zeros),
        "left_zeros": list(s.special.left_zeros),
        "unit_group": {"indices": list(s.bijective[0]),
                       "inverse": {str(k): v for k, v in s.h1[0].items()}},
        "tg": list(s.bijective[0]),
        "j_ideal": list(s.j_ideal),
        "intersection": list(ctx.inter),
    }
    return StructureReport(g, len(s.table), structure, verdicts)
