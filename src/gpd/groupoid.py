"""Finite groupoids as validated partial-product tables.

Elements are dense ids 0..n-1.  The product is an n x n table whose entry
is the product id or the sentinel -1 for a non-composable pair; the inverse
is a total length-n array.  A ``Groupoid`` is only ever produced by
``build_groupoid``, which checks every axiom exhaustively (all pairs and
all triples), so downstream code trusts the derived range/domain maps and
fiber decompositions without re-checking.  ``make_groupoid`` and
``make_action`` take an ``int`` (never a bool, float or numeric string)
wherever a file holds a JSON integer and a ``str`` name, and raise
``ShapeError`` otherwise; the file reader calls them, so Python callers and
files meet one rule.

All groupoids carry the discrete topology, under which every self-map is
continuous; no continuity conditions are represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    ActionViolation,
    AxiomViolation,
    CapExceeded,
    ShapeError,
)

UNDEFINED = -1

# Constructors refuse element counts above this.
MAX_ELEMENTS = 64


@dataclass(frozen=True)
class GroupoidSpec:
    """Unvalidated groupoid data, exactly as it appears on disk."""

    size: int
    product: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    name: str = ""


def _ints(values, field: str) -> tuple[int, ...]:
    """``values`` as a tuple, each exactly an ``int``: a bool, float or
    numeric string is refused, never coerced, by one C-level scan of types."""
    row = tuple(values)
    if not {int}.issuperset(map(type, row)):
        bad = next(v for v in row if type(v) is not int)
        raise ShapeError(f"{field} holds {bad!r}, not a JSON integer")
    return row


def _as_spec(size, product, inverse, name) -> GroupoidSpec:
    """The one typing rule, for files and Python callers alike: integers where
    a groupoid file holds JSON integers, a ``str`` name."""
    if type(name) is not str:
        raise ShapeError(f"name holds {name!r}, not a JSON string")
    try:
        return GroupoidSpec(_ints([size], "size")[0],
                            tuple(_ints(row, "product") for row in product),
                            _ints(inverse, "inverse"), name)
    except TypeError as exc:  # a table or row that is not a sequence
        raise ShapeError(f"malformed groupoid: {exc}") from None


@dataclass(frozen=True)
class Groupoid:
    """A validated finite groupoid with derived structure maps."""

    size: int
    product: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    name: str
    range_map: tuple[int, ...]
    domain_map: tuple[int, ...]
    units: tuple[int, ...]

    def mul(self, x: int, y: int) -> int:
        """Product id, or -1 when (x, y) is not composable."""
        return self.product[x][y]

    def defined(self, x: int, y: int) -> bool:
        return self.product[x][y] != UNDEFINED

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def r(self, x: int) -> int:
        return self.range_map[x]

    def d(self, x: int) -> int:
        return self.domain_map[x]

    def elements(self) -> range:
        return range(self.size)

    def is_unit(self, x: int) -> bool:
        return self.range_map[x] == x and self.domain_map[x] == x

    @cached_property
    def d_fibers(self) -> dict[int, tuple[int, ...]]:
        """unit u -> sorted ids of {x : d(x) = u}."""
        out: dict[int, list[int]] = {u: [] for u in self.units}
        for x in self.elements():
            out[self.domain_map[x]].append(x)
        return {u: tuple(v) for u, v in out.items()}

    @cached_property
    def r_fibers(self) -> dict[int, tuple[int, ...]]:
        """unit u -> sorted ids of {x : r(x) = u}."""
        out: dict[int, list[int]] = {u: [] for u in self.units}
        for x in self.elements():
            out[self.range_map[x]].append(x)
        return {u: tuple(v) for u, v in out.items()}

    @cached_property
    def defined_count(self) -> int:
        return sum(1 for row in self.product for v in row if v != UNDEFINED)

    def __repr__(self):
        label = self.name or "groupoid"
        return f"<{label}: {self.size} elements, {len(self.units)} units>"


def _check_shape(spec: GroupoidSpec):
    n = spec.size
    if n < 1:
        raise ShapeError(f"size must be >= 1, got {n}")
    if len(spec.product) != n or any(len(row) != n for row in spec.product):
        raise ShapeError(f"product table must be {n}x{n}")
    for i, row in enumerate(spec.product):
        for j, v in enumerate(row):
            if not (v == UNDEFINED or 0 <= v < n):
                raise ShapeError(f"product[{i}][{j}] = {v} out of range")
    if len(spec.inverse) != n:
        raise ShapeError(f"inverse must have length {n}")
    for x, v in enumerate(spec.inverse):
        if not 0 <= v < n:
            raise ShapeError(f"inverse[{x}] = {v} out of range")


def build_groupoid(spec: GroupoidSpec) -> Groupoid:
    """Validate a raw table against every groupoid axiom and derive r, d, units.

    Checks, in order: the involution law (x^-1)^-1 = x; that (x^-1, x) and
    (x, x^-1) are composable, which yields r(x) = x x^-1 and d(x) = x^-1 x;
    that (x, y) is composable exactly when r(y) = d(x); that products stay
    in the expected fibers (r(xy) = r(x), d(xy) = d(y)); the cancellation
    laws x^-1(xy) = y and (zx)x^-1 = z; full associativity over all triples
    of defined pairs; unit absorption r(x)x = x = x d(x); and that range and
    domain have the same image (the unit space).  Every check is an
    exhaustive scan; nothing is sampled.
    """
    _check_shape(spec)
    n = spec.size
    if n > MAX_ELEMENTS:
        raise CapExceeded(f"groupoid size {n} exceeds cap {MAX_ELEMENTS}", predicted=n)
    prod, inv = spec.product, spec.inverse

    for x in range(n):
        if inv[inv[x]] != x:
            raise AxiomViolation("double-inverse", (x,))

    for x in range(n):
        if prod[inv[x]][x] == UNDEFINED or prod[x][inv[x]] == UNDEFINED:
            raise AxiomViolation("self-composable", (x,))
    rng = tuple(prod[x][inv[x]] for x in range(n))
    dom = tuple(prod[inv[x]][x] for x in range(n))

    for x in range(n):
        for y in range(n):
            if (prod[x][y] != UNDEFINED) != (rng[y] == dom[x]):
                raise AxiomViolation("composability", (x, y))

    for x in range(n):
        for y in range(n):
            z = prod[x][y]
            if z == UNDEFINED:
                continue
            if rng[z] != rng[x] or dom[z] != dom[y]:
                raise AxiomViolation("product-fiber", (x, y))
            if prod[inv[x]][z] != y:
                raise AxiomViolation("left-cancellation", (x, y))
            if prod[z][inv[y]] != x:
                raise AxiomViolation("right-cancellation", (x, y))

    for x in range(n):
        row_x = prod[x]
        for y in range(n):
            xy = row_x[y]
            if xy == UNDEFINED:
                continue
            row_y = prod[y]
            for z in range(n):
                yz = row_y[z]
                if yz == UNDEFINED:
                    continue
                left = prod[xy][z]
                right = row_x[yz]
                if left == UNDEFINED or right == UNDEFINED or left != right:
                    raise AxiomViolation("associativity", (x, y, z))

    for x in range(n):
        if prod[rng[x]][x] != x or prod[x][dom[x]] != x:
            raise AxiomViolation("unit-absorption", (x,))

    units = sorted(set(rng))
    if set(dom) != set(units):
        raise AxiomViolation("unit-space", tuple(sorted(set(dom) ^ set(units))))

    return Groupoid(
        size=n,
        product=prod,
        inverse=inv,
        name=spec.name,
        range_map=rng,
        domain_map=dom,
        units=tuple(units),
    )


def make_groupoid(size, product, inverse, name="") -> Groupoid:
    """Type-check raw sequences into a spec (``_as_spec``) and validate it."""
    return build_groupoid(_as_spec(size, product, inverse, name))


# ---------------------------------------------------------------------------
# constructors


def pair_groupoid(n: int) -> Groupoid:
    """Full-relation groupoid on n units: elements are pairs (i, j), id = n*i + j,
    with (i,j)(j,k) = (i,k) and (i,j)^-1 = (j,i)."""
    if n < 1:
        raise ShapeError(f"need n >= 1, got {n}")
    if n * n > MAX_ELEMENTS:
        raise CapExceeded(f"pair groupoid on {n} units has {n * n} elements, cap {MAX_ELEMENTS}",
                          predicted=n * n)
    size = n * n
    prod = [[UNDEFINED] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod[n * i + j][n * j + k] = n * i + k
    inv = [n * (x % n) + x // n for x in range(size)]
    return make_groupoid(size, prod, inv, f"pair({n})")


def group_as_groupoid(cayley, inverse, name="") -> Groupoid:
    """A group given by a total Cayley table, seen as a one-unit groupoid.

    The generic validator rejects any table that is not a group: a total
    product passing the groupoid axioms forces a single unit acting as a
    two-sided identity, with the supplied inverses.
    """
    g = make_groupoid(len(cayley), cayley, inverse, name)
    if any(UNDEFINED in row for row in g.product):
        raise AxiomViolation("total-product", ())
    return g


def unit_groupoid(n: int) -> Groupoid:
    """n isolated units: G = G0, only the products u*u = u are defined."""
    if n < 1:
        raise ShapeError(f"need n >= 1, got {n}")
    if n > MAX_ELEMENTS:
        raise CapExceeded(f"unit groupoid on {n} units exceeds cap {MAX_ELEMENTS}", predicted=n)
    prod = [[i if i == j else UNDEFINED for j in range(n)] for i in range(n)]
    return make_groupoid(n, prod, list(range(n)), f"units({n})")


def disjoint_union(g1: Groupoid, g2: Groupoid, name="") -> Groupoid:
    """Tagged union: g1 keeps its ids, g2 is shifted by |g1|; no cross products."""
    n1, n2 = g1.size, g2.size
    n = n1 + n2
    prod = [[UNDEFINED] * n for _ in range(n)]
    for x in range(n1):
        for y in range(n1):
            prod[x][y] = g1.product[x][y]
    for x in range(n2):
        for y in range(n2):
            v = g2.product[x][y]
            prod[n1 + x][n1 + y] = UNDEFINED if v == UNDEFINED else n1 + v
    inv = list(g1.inverse) + [n1 + v for v in g2.inverse]
    label = name or f"union({g1.name or 'g1'},{g2.name or 'g2'})"
    return make_groupoid(n, prod, inv, label)


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on a finite set on the right.

    ``group`` must be a one-unit groupoid with a total product; ``act`` is a
    space x |T| table sending (u, t) to u.t.  ``validate_action`` checks the
    identity and compatibility laws.
    """

    group: Groupoid
    space: int
    act: tuple[tuple[int, ...], ...]


def validate_action(a: GroupAction) -> GroupAction:
    t = a.group
    if len(t.units) != 1 or any(UNDEFINED in row for row in t.product):
        raise ShapeError("acting structure must be a group (one unit, total product)")
    if a.space < 1:
        raise ShapeError(f"space must be >= 1, got {a.space}")
    if len(a.act) != a.space or any(len(row) != t.size for row in a.act):
        raise ShapeError(f"act table must be {a.space} x {t.size}")
    for row in a.act:
        for v in row:
            if not 0 <= v < a.space:
                raise ShapeError(f"act value {v} out of range")
    e = t.units[0]
    for u in range(a.space):
        if a.act[u][e] != u:
            raise ActionViolation("identity", (u,))
    for u in range(a.space):
        for x in range(t.size):
            for y in range(t.size):
                if a.act[a.act[u][x]][y] != a.act[u][t.mul(x, y)]:
                    raise ActionViolation("compatibility", (u, x, y))
    return a


def make_action(group: Groupoid, space: int, act) -> GroupAction:
    """Type-check ``space`` and ``act`` by ``_as_spec``'s rule and validate the action."""
    try:
        a = GroupAction(group, _ints([space], "space")[0], tuple(_ints(row, "act") for row in act))
    except TypeError as exc:  # a table or row that is not a sequence
        raise ShapeError(f"malformed action: {exc}") from None
    return validate_action(a)


def transformation_groupoid(a: GroupAction, name="") -> Groupoid:
    """Groupoid U x T of a right action: elements (u, t), id = u*|T| + t.

    (u, t) and (v, t') compose exactly when v = u.t, giving (u, t t');
    (u, t)^-1 = (u.t, t^-1).  Units are the elements (u, e).
    """
    validate_action(a)
    t = a.group
    m, k = a.space, t.size
    size = m * k
    if size > MAX_ELEMENTS:
        raise CapExceeded(f"transformation groupoid has {size} elements, cap {MAX_ELEMENTS}",
                          predicted=size)
    prod = [[UNDEFINED] * size for _ in range(size)]
    for u in range(m):
        for x in range(k):
            v = a.act[u][x]
            for y in range(k):
                prod[u * k + x][v * k + y] = u * k + t.mul(x, y)
    inv = [a.act[u][x] * k + t.inverse[x] for u in range(m) for x in range(k)]
    label = name or f"transform({t.name or 'T'} on {m})"
    return make_groupoid(size, prod, inv, label)


# ---------------------------------------------------------------------------
# predicates on groupoids and maps


def is_principal(g: Groupoid) -> bool:
    """True when x -> (r(x), d(x)) is injective."""
    seen = set()
    for x in g.elements():
        key = (g.range_map[x], g.domain_map[x])
        if key in seen:
            return False
        seen.add(key)
    return True


def _check_map(g: Groupoid, m: Sequence[int], codomain: int):
    if len(m) != g.size:
        raise ShapeError(f"map must have length {g.size}, got {len(m)}")
    for x, v in enumerate(m):
        if not 0 <= v < codomain:
            raise ShapeError(f"map[{x}] = {v} out of range")


@dataclass(frozen=True)
class MorphismReport:
    homomorphism: bool
    antihomomorphism: bool
    isomorphism: bool
    units_to_units: bool
    inverses_to_inverses: bool


def _is_hom(g: Groupoid, h: Groupoid, m: Sequence[int]) -> bool:
    for x in g.elements():
        for y in g.elements():
            xy = g.product[x][y]
            if xy != UNDEFINED and h.product[m[x]][m[y]] != m[xy]:
                return False
    return True


def morphism_classify(g: Groupoid, h: Groupoid, m: Sequence[int]) -> MorphismReport:
    """Classify a total map m: G -> H.

    m is a homomorphism when every composable (x, y) lands on a composable
    image pair with m(xy) = m(x)m(y); an antihomomorphism when the image
    pair is composable in the reversed order with m(xy) = m(y)m(x); an
    isomorphism when it is a bijective homomorphism whose inverse map is
    again a homomorphism (the latter is not automatic for partial products).
    """
    _check_map(g, m, h.size)
    m = tuple(m)
    hom = _is_hom(g, h, m)
    anti = True
    for x in g.elements():
        for y in g.elements():
            xy = g.product[x][y]
            if xy != UNDEFINED and h.product[m[y]][m[x]] != m[xy]:
                anti = False
                break
        if not anti:
            break

    iso = False
    if hom and g.size == h.size and len(set(m)) == g.size:
        back = [0] * h.size
        for x, v in enumerate(m):
            back[v] = x
        iso = _is_hom(h, g, back)

    u2u = all(m[u] in h.units for u in g.units)
    i2i = all(m[g.inverse[x]] == h.inverse[m[x]] for x in g.elements())
    return MorphismReport(hom, anti, iso, u2u, i2i)
