"""Named small groupoids used throughout the test and verification suites."""

from __future__ import annotations

from .errors import CapExceeded
from .groupoid import (
    MAX_ELEMENTS,
    GroupAction,
    Groupoid,
    disjoint_union,
    group_as_groupoid,
    make_action,
    pair_groupoid,
    transformation_groupoid,
    unit_groupoid,
)


def trivial() -> Groupoid:
    return group_as_groupoid([[0]], [0], "trivial")


def cyclic(n: int) -> Groupoid:
    """The cyclic group of order n as a one-unit groupoid."""
    if n > MAX_ELEMENTS:
        raise CapExceeded(f"cyclic group of order {n} exceeds cap {MAX_ELEMENTS}", predicted=n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    return group_as_groupoid(table, inv, f"C{n}")


def klein_four() -> Groupoid:
    """Z/2 x Z/2 with elements numbered in bit order."""
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return group_as_groupoid(table, [0, 1, 2, 3], "V4")


def swap_action() -> GroupAction:
    """C2 acting on two points, the generator swapping them."""
    c2 = cyclic(2)
    return make_action(c2, 2, [[0, 1], [1, 0]])


def swap_transformation_groupoid() -> Groupoid:
    return transformation_groupoid(swap_action(), "transform(C2 swap)")


def standard_corpus() -> list[tuple[str, Groupoid]]:
    """The fixed verification corpus, in a stable order."""
    return [
        ("trivial", trivial()),
        ("units(2)", unit_groupoid(2)),
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("V4", klein_four()),
        ("pair(2)", pair_groupoid(2)),
        ("pair(3)", pair_groupoid(3)),
        ("C2+C2", disjoint_union(cyclic(2), cyclic(2), "C2+C2")),
        ("transform", swap_transformation_groupoid()),
    ]
