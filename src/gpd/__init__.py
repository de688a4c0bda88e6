"""Finite groupoids, their endomorphism monoids, and machine verification.

Build or load a small groupoid, enumerate the monoid of fiber-compatible
self-maps on either side, analyse its semigroup structure, represent it by
exact integer composition operators, and run the verification suite; a
census of all groupoids up to order 20 feeds an exhaustive search probe.
"""

from .groupoid import (
    GroupAction,
    Groupoid,
    GroupoidSpec,
    build_groupoid,
    disjoint_union,
    group_as_groupoid,
    is_principal,
    make_action,
    make_groupoid,
    morphism_classify,
    pair_groupoid,
    transformation_groupoid,
    unit_groupoid,
)
from .endo import (
    GFun,
    MonoidTable,
    enumerate_monoid,
    gfun,
    involution_star,
    law_scan,
    membership,
    predicted_size,
    star,
    star_prime,
)
from .report import CHECK_IDS, StructureReport, full_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
