"""Members of the endomorphism monoids as linear operators on C(G).

For finite discrete G, C(G) is the coordinate space indexed by elements,
and a member f acts by composition with its translation map: the operator
matrix M(tau) is 0/1 with a single 1 per row, row x carrying its 1 in
column tau(x).  With the convention apply(M, v)[x] = v[tau(x)],
M(tau_a) M(tau_b) = M(tau_b o tau_a), so the L3.7 law
tau_{f1*f2} = tau_{f2} o tau_{f1} is exactly the statement that
f -> matrix is a monoid homomorphism on either side.  The audit therefore
evaluates that law on translation index arrays and forms no matrix
product.  The assignment is injective because f is recoverable from its
translation (f(x) = tau(x) x^-1).

All arithmetic is exact: determinants come from the permutation structure,
ranks from fraction-free Gaussian elimination over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .endo import (GFun, MonoidTable, left_translation, right_translation,
                   translation_law_witness)
from .errors import ShapeError
from .groupoid import Groupoid


@dataclass(frozen=True, eq=False)
class LinOp:
    """A composition operator: 0/1 matrix with one 1 per row."""

    base: Groupoid
    tau: tuple[int, ...]

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.base.size
        return tuple(
            tuple(1 if c == t else 0 for c in range(n)) for t in self.tau
        )

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.base.size:
            raise ShapeError(f"vector must have length {self.base.size}")
        return tuple(v[t] for t in self.tau)

    def determinant(self) -> int:
        """0 unless tau is a permutation, otherwise its sign."""
        n = self.base.size
        if len(set(self.tau)) != n:
            return 0
        seen = [False] * n
        sign = 1
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.tau[x]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def rank(self) -> int:
        return exact_rank(self.matrix)


def exact_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by Gaussian elimination with Fractions."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def left_operator(f: GFun) -> LinOp:
    """Operator of g -> g composed with the left translation of f (side S)."""
    return LinOp(f.base, left_translation(f))


def right_operator(f: GFun) -> LinOp:
    """Operator of g -> g composed with the right translation of f (side S')."""
    return LinOp(f.base, right_translation(f))


@dataclass(frozen=True)
class Verdict:
    """One check outcome; ``passed`` None means skipped, the reason in ``witness``."""

    passed: bool | None
    witness: tuple | str | None = None

    def as_dict(self):
        out = {"pass": self.passed}
        if self.witness is not None:
            out["witness"] = list(self.witness) if isinstance(self.witness, tuple) else self.witness
        return out


def _audit_one_side(t: MonoidTable, unit_indices, dense_indices) -> dict[str, Verdict]:
    """Matrix-level checks for one monoid table.

    (hom)   matrix(f1 f2) = matrix(f1) . matrix(f2) for every pair, i.e.
            tau_{f1 f2} = tau_{f2} o tau_{f1} against the table;
    (inj)   distinct members give distinct matrices;
    (units) determinant is nonzero exactly on the group of units;
    (dense) exact rank is full exactly on the dense-translation submonoid.
    """
    g, total = t.groupoid, len(t)
    bad = translation_law_witness(t.trans, t.op)
    hom = Verdict(bad is None, bad)

    distinct = len({tuple(map(int, row)) for row in t.trans})
    inj = Verdict(distinct == total, None if distinct == total else (distinct, total))

    unit_set = set(unit_indices)
    dense_set = set(dense_indices)
    units_v = Verdict(True)
    dense_v = Verdict(True)
    for i, f in enumerate(t.elements):
        op_ = LinOp(g, tuple(int(v) for v in t.trans[i]))
        det = op_.determinant()
        if (det != 0) != (i in unit_set):
            units_v = Verdict(False, (i, det))
            break
        if (op_.rank() == g.size) != (i in dense_set):
            dense_v = Verdict(False, (i,))
            break
    return {"hom": hom, "injective": inj, "units_invertible": units_v,
            "dense_full_rank": dense_v}


def _audit_mixed_action(ts: MonoidTable, tsp: MonoidTable, sigma: np.ndarray) -> Verdict:
    """The right action of side S on C(G) through the involution.

    g . f is apply(right_operator(f~), g); the action law has the composite
    on the mirror side of the application order:
        act(g, f1 * f2) = act(act(g, f2), f1).
    That is matrix((f1 * f2)~) = matrix(f1~) . matrix(f2~) for every pair,
    i.e. the translation law of tsp.trans[sigma] against the S table, with
    sigma[i] the index in ``tsp`` of member i's involution image.
    """
    bad = translation_law_witness(tsp.trans[sigma], ts.op)
    return Verdict(bad is None, bad)


def representation_audit(
    ts: MonoidTable,
    tsp: MonoidTable,
    sigma: np.ndarray,
    unit_indices_s, dense_indices_s,
    unit_indices_sp, dense_indices_sp,
) -> dict[str, Verdict]:
    """Full operator audit over both sides plus the mixed right action."""
    left = _audit_one_side(ts, unit_indices_s, dense_indices_s)
    right = _audit_one_side(tsp, unit_indices_sp, dense_indices_sp)
    out = {f"left_{k}": v for k, v in left.items()}
    out.update((f"right_{k}", v) for k, v in right.items())
    out["mixed_right_action"] = _audit_mixed_action(ts, tsp, sigma)
    return out
