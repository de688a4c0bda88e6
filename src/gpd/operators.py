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

All arithmetic is exact and read off the translation array: M(tau) has
one 1 per row, so its rank is the number of distinct values of tau, it is
invertible exactly when tau is a permutation, and then its determinant is
the sign of that permutation (``permutation_sign``, which a failing
P4.x ``units_invertible`` witness reports).  No operator object is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .endo import MonoidTable, translation_law_witness


def permutation_sign(tau) -> int:
    """det M(tau): 0 unless ``tau`` permutes ``range(len(tau))``, else its sign."""
    n = len(tau)
    if set(tau) != set(range(n)):
        return 0
    seen, cycles = [False] * n, 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = tau[x]
    return -1 if (n - cycles) % 2 else 1


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


def translation_ranks(trans: np.ndarray) -> np.ndarray:
    """rank M(tau) for each row tau of ``trans``: its number of distinct values."""
    s = np.sort(trans, axis=1)
    return 1 + (s[:, 1:] != s[:, :-1]).sum(axis=1)


def _first_mismatch(full: np.ndarray, indices) -> int | None:
    """The first member where ``full`` disagrees with membership in ``indices``."""
    stray = np.flatnonzero(full != np.isin(np.arange(len(full)), indices))
    return int(stray[0]) if len(stray) else None


def _audit_one_side(t: MonoidTable, unit_indices, cancellative_indices) -> dict[str, Verdict]:
    """Matrix-level checks for one monoid table.

    (hom)   matrix(f1 f2) = matrix(f1) . matrix(f2) for every pair, i.e.
            tau_{f1 f2} = tau_{f2} o tau_{f1} against the table;
    (inj)   distinct members give distinct matrices;
    (units) determinant is nonzero exactly on the two-sided-invertible members;
    (dense) rank is full exactly on the left-cancellative members.
    Both reference sets are read from the Cayley table, never from ``trans``.
    """
    g, total = t.groupoid, len(t)
    full = translation_ranks(t.trans) == g.size  # det != 0 exactly at full rank
    units_v = dense_v = Verdict(True)
    i = _first_mismatch(full, unit_indices)
    if i is not None:
        units_v = Verdict(False, (i, permutation_sign(t.trans[i].tolist())))
    i = _first_mismatch(full, cancellative_indices)
    if i is not None:
        dense_v = Verdict(False, (i,))
    distinct = t.distinct_translations
    return {"hom": Verdict(t.law_witness is None, t.law_witness),
            "injective": Verdict(distinct == total, None if distinct == total else (distinct, total)),
            "units_invertible": units_v, "dense_full_rank": dense_v}


def _audit_mixed_action(ts: MonoidTable, tsp: MonoidTable, sigma: np.ndarray) -> Verdict:
    """The right action of side S on C(G) through the involution.

    g . f applies the operator of f~'s right translation to g; the action
    law has the composite on the mirror side of the application order:
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
    unit_indices_s, cancellative_indices_s,
    unit_indices_sp, cancellative_indices_sp,
) -> dict[str, Verdict]:
    """Full operator audit over both sides plus the mixed right action."""
    left = _audit_one_side(ts, unit_indices_s, cancellative_indices_s)
    right = _audit_one_side(tsp, unit_indices_sp, cancellative_indices_sp)
    out = {f"left_{k}": v for k, v in left.items()}
    out.update((f"right_{k}", v) for k, v in right.items())
    out["mixed_right_action"] = _audit_mixed_action(ts, tsp, sigma)
    return out
