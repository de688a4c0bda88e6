import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from gpd import corpus
from gpd.endo import (
    _code_width,
    enumerate_monoid,
    gfun,
    involution_indices,
    involution_star,
    left_translation,
    right_translation,
    star,
    translation_law_witness,
)
from gpd.errors import MembershipError, ShapeError
from gpd.groupoid import Groupoid
from gpd.operators import permutation_sign, representation_audit, translation_ranks
from gpd.structure import cayley_units, left_cancellative


@dataclass(frozen=True, eq=False)
class Operator:
    """A composition operator with its 0/1 matrix and its action on vectors,
    apply(M, v)[x] = v[tau(x)]; the audit reads ranks and signs off tau."""

    base: Groupoid
    tau: tuple[int, ...]

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.base.size
        return tuple(tuple(1 if c == t else 0 for c in range(n)) for t in self.tau)

    def apply(self, v) -> tuple[int, ...]:
        if len(v) != self.base.size:
            raise ShapeError(f"vector must have length {self.base.size}")
        return tuple(v[t] for t in self.tau)

    def determinant(self) -> int:
        return permutation_sign(self.tau)


def left_operator(f) -> Operator:
    """Operator of g -> g composed with the left translation of f (side S)."""
    return Operator(f.base, left_translation(f))


def right_operator(f) -> Operator:
    """Operator of g -> g composed with the right translation of f (side S')."""
    return Operator(f.base, right_translation(f))


def exact_rank(matrix):
    """Rank over the rationals by Gaussian elimination with Fractions: the
    oracle for the ranks the audit reads off translation arrays."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / rows[rank][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_left_operator_identity(c2, pair2):
    for g in (c2, pair2):
        r = gfun(g, g.range_map)
        op = left_operator(r)
        n = g.size
        assert op.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        assert op.determinant() == 1


def test_left_operator_const_a_is_swap(c2):
    op = left_operator(gfun(c2, (1, 1)))
    assert op.matrix == ((0, 1), (1, 0))
    assert op.determinant() == -1
    assert op.apply((5, 7)) == (7, 5)


def test_left_operator_j_rank(pair2):
    op = left_operator(gfun(pair2, pair2.inverse))
    # row x has its 1 in column d(x); the rank is the number of units
    assert op.tau == tuple(pair2.domain_map)
    assert exact_rank(op.matrix) == len(pair2.units)
    assert op.determinant() == 0


def test_right_operator_basics(c2, pair2):
    for g in (c2, pair2):
        d = gfun(g, g.domain_map)
        assert right_operator(d).tau == tuple(range(g.size))
        j = gfun(g, g.inverse)
        assert right_operator(j).tau == tuple(g.range_map)
    assert right_operator(gfun(c2, (1, 1))).matrix == ((0, 1), (1, 0))


def test_operator_membership_errors(pair2):
    bad = gfun(pair2, [1, 1, 1, 1])
    with pytest.raises(MembershipError):
        left_operator(bad)
    r = gfun(pair2, pair2.range_map)  # in S but not in S'
    with pytest.raises(MembershipError):
        right_operator(r)
    with pytest.raises(ShapeError):
        left_operator(gfun(pair2, pair2.range_map)).apply((1, 2))


def test_one_hot_rows_and_linearity(pair2):
    ops = [left_operator(gfun(pair2, pair2.range_map)),
           left_operator(gfun(pair2, pair2.inverse))]
    for op in ops:
        for row in op.matrix:
            assert sum(row) == 1
        # exact linearity on integer vectors
        u = (1, -2, 3, 5)
        v = (7, 0, -1, 2)
        au_bv = tuple(3 * a + 4 * b for a, b in zip(u, v))
        got = op.apply(au_bv)
        expect = tuple(3 * a + 4 * b for a, b in zip(op.apply(u), op.apply(v)))
        assert got == expect


def test_exact_rank():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 1], [1, 1]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[2, 4], [1, 2]]) == 1


def test_matrix_homomorphism_c2(sg_c2):
    # matrix(f1 * f2) == matrix(f1) @ matrix(f2) over all 16 pairs
    mats = [np.array(left_operator(gfun(sg_c2.groupoid, m)).matrix) for m in sg_c2.maps.tolist()]
    for i, j in itertools.product(range(4), repeat=2):
        got = mats[i] @ mats[j]
        expect = mats[sg_c2.mul(i, j)]
        assert np.array_equal(got, expect)


def _audit(g):
    # the reference sets the report passes: both read from the Cayley tables
    ts = enumerate_monoid(g, "S")
    tsp = enumerate_monoid(g, "S'")
    return representation_audit(ts, tsp, involution_indices(ts, tsp),
                                cayley_units(ts), np.flatnonzero(left_cancellative(ts)),
                                cayley_units(tsp), np.flatnonzero(left_cancellative(tsp)))


def test_audit_ranks_match_exact_rank(small_corpus):
    # every member of both sides: the rank read off the translation equals
    # the eliminated rank of its matrix, and det != 0 exactly at full rank
    c3c3 = corpus.disjoint_union(corpus.cyclic(3), corpus.cyclic(3))
    for name, g in small_corpus + [("C3+C3", c3c3)]:
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            ranks = translation_ranks(t.trans)
            for i, tau in enumerate(t.trans):
                op = Operator(g, tuple(int(v) for v in tau))
                assert ranks[i] == exact_rank(op.matrix), (name, side, i)
                assert (op.determinant() != 0) == (ranks[i] == g.size), (name, side, i)
                assert op.determinant() == round(np.linalg.det(op.matrix)), (name, side, i)


def test_representation_audit_c2(c2):
    verdicts = _audit(c2)
    assert all(v.passed for v in verdicts.values()), verdicts


def test_representation_audit_pair2(pair2):
    verdicts = _audit(pair2)
    assert all(v.passed for v in verdicts.values()), verdicts


def test_representation_audit_small(small_corpus):
    for name, g in small_corpus:
        if g.size > 4:
            continue
        verdicts = _audit(g)
        assert all(v.passed for v in verdicts.values()), (name, verdicts)


def test_mixed_action_vector_form(sg_c2, spg_c2):
    # act(g, f) = apply(right_operator(f~), g); the composite law runs with
    # the arguments mirrored: act(g, f1 * f2) = act(act(g, f2), f1)
    def act(vec, f):
        return right_operator(involution_star(f)).apply(vec)

    basis = [tuple(1 if i == k else 0 for i in range(2)) for k in range(2)]
    members = [gfun(sg_c2.groupoid, m) for m in sg_c2.maps.tolist()]
    for f1, f2 in itertools.product(members, repeat=2):
        prod = members[sg_c2.mul(*sg_c2.rank([f1.map, f2.map]))]
        for vec in basis:
            assert act(vec, prod) == act(act(vec, f2), f1)


# the operator homomorphism law by integer matmul over every pair, kept here
# as an oracle independent of the translation-array evaluation in the audit


def _matrix_stack(taus, n):
    total = len(taus)
    mats = np.zeros((total, n, n), dtype=np.int64)
    mats[np.arange(total)[:, None], np.arange(n)[None, :], taus] = 1
    return mats


def matmul_law_witness(trans, op):
    """First (i, j), row-major, with M(tau_i) M(tau_j) != M(tau_{op[i, j]})."""
    n = trans.shape[1]
    mats = _matrix_stack(trans, n)
    total = len(op)
    chunk = max(1, 2_000_000 // max(1, total * n * n))
    for i0 in range(0, total, chunk):
        blk = mats[i0:i0 + chunk]
        prod = np.matmul(blk[:, None, :, :], mats[None, :, :, :])
        expect = mats[op[i0:i0 + len(blk)]]
        if not np.array_equal(prod, expect):
            bad = np.argwhere((prod != expect).any(axis=(2, 3)))[0]
            return int(i0 + bad[0]), int(bad[1])
    return None


def test_translation_law_agrees_with_matmul_oracle(small_corpus):
    for name, g in small_corpus:
        ts, tsp = enumerate_monoid(g, "S"), enumerate_monoid(g, "S'")
        assert len(ts) <= 256, name
        sigma = involution_indices(ts, tsp)
        # side S, side S', and the mixed action through the involution
        for trans, op in ((ts.trans, ts.op), (tsp.trans, tsp.op), (tsp.trans[sigma], ts.op)):
            assert translation_law_witness(trans, op) == matmul_law_witness(trans, op) is None


def loop_law_witness(trans, op):
    """The row-by-row translation-law scan: the first (i, j), row-major, with
    tau_{op[i, j]} != tau_j o tau_i, one row of the table at a time."""
    cols = np.ascontiguousarray(trans.T)  # cols[x, k] = tau_k(x)
    for i in range(len(op)):
        bad = np.take(cols, op[i], axis=1) != cols[trans[i]]
        if bad.any():
            return i, int(np.argmax(bad.any(axis=0)))
    return None


def test_translation_law_witness_matches_oracle_on_mutants(c2, c3, pair2):
    # every wrong value in every cell for C2 and pair(2); for C3 (729 cells
    # per side) each cell moves to the next index
    cases = 0
    for g, every_value in ((c2, True), (pair2, True), (c3, False)):
        for side in ("S", "S'"):
            t = enumerate_monoid(g, side)
            total = len(t)
            assert translation_law_witness(t.trans, t.op) is None
            for i, j in itertools.product(range(total), repeat=2):
                v = int(t.op[i, j])
                values = range(total) if every_value else [(v + 1) % total]
                op = t.op.copy()
                for w in values:
                    if w == v:
                        continue
                    op[i, j] = w
                    witness = translation_law_witness(t.trans, op)
                    # translations are injective, so the cell itself is the witness
                    assert witness == matmul_law_witness(t.trans, op) == (i, j)
                    if every_value:
                        assert witness == loop_law_witness(t.trans, op)
                    cases += 1
    assert cases == 2 * (16 * 3 + 256 * 15 + 729)


def _trans_mutants(trans, count, seed):
    """``count`` copies of ``trans``, each with one entry moved to another value."""
    rng = np.random.default_rng(seed)
    total, n = trans.shape
    for _ in range(count):
        i, x = int(rng.integers(total)), int(rng.integers(n))
        mutant = trans.copy()
        mutant[i, x] = (mutant[i, x] + int(rng.integers(1, n))) % n
        yield mutant


def test_translation_law_witness_matches_loop_on_trans_mutants(small_corpus):
    found = 0
    for name, g in small_corpus:
        if g.size < 2:
            continue
        ts, tsp = enumerate_monoid(g, "S"), enumerate_monoid(g, "S'")
        sigma = involution_indices(ts, tsp)
        # side S, side S', and the mixed action through the involution
        for k, (trans, op) in enumerate(((ts.trans, ts.op), (tsp.trans, tsp.op),
                                         (tsp.trans[sigma], ts.op))):
            for mutant in _trans_mutants(trans, 25, k):
                witness = translation_law_witness(mutant, op)
                assert witness == loop_law_witness(mutant, op), (name, k)
                found += witness is not None
    assert found > 0


def test_translation_law_witness_on_the_mixed_action(c3, pair2):
    for g in (c3, pair2):
        ts, tsp = enumerate_monoid(g, "S"), enumerate_monoid(g, "S'")
        trans = tsp.trans[involution_indices(ts, tsp)]
        assert translation_law_witness(trans, ts.op) is None
        total = len(ts)
        for i, j in ((0, 0), (1, total - 1), (total - 1, 2), (total // 2, total // 3)):
            op = ts.op.copy()
            op[i, j] = (op[i, j] + 1) % total
            assert translation_law_witness(trans, op) == loop_law_witness(trans, op) == (i, j)


def test_translation_codes_are_exact_in_float64():
    # a group of w positions codes below n^w <= 2^53, where float64 holds
    # every integer, and is as wide as that allows
    for n in range(2, 65):
        w = _code_width(n)
        assert 1 <= w <= n and n ** w <= 2 ** 53 and (w == n or n ** (w + 1) > 2 ** 53), n
        # the largest codes, n^w - 1 against n^w - 2 in the first group, differ
        # by 1 in their lowest digit alone: tau_1 o tau_1 is constant n - 1, and
        # the table claims tau_1, whose value at position 0 is n - 2
        trans = np.full((2, n), n - 1, dtype=np.int32)
        trans[1, 0] = n - 2
        op = np.array([[0, 0], [0, 1]])
        expected = (1, 1) if n > 2 else None  # for n = 2, tau_1 is the identity
        assert translation_law_witness(trans, op) == loop_law_witness(trans, op) == expected, n


@pytest.mark.parametrize("extra, units, n", [(2, 14, 16), (3, 17, 20)])
def test_translation_law_witness_across_position_groups(extra, units, n):
    # base n codes span at most floor(53 / log2 n) positions, so n = 16 and
    # n = 20 split the positions into two groups; a fault at the last
    # position is seen by the second group alone
    g = corpus.disjoint_union(corpus.cyclic(extra), corpus.unit_groupoid(units))
    assert g.size == n and _code_width(n) < n <= 2 * _code_width(n)
    for side in ("S", "S'"):
        t = enumerate_monoid(g, side)
        total = len(t)
        assert translation_law_witness(t.trans, t.op) is None
        for i in range(total):
            for x in (0, n - 1):
                trans = t.trans.copy()
                trans[i, x] = (trans[i, x] + 1) % n
                witness = translation_law_witness(trans, t.op)
                assert witness is not None and witness == loop_law_witness(trans, t.op)
        for i, j in itertools.product(range(total), repeat=2):
            op = t.op.copy()
            op[i, j] = (op[i, j] + 1) % total
            assert translation_law_witness(t.trans, op) == loop_law_witness(t.trans, op) == (i, j)
