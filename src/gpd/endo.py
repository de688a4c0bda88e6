"""The two endomorphism monoids of a finite groupoid.

Side "S" holds the maps f with f(x) in the domain-fiber of r(x), a monoid
under (f * g)(x) = g(f(x)x) f(x) whose identity is the range map r.
Side "S'" holds the mirror family f(x) in the range-fiber of d(x), a monoid
under (h ? k)(x) = h(x) k(x h(x)) with identity d.  The involution
f -> f~, f~(x) = (f(x^-1))^-1, swaps the two sides and converts one product
into the other.

Enumeration walks the per-position fibers in lexicographic order of the map
arrays, so element indices are deterministic; a member is a row of the
table's ``maps``, numbered by ``MonoidTable.rank``.  Associativity is certified,
never sampled, by Lemma 3.7: the product is closed, distinct members have
distinct translations, and each translation law holds at every
(x, f(x), g), which covers all |S|^3 triples exactly.  It is the one
vectorized (numpy) product evaluation, one flat array of (x, f(x), g(c))
triples per side: Cayley tables are one gather from it and both identity
laws are read off it, so ``gpd rep`` takes certified ``Members`` and fills
no table.  The scalar ``star``/``star_prime`` functions are the semantic
reference the vector paths are tested against.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, chain
from operator import mul
from typing import Sequence

import numpy as np

from .errors import BaseMismatch, CapExceeded, MembershipError, ShapeError
from .groupoid import Groupoid

DEFAULT_MONOID_CAP = 1_000_000
PRODUCT_CAP = 100_000_000

SIDES = ("S", "S'")


@dataclass(frozen=True)
class GFun:
    """A total self-map of a groupoid with eagerly computed membership flags."""

    base: Groupoid
    map: tuple[int, ...]
    in_sg: bool
    in_spg: bool

    def __call__(self, x: int) -> int:
        return self.map[x]


@dataclass(frozen=True)
class Membership:
    in_sg: bool
    in_spg: bool


def membership(g: Groupoid, m: Sequence[int]) -> Membership:
    """Check both defining conditions for a total map."""
    if len(m) != g.size:
        raise ShapeError(f"map must have length {g.size}, got {len(m)}")
    for x, v in enumerate(m):
        if not 0 <= v < g.size:
            raise ShapeError(f"map[{x}] = {v} out of range")
    in_sg = all(g.domain_map[m[x]] == g.range_map[x] for x in g.elements())
    in_spg = all(g.range_map[m[x]] == g.domain_map[x] for x in g.elements())
    return Membership(in_sg, in_spg)


def gfun(g: Groupoid, m: Sequence[int]) -> GFun:
    flags = membership(g, m)
    return GFun(g, tuple(int(v) for v in m), flags.in_sg, flags.in_spg)


def _require(f: GFun, side: str):
    if side == "S" and not f.in_sg:
        raise MembershipError(f"map {f.map} is not in side S")
    if side == "S'" and not f.in_spg:
        raise MembershipError(f"map {f.map} is not in side S'")


def _same_base(f: GFun, g: GFun):
    if f.base is not g.base and f.base != g.base:
        raise BaseMismatch("operands live on different groupoids")


def star(f: GFun, g: GFun) -> GFun:
    """(f * g)(x) = g(f(x) x) f(x); closed on side S."""
    _same_base(f, g)
    _require(f, "S")
    _require(g, "S")
    gg = f.base
    out = []
    for x in gg.elements():
        t = gg.product[f.map[x]][x]
        out.append(gg.product[g.map[t]][f.map[x]])
    res = gfun(gg, out)
    if not res.in_sg:
        raise MembershipError(f"closure failed for * at {f.map} . {g.map}")
    return res


def star_prime(h: GFun, k: GFun) -> GFun:
    """(h ? k)(x) = h(x) k(x h(x)); closed on side S'."""
    _same_base(h, k)
    _require(h, "S'")
    _require(k, "S'")
    gg = h.base
    out = []
    for x in gg.elements():
        t = gg.product[x][h.map[x]]
        out.append(gg.product[h.map[x]][k.map[t]])
    res = gfun(gg, out)
    if not res.in_spg:
        raise MembershipError(f"closure failed for ? at {h.map} . {k.map}")
    return res


def involution_star(f: GFun) -> GFun:
    """f~(x) = (f(x^-1))^-1; swaps side S with side S'."""
    if not (f.in_sg or f.in_spg):
        raise MembershipError("involution needs a member of either side")
    g = f.base
    return gfun(g, [g.inverse[f.map[g.inverse[x]]] for x in g.elements()])


def left_translation(f: GFun) -> tuple[int, ...]:
    """x -> f(x) x, defined because f is in side S."""
    _require(f, "S")
    g = f.base
    return tuple(g.product[f.map[x]][x] for x in g.elements())


def right_translation(f: GFun) -> tuple[int, ...]:
    """x -> x f(x), defined because f is in side S'."""
    _require(f, "S'")
    g = f.base
    return tuple(g.product[x][f.map[x]] for x in g.elements())


# ---------------------------------------------------------------------------
# enumeration


def _position_fibers(g: Groupoid, side: str) -> list[tuple[int, ...]]:
    if side == "S":
        return [g.d_fibers[g.range_map[x]] for x in g.elements()]
    if side == "S'":
        return [g.r_fibers[g.domain_map[x]] for x in g.elements()]
    raise ShapeError(f"side must be one of {SIDES}, got {side!r}")


def predicted_size(g: Groupoid, side: str = "S") -> int:
    """Exact member count: the product of per-position fiber sizes."""
    return math.prod(len(c) for c in _position_fibers(g, side))


def _checked_size(g: Groupoid, side: str, cap: int) -> int:
    """``predicted_size``, raising CapExceeded above ``cap`` before any work."""
    pred = predicted_size(g, side)
    if pred > cap:
        raise CapExceeded(f"predicted monoid size {pred} exceeds cap {cap}", predicted=pred)
    return pred


def monoid_maps_array(g: Groupoid, side: str = "S", cap: int = DEFAULT_MONOID_CAP) -> np.ndarray:
    """The member maps as rows, in lexicographic order: column x
    steps through x's fiber every stride_x rows, stride_x being the
    product of the later fiber sizes."""
    pred = _checked_size(g, side, cap)
    rank = np.arange(pred)
    arr = np.empty((pred, g.size), dtype=np.int32)
    stride = pred
    for x, fib in enumerate(_position_fibers(g, side)):
        stride //= len(fib)
        arr[:, x] = np.asarray(fib, dtype=np.int32)[(rank // stride) % len(fib)]
    return arr


class _Kernel:
    """Shared numpy views of one groupoid's tables."""

    def __init__(self, g: Groupoid):
        self.g = g
        self.n = g.size
        self.P = np.asarray(g.product, dtype=np.int32)
        self.Pflat = self.P.ravel()
        self.rm = np.asarray(g.range_map, dtype=np.int32)
        self.dm = np.asarray(g.domain_map, dtype=np.int32)
        self.xs = np.arange(self.n, dtype=np.int32)

    def translation_rows(self, maps: np.ndarray, side: str) -> np.ndarray:
        """Translations of a (T, n) stack of members: x -> f(x) x on S,
        x -> x f(x) on S'."""
        if side == "S":
            return self.Pflat[maps * self.n + self.xs]
        return self.Pflat[self.xs * self.n + maps]


def _radix(g: Groupoid, side: str) -> tuple[np.ndarray, np.ndarray]:
    """pos[x, y] = y's place in x's sorted fiber (-1 off it), and the strides
    numbering member f lexicographically as sum_x strides[x] * pos[x, f(x)]."""
    fibers = _position_fibers(g, side)
    k = [len(fib) for fib in fibers]
    pos = np.full((g.size, g.size), -1, dtype=np.int64)
    pos[np.arange(g.size).repeat(k), np.fromiter(chain.from_iterable(fibers), np.int64)] = \
        np.fromiter(chain.from_iterable(map(range, k)), np.int64)
    strides = [*accumulate(k[:0:-1], mul, initial=1)][::-1]  # exact; object past int64 (law_scan only)
    return pos, np.array(strides, dtype=np.int64 if strides[0] * k[0] < 1 << 63 else object)


@dataclass(frozen=True, eq=False)
class Members:
    """One side as arrays, certified (closure, associativity, both identity
    laws) before it is handed out: member i is row i of ``maps``, in
    lexicographic order, which ``rank`` numbers; ``identity`` is an index and
    ``trans`` holds each member's translation (left on S, right on S').
    Cached facts are recomputed for a ``dataclasses.replace`` copy."""

    groupoid: Groupoid
    side: str
    identity: int
    trans: np.ndarray
    maps: np.ndarray

    @cached_property
    def radix(self) -> tuple[np.ndarray, np.ndarray]:  # _radix, which rank reads
        return _radix(self.groupoid, self.side)

    def rank(self, rows) -> np.ndarray:
        """The member index of each row of a (T, n) stack of maps, -1 off this side."""
        pos, strides = self.radix
        p = pos[np.arange(len(strides))[None, :], np.asarray(rows)]
        return np.where((p < 0).any(axis=1), -1, (p * strides[None, :]).sum(axis=1))

    @cached_property
    def distinct_translations(self) -> int:
        rows = self.trans[np.lexsort(self.trans.T)]  # equal rows end up adjacent
        return 1 + int((rows[1:] != rows[:-1]).any(axis=1).sum())

    def __len__(self):
        return len(self.maps)

    def __repr__(self):
        return f"<monoid {self.side} of {self.groupoid!r}: {len(self)} elements>"


@dataclass(frozen=True, eq=False, repr=False)
class MonoidTable(Members):
    """``Members`` and ``op``, the index Cayley table, checked on both identity laws."""

    op: np.ndarray

    @cached_property
    def law_witness(self) -> tuple[int, int] | None:
        return translation_law_witness(self.trans, self.op)

    def mul(self, i: int, j: int) -> int:
        return int(self.op[i, j])


_CODE_BOUND = 1 << 53    # float64 holds every integer up to 2^53, so codes and partial sums are exact
_BLOCK_CELLS = 1 << 14   # table cells per row block of the law scan


def _code_width(n: int) -> int:
    """Base-n digits per code group: the most w <= n with n^w <= _CODE_BOUND."""
    return max(w for w in range(1, n + 1) if n ** w <= _CODE_BOUND)


def translation_law_witness(trans: np.ndarray, op: np.ndarray) -> tuple[int, int] | None:
    """The first (i, j), row-major, where trans[op[i, j]] != trans[j] o trans[i]
    (None if there is none): the L3.7 law tau_{i*j} = tau_j o tau_i against a
    stored table, and so the operator law M(tau_{i*j}) = M(tau_i) M(tau_j).

    Every cell is compared exactly, one block of rows at a time.  A
    translation tau is coded by its values as base-n digits,
    code(tau) = sum_x n^x tau(x), over groups of at most w positions with
    n^w <= 2^53, so each code is a distinct integer below 2^53.  With
    A[i, y] = sum of n^x over the positions x of the group where
    tau_i(x) = y, and cols[y, k] = tau_k(y), the float64 product
    (A @ cols)[i, k] = sum_x n^x tau_k(tau_i(x)) is the code of
    tau_k o tau_i, exactly: every term and partial sum is an integer in
    [0, n^w - 1], which float64 holds in any summation order, with or without
    FMA and on any BLAS thread count.  Codes are equal exactly when the digits
    are, so the law holds at (i, j) iff the codes agree in every group.
    """
    total, n = trans.shape
    cols = np.ascontiguousarray(trans.T, dtype=np.float64)  # cols[y, k] = tau_k(y)
    width = _code_width(n)
    rows = np.arange(total)
    groups = []  # (A, code) per group of positions
    for lo in range(0, n, width):
        digits = trans[:, lo:lo + width]
        weights = (n ** np.arange(digits.shape[1], dtype=np.int64)).astype(np.float64)
        a = np.zeros((total, n))
        for x, w in enumerate(weights):
            a[rows, digits[:, x]] += w
        groups.append((a, digits @ weights))
    step = max(1, _BLOCK_CELLS // total)
    for i0 in range(0, total, step):
        block = op[i0:i0 + step]
        bad = reduce(np.logical_or, (a[i0:i0 + step] @ cols != code.take(block) for a, code in groups))
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), total)
            return i0 + i, j
    return None


def certified_members(g: Groupoid, side: str = "S", cap: int = DEFAULT_MONOID_CAP, table: bool = False) -> Members:
    """Enumerate and certify one side, with ``table`` its ``MonoidTable``.  Raises
    CapExceeded before any work if the predicted element count exceeds
    ``cap`` or the table would need more than ``PRODUCT_CAP`` products, and
    MembershipError unless the translation certificate proves closure,
    associativity and both identity laws.  The table is summed from the
    certificate's product columns, member indices being mixed-radix numbers
    of fiber positions."""
    pred = _checked_size(g, side, cap)
    if pred * pred > PRODUCT_CAP:
        raise CapExceeded(f"Cayley table needs {pred * pred} products, cap {PRODUCT_CAP}", predicted=pred * pred)
    ker = _Kernel(g)
    cert = _certificate(ker, side)
    if not cert.assoc_ok:
        raise MembershipError(f"translation certificate fails at {cert.witness}")
    identity = _identity(cert)
    if identity is None:
        raise MembershipError("identity law fails in the translation certificate")
    maps = monoid_maps_array(g, side, cap)
    fields = dict(groupoid=g, side=side, identity=identity, trans=ker.translation_rows(maps, side), maps=maps)
    if table:
        op = fields["op"] = _cayley_table(_product_columns(cert, pred), cert.pos, cert.strides, pred)
        idx = np.arange(pred)
        if not (op[identity] == idx).all() or not (op[:, identity] == idx).all():
            raise MembershipError("identity law fails in the Cayley table")
    out = (MonoidTable if table else Members)(**fields)
    vars(out)["radix"] = cert.pos, cert.strides  # the certificate's, so rank never rebuilds it
    return out


def enumerate_monoid(g: Groupoid, side: str = "S", cap: int = DEFAULT_MONOID_CAP) -> MonoidTable:
    """Enumerate one side and build its verified Cayley table."""
    return certified_members(g, side, cap, table=True)


def involution_indices(ts: MonoidTable, tsp: MonoidTable) -> np.ndarray:
    """sigma[i] = index in ``tsp`` of the involution image of member i of ``ts``."""
    inv = np.asarray(ts.groupoid.inverse, dtype=np.int32)
    sigma = tsp.rank(inv[ts.maps[:, inv]])
    if (sigma < 0).any():
        raise MembershipError(f"member {int(np.argmin(sigma))}'s involution image is not in {tsp.side}")
    return sigma


# ---------------------------------------------------------------------------
# the monoid laws without a stored table


@dataclass(frozen=True)
class LawScan:
    side: str
    size: int
    identity_ok: bool
    closure_ok: bool
    closure_conditions: int
    assoc_ok: bool
    assoc_mode: str
    assoc_triples: int
    witness: tuple | None


# The certificate's verdicts and its flat (x, v, w) triples: pair i is (x[i], v[i])
# with c[i] = Q[v, x] and triples first[i] .. first[i] + k[c[i]] - 1; triple t,
# of pair[t], takes g(c) = w[t] to res[t] = (f * g)(x).  e is r on S, d on S'.
_Certificate = namedtuple("_Certificate", "closure_ok closure_conditions assoc_ok witness "
                                          "pos strides k e x v c first pair w res")


def _certificate(ker: _Kernel, side: str) -> _Certificate:
    """Closure and associativity of one side by the L3.7 translation certificate.

    On side S the left translation L_f(x) = f(x) x satisfies
    L_{f*g} = L_g o L_f, and on side S' the right translation
    R_h(x) = x h(x) satisfies R_{h?k} = R_k o R_h.  When the product is
    closed, that law holds for every pair, and distinct members have
    distinct translations, the translations embed the product into map
    composition, so it is associative on all |S|^3 triples.

    A condition at position x depends on f only through v = f(x) and on g
    only through w = g(c), c = P[v, x]: the product value is P[w, v] and the
    law reads P[(f*g)(x), x] = P[w, c].  Side S' is side S of the opposite
    groupoid, Q[a, b] = P[b, a] with d and r swapped.  Members are the full
    product of the position fibers, so the flat array of every (x, v, w), v
    in x's fiber and w in c's, built and checked by a fixed number of numpy
    calls, evaluates each distinct condition once (sum_x k_x k_c of them) and
    covers every (f, g, x), sum_x k_x |S| of them (``closure_conditions``).
    Likewise distinct members have distinct translations iff v -> c is
    injective on every fiber.

    The witness, the first failure in (x, v, w) order, names the premise:
    ("closure", x, v, g) or ("translation law", x, v, g), g the first member
    index taking c to a failing w (q * strides[c] for w the q-th value), or
    ("injectivity", i, j) for two members with equal translations, differing
    at one position.  A closure failure counts conditions through its pair.
    """
    n, (Q, d, r) = ker.n, ((ker.P, ker.dm, ker.rm) if side == "S" else (ker.P.T, ker.rm, ker.dm))
    Qf = np.ascontiguousarray(Q).ravel()
    pos, strides = _radix(ker.g, side)
    x, v = (pos >= 0).nonzero()  # the (x, v) pairs in order: fibers are sorted
    k = np.bincount(x, minlength=n)
    size = int(strides[0]) * int(k[0])
    c = Qf[v * n + x]
    kc = np.where(c >= 0, k[c], 0)  # no triple where no product is defined at x
    first = kc.cumsum() - kc
    pair = np.arange(len(x)).repeat(kc)
    q = np.arange(len(pair)) - first[pair]  # w is the q-th value of c's fiber
    w = v[(k.cumsum() - k)[c[pair]] + q]  # v holds the fibers back to back
    res = Qf[w * n + v[pair]]
    cert = partial(_Certificate, pos=pos, strides=strides, k=k, e=r, x=x, v=v, c=c,
                   first=first, pair=pair, w=w, res=res)
    good = (res >= 0) & (d[res] == r[x[pair]])
    if not good.all() or (c < 0).any():
        bad = (~good).nonzero()[0][:1]
        failed = min((c < 0).nonzero()[0][:1].tolist() + pair[bad].tolist())
        at = 0 if c[failed] < 0 else int(q[bad[0]]) * int(strides[c[failed]])
        return cert(False, (failed + 1) * size, False, ("closure", int(x[failed]), int(v[failed]), at))
    law, key, witness = Qf[res * n + x[pair]] != Qf[w * n + c[pair]], x * n + c, None
    if law.any():
        t = int(law.argmax())
        witness = ("translation law", int(x[pair[t]]), int(v[pair[t]]), int(q[t]) * int(strides[c[pair[t]]]))
    elif ((sk := np.sort(key))[1:] == sk[:-1]).any():  # two values of one fiber with the same c
        order = key.argsort(kind="stable")
        i = order[1:][key[order[1:]] == key[order[:-1]]].min()
        j = order[sk.searchsorted(key[i])]
        witness = ("injectivity", *(int(pos[x[i], v[a]]) * int(strides[x[i]]) for a in (j, i)))
    return cert(True, len(x) * size, witness is None, witness)


def _identity(cert: _Certificate) -> int | None:
    """The index of the identity e (r on S, d on S'), or None unless both its
    laws hold on the certificate's triples: (f * e)(x) is the triple of
    (x, f(x)) with w = e(c), which must give f(x); each triple of (x, e(x))
    must give g(x) for every g: w itself when c = x, else x's one fiber
    value (digits of different positions are independent)."""
    digits = cert.pos[np.arange(len(cert.e)), cert.e]
    if (digits < 0).any() or (cert.c < 0).any():
        return None
    right = cert.res[cert.first + digits[cert.c]] == cert.v
    t = (cert.v == cert.e[cert.x])[cert.pair].nonzero()[0]  # the triples of the pairs (x, e(x))
    i, res = cert.pair[t], cert.res[t]
    left = np.where(cert.c[i] == cert.x[i], res == cert.w[t], (cert.k[cert.x[i]] == 1) & (res == cert.v[i]))
    return int(digits @ cert.strides) if right.all() and left.all() else None


def _cayley_table(cols: list[np.ndarray], pos: np.ndarray, strides: np.ndarray, total: int) -> np.ndarray:
    """op[i, j] = sum_x strides[x] * pos[x, cols[x][digit_x(i), j]].  Digits of
    positions with stride >= lo, the least stride whose square reaches |S|, depend
    on i // lo alone, the rest on i % lo: each term fills a (|S| / lo, |S|) or a
    (lo, |S|) table, and one broadcast sum of the two writes op."""
    lo = min((s for s in strides.tolist() if s * s >= total), default=total)
    hi, low = np.zeros((total // lo, total), dtype=np.int32), np.zeros((lo, total), dtype=np.int32)
    for x, col in enumerate(cols):  # axis 1 below is digit_x(i)
        if len(col) > 1:  # a one-value fiber only adds position 0
            part, stride = (hi, strides[x] // lo) if strides[x] >= lo else (low, strides[x])
            part.reshape(-1, len(col), stride, total)[...] += (pos[x, col] * strides[x])[:, None]
    return (hi[:, None] + low[None]).reshape(total, total)


def _product_columns(cert: _Certificate, size: int) -> list[np.ndarray]:
    """cols[x], shape (k_x, |S|), holds (f * g_j)(x) in row p for every member
    j and any f taking x to the p-th value of x's fiber: one gather from the
    triples, since g_j(c) is at digit (j // strides[c]) % k_c."""
    c = cert.c[:, None]
    cols = cert.res[cert.first[:, None] + np.arange(size) // cert.strides[c] % cert.k[c]]
    return np.split(cols, cert.k.cumsum()[:-1].tolist())


def law_scan(g: Groupoid, side: str = "S", cap: int = DEFAULT_MONOID_CAP) -> LawScan:
    """The monoid laws of one side without a Cayley table or member array:
    ``_certificate`` and ``_identity``, from sum_x k_x k_c conditions."""
    size = _checked_size(g, side, cap)
    cert = _certificate(_Kernel(g), side)
    # closure_ok, closure_conditions and assoc_ok are the certificate's first three fields
    return LawScan(side, size, _identity(cert) is not None, *cert[:3], "certificate", size ** 3, cert.witness)
