"""Expected values, computed without calling gpd.

The harness checks the program against these, so they are derived from
first principles rather than from the functions under test:

* |S| and |S'| are products of fiber sizes read off the raw product table;
* census class counts come from the structure theorem: a connected finite
  groupoid is isomorphic to H x pair(k) with H its isotropy group, so a
  class of order n is a multiset of (group class, k) with sum |H| k^2 = n.
"""

from __future__ import annotations

import math

# Isomorphism classes of groups of order 1..7 (standard).
GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1}


def range_domain(product, inverse):
    """r(x) = x x^-1 and d(x) = x^-1 x from a raw table."""
    n = len(inverse)
    r = [product[x][inverse[x]] for x in range(n)]
    d = [product[inverse[x]][x] for x in range(n)]
    return r, d


def predicted_size(product, inverse, side):
    """Member count of side S (f(x) with d(f(x)) = r(x)) or S' (r(f(x)) = d(x))."""
    r, d = range_domain(product, inverse)
    n = len(inverse)
    if side == "S":
        return math.prod(sum(1 for y in range(n) if d[y] == r[x]) for x in range(n))
    return math.prod(sum(1 for y in range(n) if r[y] == d[x]) for x in range(n))


def identity_map(product, inverse, side):
    """The monoid identity: r on side S, d on side S'."""
    r, d = range_domain(product, inverse)
    return r if side == "S" else d


def census_counts(max_order):
    """Groupoid classes of each order 1..max_order, by the structure theorem."""
    # connected classes of each size s: one per (group class of order m, k) with m k^2 = s
    connected = [0] * (max_order + 1)
    for s in range(1, max_order + 1):
        connected[s] = sum(GROUP_COUNTS[s // (k * k)]
                           for k in range(1, math.isqrt(s) + 1) if s % (k * k) == 0)
    # multisets of connected classes: each class is a part usable any number of times
    counts = [1] + [0] * max_order
    for s in range(1, max_order + 1):
        for _ in range(connected[s]):
            for n in range(s, max_order + 1):
                counts[n] += counts[n - s]
    return {n: counts[n] for n in range(1, max_order + 1)}
