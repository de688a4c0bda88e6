import itertools

import pytest

import gpd.groupoid
from gpd import corpus
from gpd.errors import ActionViolation, AxiomViolation, CapExceeded, ShapeError
from gpd.groupoid import (
    UNDEFINED,
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

# Hand-built pair groupoid on 2 units: elements (i,j) with id 2i+j,
# (i,j)(j,k) = (i,k).  Written out explicitly as the oracle table.
PAIR2_PRODUCT = [
    # (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3
    [0, 1, -1, -1],
    [-1, -1, 0, 1],
    [2, 3, -1, -1],
    [-1, -1, 2, 3],
]
PAIR2_INVERSE = [0, 2, 1, 3]


def test_trivial_groupoid():
    g = make_groupoid(1, [[0]], [0])
    assert g.units == (0,)
    assert g.range_map == (0,) and g.domain_map == (0,)


def test_build_rejects_bad_composability():
    # product defined where r(j) != d(i): both diagonal cells on two units
    # plus a cross product between them.
    prod = [[0, 1], [-1, 1]]
    with pytest.raises(AxiomViolation) as err:
        make_groupoid(2, prod, [0, 1])
    assert err.value.axiom in ("composability", "product-fiber", "left-cancellation")


def test_pair2_round_trips_through_build():
    g = make_groupoid(4, PAIR2_PRODUCT, PAIR2_INVERSE, "pair2-oracle")
    lib = pair_groupoid(2)
    assert lib.product == g.product
    assert lib.inverse == g.inverse
    assert lib.units == g.units == (0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_pair_groupoid_shape(n):
    g = pair_groupoid(n)
    assert g.size == n * n
    assert len(g.units) == n
    assert is_principal(g)
    # each element composes with exactly n elements on each side
    for x in g.elements():
        assert sum(g.defined(x, y) for y in g.elements()) == n
        assert sum(g.defined(y, x) for y in g.elements()) == n


def test_pair_groupoid_cap():
    with pytest.raises(CapExceeded):
        pair_groupoid(9)  # 81 > 64


def test_cyclic_and_unit_groupoid_caps_come_before_the_table(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("table built before the cap was checked")

    monkeypatch.setattr(corpus, "group_as_groupoid", fail)
    monkeypatch.setattr(gpd.groupoid, "make_groupoid", fail)
    for build in (corpus.cyclic, unit_groupoid):
        with pytest.raises(CapExceeded) as err:
            build(65)
        assert err.value.predicted == 65


def test_group_as_groupoid_c2_c3():
    c2 = corpus.cyclic(2)
    assert c2.units == (0,)
    c3 = corpus.cyclic(3)
    assert all(c3.defined(x, y) for x in c3.elements() for y in c3.elements())
    assert c3.defined_count == 9


def test_group_as_groupoid_rejects_nonassociative():
    # x*y = x is right-cancellative but fails (x*x^-1)*... checks
    table = [[0, 0], [1, 1]]
    with pytest.raises(AxiomViolation):
        group_as_groupoid(table, [0, 1])


def test_unit_groupoid():
    g = unit_groupoid(2)
    assert g.units == (0, 1)
    assert g.defined_count == 2
    assert is_principal(g)


def test_disjoint_union_counts():
    u = disjoint_union(corpus.trivial(), corpus.trivial())
    assert u.size == 2 and u.units == (0, 1)
    assert u.defined_count == 2

    cc = disjoint_union(corpus.cyclic(2), corpus.cyclic(2))
    assert cc.size == 4
    assert len(cc.units) == 2
    assert cc.defined_count == 8

    mixed = disjoint_union(pair_groupoid(2), corpus.cyclic(2))
    assert not is_principal(mixed)  # the C2 block collides on (r, d)


def test_transformation_groupoid_trivial_action():
    c2 = corpus.cyclic(2)
    act = make_action(c2, 1, [[0, 0]])
    g = transformation_groupoid(act)
    assert g.size == 2
    assert len(g.units) == 1
    # isomorphic to C2: the non-unit squares to the unit
    x = next(e for e in g.elements() if not g.is_unit(e))
    assert g.mul(x, x) in g.units


def test_transformation_groupoid_swap():
    g = corpus.swap_transformation_groupoid()
    assert g.size == 4
    assert len(g.units) == 2
    # units are exactly the elements (u, e)
    t = corpus.cyclic(2)
    e = t.units[0]
    expected_units = tuple(sorted(u * t.size + e for u in range(2)))
    assert g.units == expected_units


def test_action_violation():
    c2 = corpus.cyclic(2)
    with pytest.raises(ActionViolation):
        make_action(c2, 2, [[1, 0], [0, 1]])  # u.e != u
    with pytest.raises(ActionViolation):
        make_action(c2, 2, [[0, 1], [1, 1]])  # (0.s).s != 0.(ss)


def test_is_principal_cases():
    assert is_principal(pair_groupoid(3))
    assert not is_principal(corpus.cyclic(2))
    assert is_principal(unit_groupoid(3))


def test_morphism_identity_is_isomorphism(named_corpus):
    for _, g in named_corpus:
        rep = morphism_classify(g, g, list(g.elements()))
        assert rep.homomorphism and rep.isomorphism
        assert rep.units_to_units and rep.inverses_to_inverses


def test_inverse_map_classification(c3, pair2):
    # j is always an antihomomorphism; on an abelian group it is also a
    # homomorphism, on pair(2) it is not.
    rep3 = morphism_classify(c3, c3, c3.inverse)
    assert rep3.antihomomorphism
    assert rep3.homomorphism  # C3 is abelian: (xy)^-1 = x^-1 y^-1

    repp = morphism_classify(pair2, pair2, pair2.inverse)
    assert repp.antihomomorphism
    assert not repp.homomorphism


def test_constant_to_unit_map_is_homomorphism(c2):
    rep = morphism_classify(c2, c2, [0, 0])
    assert rep.homomorphism
    assert not rep.isomorphism


def test_morphism_shape_error(c2):
    with pytest.raises(ShapeError):
        morphism_classify(c2, c2, [0, 5])


def fixed_points(m):
    """Ids fixed by a total self-map."""
    return tuple(x for x, v in enumerate(m) if v == x)


def test_fixed_points(c2, c3):
    assert fixed_points(range(5)) == (0, 1, 2, 3, 4)
    assert fixed_points(c2.inverse) == (0, 1)  # both self-inverse
    assert fixed_points(c3.inverse) == (0,)  # only the unit


def test_unit_absorption_and_involution_invariants(named_corpus):
    for _, g in named_corpus:
        for x in g.elements():
            assert g.mul(g.r(x), x) == x
            assert g.mul(x, g.d(x)) == x
            assert g.inv(g.inv(x)) == x
            assert (g.defined(x, x) if g.r(x) == g.d(x) else True)


def test_composability_criterion_both_ways(named_corpus):
    for _, g in named_corpus:
        for x in g.elements():
            for y in g.elements():
                assert g.defined(x, y) == (g.r(y) == g.d(x))


UNITS2_PRODUCT = [[0, -1], [-1, 1]]


# make_groupoid applied int() and str() to every value, so each of these
# built units(2) or the trivial groupoid, differing from what it was given
@pytest.mark.parametrize("size, product, inverse, name, message", [
    (2, UNITS2_PRODUCT, [0, 1.9], "", "inverse holds 1.9, not a JSON integer"),
    (2, [[0, -1], [-1, "1"]], [0, 1], "", "product holds '1', not a JSON integer"),
    (2, UNITS2_PRODUCT, ["0", 1], "", "inverse holds '0', not a JSON integer"),
    (1, [[False]], [0], "", "product holds False, not a JSON integer"),
    (True, [[0]], [0], "", "size holds True, not a JSON integer"),
    (2.7, UNITS2_PRODUCT, [0, 1], "", "size holds 2.7, not a JSON integer"),
    (2, UNITS2_PRODUCT, [0, 1], 7, "name holds 7, not a JSON string"),
])
def test_make_groupoid_refuses_what_is_not_a_json_integer(size, product, inverse, name, message):
    with pytest.raises(ShapeError) as err:
        make_groupoid(size, product, inverse, name)
    assert str(err.value) == message


# make_action applied int() to every value, so each of these built the swap
# action; a table that is not a sequence raised TypeError
@pytest.mark.parametrize("space, act, message", [
    (2.0, [[0, 1], [1, 0]], "space holds 2.0, not a JSON integer"),
    (2, [[0, 1.7], [1, 0.2]], "act holds 1.7, not a JSON integer"),
    (2, [["0", "1"], ["1", "0"]], "act holds '0', not a JSON integer"),
    (2, [[0, True], [True, 0]], "act holds True, not a JSON integer"),
    (2, None, "malformed action: 'NoneType' object is not iterable"),
])
def test_make_action_refuses_what_is_not_a_json_integer(space, act, message):
    with pytest.raises(ShapeError) as err:
        make_action(corpus.cyclic(2), space, act)
    assert str(err.value) == message


def test_tables_that_are_not_sequences_are_shape_errors():
    for product, inverse in ((5, [0]), ([0], [0]), ([[0]], None)):
        with pytest.raises(ShapeError, match="^malformed groupoid: "):
            make_groupoid(1, product, inverse)


def test_shape_errors():
    with pytest.raises(ShapeError):
        make_groupoid(2, [[0, -1]], [0, 1])  # ragged
    with pytest.raises(ShapeError):
        make_groupoid(2, [[0, -1], [-1, 7]], [0, 1])  # entry out of range
    with pytest.raises(ShapeError):
        make_groupoid(0, [], [])
