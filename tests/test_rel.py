"""Relation algebra: category laws, dagger structure, lattice ops, tabulation."""

import dataclasses
import random
from itertools import compress

import pytest
from hypothesis import given

import strategies as strat
from delmc import (
    CarrierMismatch,
    FiniteSet,
    InvariantViolation,
    NotAFunction,
    Rel,
    apply_function,
    check_modularity,
    closure_reflexive_transitive,
    compose,
    dagger,
    empty,
    function_from_mapping,
    identity,
    is_function,
    is_injective,
    is_jointly_monic,
    is_reflexive,
    is_surjective,
    is_symmetric,
    is_transitive,
    join,
    leq,
    meet,
    tabulate,
    total,
)
from delmc.rel import function_code, preimage, preimage_flags, union_of

AB = FiniteSet("ab", ("a1", "a2"))
CD = FiniteSet("cd", ("c1", "c2", "c3"))


def test_finite_set_rejects_duplicates():
    with pytest.raises(InvariantViolation):
        FiniteSet("bad", ("x", "x"))
    # the first element seen twice is the one named
    with pytest.raises(InvariantViolation, match=r"^duplicate element 'y' in carrier 'bad'$"):
        FiniteSet("bad", ("x", "y", "z", "y", "x"))
    with pytest.raises(InvariantViolation, match=r"^duplicate element 'x' in carrier 'kw'$"):
        FiniteSet(name="kw", elements=["x", "x"])


def test_finite_set_stores_its_elements_as_a_tuple():
    for given in (["a1", "a2"], iter(("a1", "a2"))):
        built = FiniteSet("ab", given)
        assert type(built.elements) is tuple and built == AB


def test_finite_set_builds_by_keyword_and_through_replace():
    assert FiniteSet(name="ab", elements=("a1", "a2")) == AB
    assert FiniteSet("ab", elements=["a1", "a2"]) == AB
    renamed = dataclasses.replace(AB, name="ba")
    assert renamed.name == "ba" and renamed.elements == AB.elements
    grown = dataclasses.replace(AB, elements=["a1", "a2", "a3"])
    assert grown.elements == ("a1", "a2", "a3") and grown.name == "ab"
    with pytest.raises(InvariantViolation, match="duplicate element 'a1'"):
        dataclasses.replace(AB, elements=("a1", "a1"))
    with pytest.raises(TypeError):
        FiniteSet("ab", ("a1",), "extra")
    with pytest.raises(TypeError):
        FiniteSet(name="ab")


def test_rel_rejects_pairs_outside_carriers():
    with pytest.raises(InvariantViolation):
        Rel(AB, CD, frozenset({("a1", "nope")}))
    with pytest.raises(InvariantViolation):
        Rel(AB, CD, frozenset({("nope", "c1")}))


def test_compose_requires_matching_middle_carrier():
    r = total(AB, CD)
    with pytest.raises(CarrierMismatch):
        compose(r, r)


def test_compose_on_known_example():
    r1 = Rel(AB, CD, [("a1", "c1"), ("a2", "c2")])
    r2 = Rel(CD, AB, [("c1", "a2"), ("c3", "a1")])
    assert compose(r1, r2) == Rel(AB, AB, [("a1", "a2")])


@given(strat.composable_triples())
def test_compose_associative(triple):
    r1, r2, r3 = triple
    assert compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3))


@given(strat.relations())
def test_identity_units(r):
    assert compose(identity(r.dom), r) == r
    assert compose(r, identity(r.cod)) == r


@given(strat.relations())
def test_dagger_involution(r):
    assert dagger(dagger(r)) == r
    assert dagger(r).dom == r.cod
    assert dagger(r).cod == r.dom


@given(strat.composable_pairs())
def test_dagger_contravariant(pair):
    r1, r2 = pair
    assert dagger(compose(r1, r2)) == compose(dagger(r2), dagger(r1))


@given(strat.modularity_triples())
def test_modular_law(triple):
    r1, r2, r3 = triple
    # r1;r2 ∧ r3  ≤  (r1 ∧ r3;r2†);r2
    lhs = meet(compose(r1, r2), r3)
    rhs = compose(meet(r1, compose(r3, dagger(r2))), r2)
    assert leq(lhs, rhs)
    assert check_modularity(r1, r2, r3)


@given(strat.relations())
def test_meet_join_lattice(r):
    t = total(r.dom, r.cod)
    e = empty(r.dom, r.cod)
    assert meet(r, t) == r
    assert join(r, e) == r
    assert meet(r, e) == e
    assert join(r, t) == t
    assert leq(e, r) and leq(r, t)


def test_meet_requires_same_carriers():
    with pytest.raises(CarrierMismatch):
        meet(total(AB, CD), total(CD, AB))


@given(strat.composable_pairs())
def test_composition_monotone(pair):
    r1, r2 = pair
    smaller = Rel(r1.dom, r1.cod, frozenset(list(r1.pairs)[: len(r1.pairs) // 2]))
    assert leq(compose(smaller, r2), compose(r1, r2))


def test_function_predicates():
    f = Rel(AB, CD, [("a1", "c1"), ("a2", "c2")])
    assert is_function(f) and is_injective(f)
    assert not is_surjective(f)
    g = Rel(AB, CD, [("a1", "c1")])
    assert not is_function(g)  # partial
    h = Rel(AB, CD, [("a1", "c1"), ("a1", "c2"), ("a2", "c3")])
    assert not is_function(h)  # not single-valued
    onto = Rel(CD, AB, [("c1", "a1"), ("c2", "a2"), ("c3", "a2")])
    assert is_function(onto) and is_surjective(onto) and not is_injective(onto)


def test_endo_predicates():
    x = FiniteSet("x", ("u", "v"))
    r = Rel(x, x, [("u", "v")])
    assert not is_reflexive(r) and not is_symmetric(r) and is_transitive(r)
    assert is_reflexive(join(r, identity(x)))
    assert is_symmetric(join(r, dagger(r)))
    loop = Rel(x, x, [("u", "v"), ("v", "u")])
    assert not is_transitive(loop)


def test_reflexive_transitive_closure():
    x = FiniteSet("x", ("u", "v", "w"))
    r = Rel(x, x, [("u", "v"), ("v", "w")])
    star = closure_reflexive_transitive(r)
    assert is_reflexive(star) and is_transitive(star)
    assert leq(r, star)
    assert ("u", "w") in star.pairs
    # least such preorder: closing again adds nothing
    assert closure_reflexive_transitive(star) == star


@given(strat.relations())
def test_tabulation_recovers_relation(r):
    tab = tabulate(r)
    assert is_function(tab.r1) and is_function(tab.r2)
    assert compose(dagger(tab.r1), tab.r2) == r
    if len(tab.apex):
        assert is_jointly_monic(tab.r1, tab.r2)


def test_jointly_monic_requires_functions():
    x = FiniteSet("x", ("u", "v"))
    not_fn = Rel(x, x, [("u", "u"), ("u", "v"), ("v", "v")])
    with pytest.raises(NotAFunction):
        is_jointly_monic(not_fn, identity(x))


def test_function_from_mapping_validates():
    f = function_from_mapping(AB, CD, {"a1": "c3", "a2": "c3"})
    assert apply_function(f, "a1") == "c3"
    with pytest.raises(NotAFunction):
        function_from_mapping(AB, CD, {"a1": "c1"})
    with pytest.raises(InvariantViolation):
        function_from_mapping(AB, CD, {"a1": "c1", "a2": "zzz"})


def test_apply_function_rejects_non_function_point():
    g = Rel(AB, CD, [("a1", "c1"), ("a1", "c2"), ("a2", "c3")])
    with pytest.raises(NotAFunction):
        apply_function(g, "a1")


@pytest.mark.parametrize("size", [0, 3, 300])
@pytest.mark.parametrize("width", [1, 255, 256, 257, 513])
def test_preimage_is_the_union_of_predecessors(width, size):
    # targets on both sides of the 256-point chunk, domains from empty to
    # past a chunk; masks: empty, full, random, and bits at the chunk edges
    rng = random.Random(width * 1000 + size)
    dom = FiniteSet("D", [f"d{i}" for i in range(size)])
    cod = FiniteSet("C", [f"c{j}" for j in range(width)])
    col = [rng.randrange(width) for _ in range(size)]
    if size and width > 256:
        col[-1] = width - 1  # a point over the last chunk
    f = Rel.from_rows(dom, cod, [1 << c for c in col])
    assert f.code == function_code(col, width)
    edges = [1 << j for j in (0, 254, 255, 256, 257, 511, 512) if j < width]
    masks = [0, cod.full, *edges, *(rng.getrandbits(width) for _ in range(20))]
    masks += [sum(1 << j for j in rng.sample(range(width), min(width, 3))) for _ in range(20)]
    for m in masks:
        want = union_of(f.pred_rows, m)
        assert preimage(f.code, m) == want
        assert list(compress(dom.elements, preimage_flags(f.code, m))) == dom.names(want)
