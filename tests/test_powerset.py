"""Powerset maps and the relation/map dualities."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies as strat
from delmc import (
    CapExceeded,
    FiniteSet,
    InvariantViolation,
    NotAFunction,
    NotAPullback,
    Rel,
    Subset,
    all_subsets,
    apply,
    beck_chevalley_equation,
    check_adjunction,
    check_beck_chevalley,
    check_biduality_laws,
    compose,
    compose_maps,
    dagger,
    empty_subset,
    exists_image,
    exists_map,
    forall_image,
    forall_map,
    full_subset,
    function_from_mapping,
    leq,
    map_leq,
    maps_equal,
    preimage_map,
    relation_from_join_map,
    relation_from_meet_map,
    verify_preserves_all_joins,
    verify_preserves_all_meets,
)
from delmc import powerset
from delmc.powerset import JOIN, MEET, find_apply_witness

X = FiniteSet("x", ("u", "v"))
Y = FiniteSet("y", ("a", "b", "c"))
R = Rel(X, Y, [("u", "a"), ("u", "b"), ("v", "c")])


def sub(carrier, *members):
    return Subset(carrier, frozenset(members))


def test_exists_map_hand_example():
    em = exists_map(R)
    assert em.kind == JOIN
    assert apply(em, sub(X, "u")) == sub(Y, "a", "b")
    assert apply(em, sub(X, "v")) == sub(Y, "c")
    assert apply(em, empty_subset(X)) == empty_subset(Y)
    assert apply(em, full_subset(X)) == full_subset(Y)


def test_forall_map_hand_example():
    fm = forall_map(R)
    assert fm.kind == MEET
    # a point of Y lands in the image iff all its R-predecessors were included
    assert apply(fm, sub(X, "u")) == sub(Y, "a", "b")
    assert apply(fm, empty_subset(X)) == empty_subset(Y)
    assert apply(fm, full_subset(X)) == full_subset(Y)
    # the box modality is the forall map along the dagger
    box = forall_map(dagger(R))
    assert apply(box, sub(Y, "a", "b")) == sub(X, "u")
    assert apply(box, sub(Y, "a")) == empty_subset(X)


def test_row_images_hand_example():
    # the box along R reads the successor rows: u's row {a, b} lies in {a, b}
    assert forall_image(R.rows, Y.mask({"a", "b"})) == X.mask({"u"})
    assert exists_image(R.rows, Y.mask({"c"})) == X.mask({"v"})
    # along R itself the rows are the predecessor sets
    assert forall_image(R.pred_rows, X.mask({"u"})) == Y.mask({"a", "b"})
    assert exists_image(R.pred_rows, X.mask({"v"})) == Y.mask({"c"})


@st.composite
def relations_with_subsets(draw):
    dom = draw(strat.carriers(min_size=0, prefix="a"))
    cod = draw(strat.carriers(min_size=0, prefix="b"))
    r = draw(st.one_of(st.just(Rel(dom, cod, frozenset())), strat.relations(dom, cod)))
    return r, draw(strat.subsets(dom)), draw(strat.subsets(cod))


@given(relations_with_subsets())
def test_row_images_match_image_maps(case):
    r, s_dom, s_cod = case
    assert forall_image(r.pred_rows, s_dom.mask) == apply(forall_map(r), s_dom).mask
    assert exists_image(r.pred_rows, s_dom.mask) == apply(exists_map(r), s_dom).mask
    back = dagger(r)
    assert forall_image(r.rows, s_cod.mask) == apply(forall_map(back), s_cod).mask
    assert exists_image(r.rows, s_cod.mask) == apply(exists_map(back), s_cod).mask


def test_row_images_on_empty_carriers_and_relations():
    none = FiniteSet("none", ())
    for dom, cod in ((none, none), (none, Y), (X, none), (X, Y)):
        r = Rel(dom, cod, frozenset())
        for s in all_subsets(dom):
            # nothing reaches any point: every universal image is full and
            # every direct image empty, as the image maps say
            assert forall_image(r.pred_rows, s.mask) == cod.full
            assert exists_image(r.pred_rows, s.mask) == 0
            assert apply(forall_map(r), s) == full_subset(cod)
            assert apply(exists_map(r), s) == empty_subset(cod)


def test_all_subsets_counts_powerset():
    subs = list(all_subsets(Y))
    assert len(subs) == 8
    assert len(set(subs)) == 8


@given(strat.relations())
def test_round_trip_through_maps(r):
    assert relation_from_join_map(exists_map(r)) == r
    assert relation_from_meet_map(forall_map(r)) == r


@given(strat.relations())
def test_exists_preserves_joins_forall_preserves_meets(r):
    assert verify_preserves_all_joins(exists_map(r))
    assert verify_preserves_all_meets(forall_map(r))


@given(strat.relations())
def test_adjunction(r):
    assert check_adjunction(r)


def _plant(patch, kind, at):
    """Make every map of one kind wrong on one subset: bit 0 of its value
    at mask ``at`` flips, and every other value is left as it was."""
    real = powerset._apply_mask

    def planted(h, s):
        value = real(h, s)
        return value ^ 1 if h.kind == kind and s == at else value

    patch.setattr(powerset, "_apply_mask", planted)


def test_adjunction_catches_a_wrong_value_on_any_one_subset(monkeypatch):
    # R : X -> Y; the lower map (a join extension) is applied to subsets
    # of X, the upper one (a meet extension) to subsets of Y.  One wrong
    # value of either is seen only at some pairs, so every pair must be compared.
    for kind, carrier in ((JOIN, X), (MEET, Y)):
        for at in range(1 << len(carrier)):
            with monkeypatch.context() as patch:
                _plant(patch, kind, at)
                assert not check_adjunction(R), (kind, at)
    assert check_adjunction(R)


def test_preservation_checks_catch_a_wrong_value_on_any_one_subset(monkeypatch):
    # values on singletons (joins) and co-singletons (meets) define the
    # map, so every other subset is compared with what they give
    for kind, check, h in (
        (JOIN, verify_preserves_all_joins, exists_map(dagger(R))),
        (MEET, verify_preserves_all_meets, forall_map(dagger(R))),
    ):
        full = h.dom.full
        for at in range(full + 1):
            defining = at if kind == JOIN else full ^ at
            if defining and not defining & (defining - 1):  # one bit: a defining value
                continue
            with monkeypatch.context() as patch:
                _plant(patch, kind, at)
                assert not check(h), (kind, at)
        assert check(h)


@given(strat.composable_pairs())
def test_compose_maps_functorial(pair):
    r1, r2 = pair
    assert compose_maps(exists_map(r1), exists_map(r2)) == exists_map(compose(r1, r2))
    # the meet-map functor is contravariant-free here: same application order
    assert compose_maps(forall_map(r1), forall_map(r2)) == forall_map(compose(r1, r2))


def test_compose_maps_rejects_mixed_kinds():
    with pytest.raises(InvariantViolation):
        compose_maps(exists_map(R), forall_map(dagger(R)))


@given(strat.composable_pairs())
def test_biduality_laws(pair):
    r1, r2 = pair
    rep = check_biduality_laws(r1, r2)
    assert rep.ok, rep.failures()


def test_order_isomorphism_covariant():
    smaller = Rel(X, Y, [("u", "a")])
    bigger = Rel(X, Y, [("u", "a"), ("v", "c")])
    assert leq(smaller, bigger)
    assert map_leq(exists_map(smaller), exists_map(bigger))
    assert not map_leq(exists_map(bigger), exists_map(smaller))


def test_order_antiisomorphism_contravariant():
    smaller = Rel(X, Y, [("u", "a")])
    bigger = Rel(X, Y, [("u", "a"), ("v", "c")])
    assert map_leq(forall_map(bigger), forall_map(smaller))
    assert not map_leq(forall_map(smaller), forall_map(bigger))


def test_maps_equal_and_witness():
    em = exists_map(R)
    assert maps_equal(em, em)
    other = exists_map(Rel(X, Y, [("u", "a")]))
    w = find_apply_witness(em, other)
    assert w is not None
    assert apply(em, w) != apply(other, w)


def test_caps_guard_blowup():
    big = FiniteSet("big", tuple(f"e{i}" for i in range(13)))
    ident = Rel(big, big, frozenset((e, e) for e in big))
    with pytest.raises(CapExceeded):
        find_apply_witness(exists_map(ident), forall_map(ident))
    with pytest.raises(CapExceeded):
        check_adjunction(Rel(big, big, frozenset()), cap=10)


def test_preimage_map_kinds():
    f = function_from_mapping(X, Y, {"u": "a", "v": "a"})
    pj = preimage_map(f, JOIN)
    pm = preimage_map(f, MEET)
    assert pj.kind == JOIN and pm.kind == MEET
    # for functions both kinds compute the same inverse image
    for s in all_subsets(Y):
        assert apply(pj, s) == apply(pm, s)
    assert apply(pj, sub(Y, "a")) == full_subset(X)
    assert apply(pj, sub(Y, "b", "c")) == empty_subset(X)


def _canonical_square():
    """The pullback of f: X -> Z and g: Y -> Z, with its legs p and q."""
    Z = FiniteSet("z", ("z1", "z2"))
    f = function_from_mapping(X, Z, {"u": "z1", "v": "z2"})
    g = function_from_mapping(Y, Z, {"a": "z1", "b": "z1", "c": "z2"})
    apex = FiniteSet("pb", ("(u,a)", "(u,b)", "(v,c)"))
    p = Rel(apex, X, [("(u,a)", "u"), ("(u,b)", "u"), ("(v,c)", "v")])
    q = Rel(apex, Y, [("(u,a)", "a"), ("(u,b)", "b"), ("(v,c)", "c")])
    return {"p": p, "q": q, "f": f, "g": g}


def test_beck_chevalley_on_canonical_square():
    square = _canonical_square()
    assert beck_chevalley_equation(**square)
    assert check_beck_chevalley(**square)


def test_check_beck_chevalley_rejects_non_pullback():
    Z = FiniteSet("z", ("z1", "z2"))
    f = function_from_mapping(X, Z, {"u": "z1", "v": "z2"})
    g = function_from_mapping(Y, Z, {"a": "z1", "b": "z1", "c": "z2"})
    # drop one apex point: still commutes, no longer a pullback
    apex = FiniteSet("pb", ("(u,a)", "(v,c)"))
    p = Rel(apex, X, [("(u,a)", "u"), ("(v,c)", "v")])
    q = Rel(apex, Y, [("(u,a)", "a"), ("(v,c)", "c")])
    with pytest.raises(NotAPullback):
        check_beck_chevalley(p, q, f, g)
    assert not beck_chevalley_equation(p, q, f, g)


def _not_total(r):
    """r with the pairs of its first domain point dropped."""
    return Rel(r.dom, r.cod, frozenset(pv for pv in r.pairs if pv[0] != r.dom.elements[0]))


def _multi_valued(r):
    """r with its first domain point also sent to every codomain point."""
    return Rel(r.dom, r.cod, r.pairs | {(r.dom.elements[0], v) for v in r.cod})


@pytest.mark.parametrize("break_leg", [_not_total, _multi_valued])
@pytest.mark.parametrize("leg", ["p", "q", "f", "g"])
def test_check_beck_chevalley_rejects_a_leg_that_is_not_a_function(leg, break_leg):
    square = _canonical_square()
    square[leg] = break_leg(square[leg])
    with pytest.raises(NotAFunction, match=f"^check_beck_chevalley: {leg} is not a function$"):
        check_beck_chevalley(**square)


@pytest.mark.parametrize("kind", [JOIN, MEET])
@pytest.mark.parametrize("break_leg", [_not_total, _multi_valued])
def test_preimage_map_rejects_a_relation_that_is_not_a_function(break_leg, kind):
    f = function_from_mapping(X, Y, {"u": "a", "v": "c"})
    with pytest.raises(NotAFunction, match="^preimage_map: relation is not a function$"):
        preimage_map(break_leg(f), kind)
