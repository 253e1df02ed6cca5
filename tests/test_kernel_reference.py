"""The mask kernel against a pair-set reference.

A relation is stored as successor masks and a subset as one mask; the
reference below computes every kernel operation on plain sets of name
pairs and of names, straight from the definitions.  Carriers have 0-5
points, and empty relations are drawn explicitly.  The boundary views
(``.pairs``, ``.members``, ``members_in_order()``, ``repr``) are pinned on
the fixtures.
"""

import random

import hypothesis.strategies as st
from hypothesis import given

import strategies as strat
from delmc import (
    AgentSet,
    FiniteSet,
    KripkeFrame,
    Rel,
    Subset,
    apply,
    compose,
    dagger,
    exists_image,
    exists_map,
    forall_image,
    forall_map,
    identity,
    initial_lift,
    join,
    leq,
    meet,
    total,
)

# ---------------------------------------------------------------------------
# The reference: relations as sets of pairs, subsets as sets of names.


def ref_compose(p1, p2):
    return {(w, u) for w, v in p1 for v2, u in p2 if v == v2}


def ref_dagger(p):
    return {(v, w) for w, v in p}


def ref_identity(x):
    return {(e, e) for e in x.elements}


def ref_total(dom, cod):
    return {(w, v) for w in dom.elements for v in cod.elements}


def ref_exists_image(pairs, cod, s):
    """Direct image along the relation: the points reached from s."""
    return {v for v in cod.elements if any((w, v) in pairs for w in s)}


def ref_forall_image(pairs, cod, s):
    """Universal image along the relation: the points reached only from s."""
    return {v for v in cod.elements if all(w in s for w, v2 in pairs if v2 == v)}


def ref_lift(targets, fns, carrier, agent):
    """x steps to y when every map sends the pair to a step of its target."""
    images = [dict(fn.pairs) for fn in fns]
    return {
        (x, y)
        for x in carrier.elements
        for y in carrier.elements
        if all((f[x], f[y]) in t.rel(agent).pairs for f, t in zip(images, targets))
    }


# ---------------------------------------------------------------------------
# Strategies: carriers of 0-5 points; empty relations drawn on purpose.


def carriers(prefix):
    return strat.carriers(min_size=0, max_size=5, prefix=prefix)


@st.composite
def relations(draw, dom, cod):
    return draw(st.one_of(st.just(Rel(dom, cod, frozenset())), strat.relations(dom, cod)))


@st.composite
def composable(draw):
    a, b, c = draw(carriers("a")), draw(carriers("b")), draw(carriers("c"))
    return draw(relations(a, b)), draw(relations(b, c))


@st.composite
def parallel(draw):
    a, b = draw(carriers("a")), draw(carriers("b"))
    return draw(relations(a, b)), draw(relations(a, b))


@st.composite
def relation_with_subsets(draw):
    a, b = draw(carriers("a")), draw(carriers("b"))
    r = draw(relations(a, b))
    return r, draw(strat.subsets(a)), draw(strat.subsets(b))


@given(composable())
def test_compose_matches_reference(pair):
    r1, r2 = pair
    assert compose(r1, r2).pairs == ref_compose(r1.pairs, r2.pairs)


@given(parallel())
def test_dagger_meet_join_leq_match_reference(pair):
    r1, r2 = pair
    assert dagger(r1).pairs == ref_dagger(r1.pairs)
    assert dagger(dagger(r1)) == r1
    assert meet(r1, r2).pairs == r1.pairs & r2.pairs
    assert join(r1, r2).pairs == r1.pairs | r2.pairs
    assert leq(r1, r2) == (r1.pairs <= r2.pairs)


@given(carriers("x"), carriers("y"))
def test_identity_and_total_match_reference(x, y):
    assert identity(x).pairs == ref_identity(x)
    assert total(x, y).pairs == ref_total(x, y)
    assert Rel(x, y, frozenset()).pairs == frozenset()


@given(relation_with_subsets())
def test_images_and_apply_match_reference(case):
    r, s_dom, s_cod = case
    pairs, back = r.pairs, ref_dagger(r.pairs)
    along_r = (ref_forall_image(pairs, r.cod, s_dom.members), ref_exists_image(pairs, r.cod, s_dom.members))
    along_back = (ref_forall_image(back, r.dom, s_cod.members), ref_exists_image(back, r.dom, s_cod.members))
    assert set(r.cod.names(forall_image(r.pred_rows, s_dom.mask))) == along_r[0]
    assert set(r.cod.names(exists_image(r.pred_rows, s_dom.mask))) == along_r[1]
    assert set(r.dom.names(forall_image(r.rows, s_cod.mask))) == along_back[0]
    assert set(r.dom.names(exists_image(r.rows, s_cod.mask))) == along_back[1]
    assert apply(forall_map(r), s_dom).members == along_r[0]
    assert apply(exists_map(r), s_dom).members == along_r[1]
    assert apply(forall_map(dagger(r)), s_cod).members == along_back[0]
    assert apply(exists_map(dagger(r)), s_cod).members == along_back[1]


@st.composite
def lift_families(draw):
    """0-3 target frames on 0-5 points and one function into each, from a
    common domain; a function into an empty carrier needs an empty domain."""
    agents = draw(strat.agent_sets())
    n_targets = draw(st.integers(min_value=0, max_value=3))
    targets = []
    for k in range(n_targets):
        carrier = draw(strat.carriers(min_size=1, max_size=5, prefix=f"t{k}_"))
        rels = {a: draw(relations(carrier, carrier)) for a in agents}
        targets.append(KripkeFrame.make(carrier, agents, rels))
    dom = draw(carriers("x"))
    fns = [draw(strat.functions(dom, t.carrier)) for t in targets]
    return agents, dom, targets, fns


@given(lift_families())
def test_lift_matches_reference(family):
    agents, dom, targets, fns = family
    lifted = initial_lift(targets, fns, carrier=dom, agents=agents)
    for a in agents:
        assert lifted.rel(a).pairs == ref_lift(targets, fns, dom, a)


# ---------------------------------------------------------------------------
# Equality and hashing read the carriers and the masks, not an order.


@given(parallel(), st.randoms(use_true_random=False))
def test_relations_from_reordered_pairs_are_equal(pair, rng):
    r, _ = pair
    listed = sorted(r.pairs)
    rng.shuffle(listed)
    again = Rel(r.dom, r.cod, listed)
    assert again == r and hash(again) == hash(r)
    # a kernel result equals the same relation built from its pairs
    built = dagger(dagger(r))
    assert built == again and hash(built) == hash(again)


@given(st.data())
def test_subsets_from_reordered_members_are_equal(data):
    x = data.draw(carriers("x"))
    s = data.draw(strat.subsets(x))
    listed = list(s.members)
    random.Random(len(listed)).shuffle(listed)
    again = Subset(x, listed)
    assert again == s and hash(again) == hash(s)
    # a kernel result equals the same subset built from its members
    twice = s.complement().complement()
    assert twice == again and hash(twice) == hash(again)


def test_equal_masks_on_other_carriers_differ():
    x = FiniteSet("x", ("a", "b"))
    y = FiniteSet("y", ("a", "b"))
    assert Subset(x, {"a"}) != Subset(y, {"a"})
    assert Rel(x, x, {("a", "b")}) != Rel(x, y, {("a", "b")})


# ---------------------------------------------------------------------------
# The boundary views read as before on the fixtures.


def test_views_on_two_worlds(two_worlds):
    ra, rb = (two_worlds.frame.rel(a) for a in ("a", "b"))
    assert repr(ra) == "Rel('W' -> 'W', [('w1', 'w1'), ('w2', 'w2')])"
    assert repr(rb) == (
        "Rel('W' -> 'W', [('w1', 'w1'), ('w1', 'w2'), ('w2', 'w1'), ('w2', 'w2')])"
    )
    assert ra.pairs == {("w1", "w1"), ("w2", "w2")}
    assert rb.successors == {"w1": {"w1", "w2"}, "w2": {"w1", "w2"}}
    assert ra.predecessors == {"w1": {"w1"}, "w2": {"w2"}}
    p, q = two_worlds.val("p"), two_worlds.val("q")
    assert repr(p) == "Subset('W', ['w1'])" and repr(q) == "Subset('W', ['w1', 'w2'])"
    assert p.members == {"w1"} and q.members_in_order() == ["w1", "w2"]
    assert len(q) == 2 and "w2" in q and "w2" not in p and "zz" not in p


def test_views_on_two_fibers(two_fibers):
    sheaf = two_fibers.sheaf
    assert repr(sheaf.total.rel("a")) == "Rel('D' -> 'D', [('d1', 'd3'), ('d2', 'd3'), ('d3', 'd3')])"
    assert repr(sheaf.base.rel("a")) == "Rel('W' -> 'W', [('w1', 'w2'), ('w2', 'w2')])"
    assert repr(sheaf.proj.fn) == "Rel('D' -> 'W', [('d1', 'w1'), ('d2', 'w1'), ('d3', 'w2')])"
    assert repr(two_fibers.rel_interp_map["P"]) == "Subset('D', ['d1'])"
    assert repr(two_fibers.rel_interp_map["Q"]) == "Subset('W', ['w1'])"
    assert sheaf.proj.fn.predecessors == {"w1": {"d1", "d2"}, "w2": {"d3"}}
    assert sheaf.fibers == {"w1": ("d1", "d2"), "w2": ("d3",)}
    assert ("d1", "w1") in sheaf.proj.fn and ("d1", "w2") not in sheaf.proj.fn
    assert ("d1",) not in sheaf.proj.fn and ("zz", "w1") not in sheaf.proj.fn


def test_public_constructors_still_check():
    x = FiniteSet("x", ("a", "b"))
    agents = AgentSet(("a",))
    frame = KripkeFrame.make(x, agents, {"a": Rel(x, x, [("a", "b")])})
    assert frame.rel("a").rows == (0b10, 0b00)
    assert Subset(x, ["b"]).mask == 0b10
