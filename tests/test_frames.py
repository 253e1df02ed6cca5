"""Frame constructions: lifts, products, subframes, pullbacks, bisimulations."""

import gc
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given
import hypothesis.strategies as st

import strategies as strat
from conftest import data_path
from delmc import (
    AgentMismatch,
    AgentSet,
    Atom,
    EmptyGroup,
    FiniteSet,
    FrameMap,
    KripkeFrame,
    KripkeModel,
    NotAFunction,
    NotMonotone,
    Rel,
    Subset,
    UnknownAgent,
    all_subsets,
    apply,
    apply_function,
    common_knowledge_relation,
    compose,
    compose_maps,
    dagger,
    extension,
    forall_map,
    frame_map,
    function_from_mapping,
    identity,
    identity_map,
    initial_lift,
    is_bisimulation,
    is_bounded,
    is_function,
    is_function_pointwise,
    is_monotone,
    is_reflexive,
    is_transitive,
    largest_preserved_check,
    leq,
    load_file,
    meet,
    pal_update,
    preimage_map,
    product,
    pullback,
    pullback_update,
    subframe,
    total,
)
from delmc.generators import (
    random_bounded_map,
    random_carrier,
    random_fo_event_model,
    random_formula,
    random_frame,
    random_model,
    random_monotone_map,
    random_relation,
    random_sheaf,
    random_sheaf_model,
    random_subset,
)
from delmc.frames import lift_points
from delmc.models import updated_frame
from delmc.powerset import MEET

A = AgentSet(("a",))
AB = AgentSet(("a", "b"))


def chain_frame():
    w = FiniteSet("w", ("w1", "w2", "w3"))
    return KripkeFrame.make(
        w,
        AB,
        {
            "a": Rel(w, w, [("w1", "w2"), ("w2", "w1"), ("w1", "w1"), ("w2", "w2"), ("w3", "w3")]),
            "b": Rel(w, w, [("w2", "w3"), ("w3", "w2"), ("w1", "w1"), ("w2", "w2"), ("w3", "w3")]),
        },
    )


def test_frame_rejects_foreign_relation_carrier():
    w = FiniteSet("w", ("w1",))
    v = FiniteSet("v", ("v1",))
    with pytest.raises(Exception):
        KripkeFrame.make(w, A, {"a": identity(v)})


def test_identity_map_is_bounded():
    f = chain_frame()
    m = identity_map(f)
    assert is_monotone(m) and is_bounded(m)


def test_initial_lift_empty_family_is_total():
    w = FiniteSet("w", ("w1", "w2"))
    f = initial_lift([], [], carrier=w, agents=A)
    assert f.rel("a") == total(w, w)


def test_initial_lift_rejects_mismatched_agents():
    f = chain_frame()
    only_a = KripkeFrame.make(f.carrier, A, {"a": f.rel("a")})
    z = FiniteSet("z", ("z1",))
    gfn = function_from_mapping(z, f.carrier, {"z1": "w1"})
    with pytest.raises(AgentMismatch):
        initial_lift([f, only_a], [gfn, gfn])
    with pytest.raises(AgentMismatch):
        initial_lift([f], [gfn], agents=A)
    assert initial_lift([f], [gfn], agents=AB) == initial_lift([f], [gfn])


def test_initial_lift_computes_componentwise_preimage():
    f = chain_frame()
    z = FiniteSet("z", ("z1", "z2"))
    gfn = function_from_mapping(z, f.carrier, {"z1": "w1", "z2": "w3"})
    lifted = initial_lift([f], [gfn])
    for ag in AB:
        expected = frozenset(
            (x, y)
            for x in z
            for y in z
            if (apply_function(gfn, x), apply_function(gfn, y)) in f.rel(ag).pairs
        )
        assert lifted.rel(ag).pairs == expected
    assert is_monotone(FrameMap(lifted, f, gfn))


def test_initial_lift_universal_property_on_example():
    # maps into the lift are monotone exactly when all composites are
    f = chain_frame()
    z = FiniteSet("z", ("z1", "z2"))
    gfn = function_from_mapping(z, f.carrier, {"z1": "w1", "z2": "w2"})
    lifted = initial_lift([f], [gfn])
    rng = random.Random(7)
    for _ in range(50):
        zr = random_relation(rng, z, z)
        zframe = KripkeFrame.make(z, AB, {a: zr for a in AB})
        into_lift = is_monotone(FrameMap(zframe, lifted, identity(z)))
        composite = is_monotone(FrameMap(zframe, f, gfn))
        assert into_lift == composite


def reference_lift(targets, fns, carrier, agents):
    """The initial lift by its first definition: per agent, the meet, from
    the total relation, of each target relation pulled back along its map."""
    rels = {}
    for a in agents:
        lifted = total(carrier, carrier)
        for fn, t in zip(fns, targets):
            lifted = meet(lifted, compose(compose(fn, t.rel(a)), dagger(fn)))
        rels[a] = lifted
    return KripkeFrame.make(carrier, agents, rels)


@st.composite
def lift_families(draw):
    """0-3 target frames over shared agents and one function into each,
    from a common domain; the functions need not be surjective."""
    agents = draw(strat.agent_sets())
    dom = draw(strat.carriers(min_size=0, max_size=4, prefix="x"))
    targets = [
        draw(strat.frames(carrier=draw(strat.carriers(prefix=f"t{k}_")), agents=agents))
        for k in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    fns = [draw(strat.functions(dom, t.carrier)) for t in targets]
    return agents, dom, targets, fns


@given(lift_families())
def test_initial_lift_matches_reference(family):
    agents, dom, targets, fns = family
    assert initial_lift(targets, fns, carrier=dom, agents=agents) == reference_lift(
        targets, fns, dom, agents
    )


def assert_lift_of_legs(frame, targets, legs):
    assert frame == reference_lift(targets, legs, frame.carrier, frame.agents)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_constructions_match_reference_lift(seed):
    rng = random.Random(seed)
    agents = AB if rng.random() < 0.5 else A
    f1 = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), "w"), agents)
    f2 = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), "v"), agents)

    prod, p1, p2 = product(f1, f2)
    assert_lift_of_legs(prod, [f1, f2], [p1.fn, p2.fn])

    sub, incl = subframe(f1, random_subset(rng, f1.carrier))
    assert_lift_of_legs(sub, [f1], [incl.fn])

    f = random_monotone_map(rng, rng.randrange(1, 4), f1, prefix="y")
    g = random_monotone_map(rng, rng.randrange(1, 4), f1, prefix="z")
    apex, q1, q2 = pullback(f, g)
    assert_lift_of_legs(apex, [f.src, g.src], [q1.fn, q2.fn])

    extents = {e: random_subset(rng, f1.carrier).mask for e in f2.carrier}
    upd, (p_x, p_e), _ = updated_frame(f1, f2, extents)
    assert_lift_of_legs(upd, [f1, f2], [p_x.fn, p_e.fn])

    sheaf = random_sheaf(rng, f1, max_fiber=2)
    model = random_sheaf_model(rng, sheaf)
    updated = pullback_update(model, random_fo_event_model(rng, model, rng.randrange(1, 3)))
    for sh in (sheaf, updated.updated.sheaf):
        for n in (2, 3):
            power = sh.power(n)
            assert_lift_of_legs(
                power.frame,
                [sh.total] * n + [sh.base],
                [c.fn for c in power.component_projections] + [power.proj_to_base.fn],
            )


@pytest.mark.parametrize("seed", range(4))
def test_lifts_over_partial_images_match_reference_lift(seed):
    # a sparse subframe of a frame past 64 worlds, with points on both sides
    # of bit 64, and an update whose extents leave worlds and an event out:
    # the lift walks only the successors inside each column's image
    rng = random.Random(seed)
    f1 = random_frame(rng, random_carrier(rng, rng.randrange(70, 90), "w"), AB)
    names = f1.carrier.elements
    kept = rng.sample(names[:64], 4) + rng.sample(names[64:], 4)
    sub, incl = subframe(f1, Subset(f1.carrier, kept))
    assert_lift_of_legs(sub, [f1], [incl.fn])

    f2 = random_frame(rng, random_carrier(rng, 3, "e"), AB)
    extents = {e: random_subset(rng, f1.carrier, 0.15).mask for e in f2.carrier}
    extents["e3"] = 0
    upd, (p_x, p_e), _ = updated_frame(f1, f2, extents)
    assert extents["e1"] | extents["e2"] != f1.carrier.full
    assert_lift_of_legs(upd, [f1, f2], [p_x.fn, p_e.fn])


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pair_carriers_keep_their_labels(seed):
    # the labels, in order, as built by name before the constructions took indices
    rng = random.Random(seed)
    agents = AB if rng.random() < 0.5 else A
    f1 = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), "w"), agents)
    f2 = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), "v"), agents)

    prod, _, _ = product(f1, f2)
    assert list(prod.carrier) == [f"({w},{v})" for w in f1.carrier for v in f2.carrier]

    f = random_monotone_map(rng, rng.randrange(1, 4), f1, prefix="y")
    g = random_monotone_map(rng, rng.randrange(1, 4), f1, prefix="z")
    apex, _, _ = pullback(f, g)
    assert list(apex.carrier) == [
        f"({y},{z})" for y in f.src.carrier for z in g.src.carrier if f(y) == g(z)
    ]

    extents = {e: random_subset(rng, f1.carrier) for e in f2.carrier}
    upd, _, _ = updated_frame(f1, f2, {e: s.mask for e, s in extents.items()})
    assert list(upd.carrier) == [
        f"({w},{e})" for w in f1.carrier for e in f2.carrier if w in extents[e].members
    ]


def test_largest_preserved_check():
    f = chain_frame()
    z = FiniteSet("z", ("z1", "z2"))
    gfn = function_from_mapping(z, f.carrier, {"z1": "w1", "z2": "w2"})
    lifted = initial_lift([f], [gfn])
    rng = random.Random(3)
    candidates = [random_relation(rng, z, z) for _ in range(20)]
    assert largest_preserved_check(lifted, [f], [gfn], candidates)


def test_product_projections_and_lift():
    f1 = chain_frame()
    w = FiniteSet("v", ("v1", "v2"))
    f2 = KripkeFrame.make(w, AB, {"a": identity(w), "b": total(w, w)})
    prod, p1, p2 = product(f1, f2)
    assert len(prod.carrier) == len(f1.carrier) * len(f2.carrier)
    assert is_monotone(p1) and is_monotone(p2)
    # pairing: any frame with monotone maps to both factors maps monotonely in
    z = FiniteSet("z", ("z1",))
    zf = KripkeFrame.make(z, AB, {a: identity(z) for a in AB})
    g1 = function_from_mapping(z, f1.carrier, {"z1": "w2"})
    g2 = function_from_mapping(z, f2.carrier, {"z1": "v1"})
    paired = function_from_mapping(z, prod.carrier, {"z1": "(w2,v1)"})
    assert compose(paired, p1.fn) == g1
    assert compose(paired, p2.fn) == g2
    assert is_monotone(FrameMap(zf, prod, paired))


def test_product_requires_same_agents(lift_builds):
    # the agent check runs when the frame is lifted, not on its first read
    f1 = chain_frame()
    w = FiniteSet("v", ("v1",))
    f2 = KripkeFrame.make(w, A, {"a": identity(w)})
    with pytest.raises(AgentMismatch):
        product(f1, f2)
    with pytest.raises(AgentMismatch):
        lift_points("m", [f1, f2], ["m1"], [[0], [0]])
    assert lift_builds == []


def test_lifted_frames_equal_and_hash_as_given_frames(lift_builds):
    f1 = chain_frame()
    w = FiniteSet("v", ("v1", "v2"))
    f2 = KripkeFrame.make(w, AB, {"a": identity(w), "b": total(w, w)})
    ref = product(f1, f2)[0]
    given = KripkeFrame.make(ref.carrier, AB, {a: ref.rel(a) for a in AB})
    lift_builds.clear()
    fresh, partly = product(f1, f2)[0], product(f1, f2)[0]
    partly.rel("b")
    assert lift_builds == ["b"]
    for lifted in (fresh, partly):
        # the hash reads no relation, so a lifted frame keys a memo unbuilt
        before = list(lift_builds)
        assert hash(lifted) == hash(given) and {lifted: 1}.get(lifted) == 1
        assert lift_builds == before
        assert lifted == given and given == lifted
        assert hash(lifted) == hash(given)
    assert lift_builds == ["b", "a", "b", "a"]
    # equal carriers and agents, one relation differs
    other = KripkeFrame.make(ref.carrier, AB, {"a": ref.rel("a"), "b": identity(ref.carrier)})
    assert hash(other) == hash(given) and other != given
    assert product(f1, f2)[0] != other


def test_lifted_frames_are_freed_without_the_collector():
    # a lifted frame's builder holds the lift's targets, never the frame;
    # the model keeps its announcement, which never points back to it
    model = load_file(data_path("two_worlds.json"))[1]
    sub, incl = pal_update(model, Atom("p"))
    prod, p1, p2 = product(model.frame, sub.frame)
    prod.rel("a")
    gone = [weakref.ref(x) for x in (model, sub, sub.frame, prod)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del model, sub, incl, prod, p1, p2
        assert [r() for r in gone] == [None, None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_subframe_restricts_relations():
    f = chain_frame()
    sub, incl = subframe(f, Subset(f.carrier, frozenset({"w1", "w2"})))
    assert tuple(sub.carrier) == ("w1", "w2")
    assert is_monotone(incl)
    for ag in AB:
        assert sub.rel(ag).pairs == frozenset(
            (x, y) for (x, y) in f.rel(ag).pairs if x in {"w1", "w2"} and y in {"w1", "w2"}
        )


def test_pullback_square_commutes_and_is_fibered():
    base = chain_frame()
    rng = random.Random(11)
    f = random_monotone_map(rng, 3, base, prefix="y")
    g = random_monotone_map(rng, 2, base, prefix="z")
    apex, p1, p2 = pullback(f, g)
    assert compose(p1.fn, f.fn) == compose(p2.fn, g.fn)
    assert is_monotone(p1) and is_monotone(p2)
    expected = {
        (w, v)
        for w in f.src.carrier
        for v in g.src.carrier
        if apply_function(f.fn, w) == apply_function(g.fn, v)
    }
    assert len(apex.carrier) == len(expected)


_HASH_PROBE = """
import json, random
from delmc import AgentSet, dump_model
from delmc.generators import random_carrier, random_frame, random_monotone_map
from delmc.generators import random_sheaf, random_sheaf_model
rng = random.Random(5)
agents = AgentSet(("a", "b"))
dst = random_frame(rng, random_carrier(rng, 4, "t"), agents)
out = []
for _ in range(5):
    m = random_monotone_map(rng, 4, dst)
    out.append([sorted(m.src.rel(a).pairs) for a in agents])
    out.append(dump_model(random_sheaf_model(rng, random_sheaf(rng, dst, max_fiber=2))))
print(json.dumps(out))
"""


def test_generators_do_not_depend_on_the_hash_seed():
    import delmc

    src = os.path.dirname(os.path.dirname(os.path.abspath(delmc.__file__)))
    outputs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_pullback_requires_monotone_legs():
    base = chain_frame()
    y = FiniteSet("y", ("y1", "y2"))
    # force a non-monotone map: y1 -> y2 upstairs but w1 not related to w3
    yf = KripkeFrame.make(y, AB, {a: total(y, y) for a in AB})
    bad = frame_map(yf, base, {"y1": "w1", "y2": "w3"})
    good = frame_map(yf, base, {"y1": "w1", "y2": "w1"})
    assert not is_monotone(bad)
    with pytest.raises(NotMonotone):
        pullback(bad, good)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pullback_of_bounded_along_monotone_is_bounded(seed):
    rng = random.Random(seed)
    base = random_frame(rng, FiniteSet("b", ("b1", "b2", "b3")), AB)
    f = random_monotone_map(rng, rng.randrange(1, 4), base, prefix="y")
    g = random_bounded_map(rng, rng.randrange(1, 4), base, prefix="z")
    assert is_bounded(g)
    assert is_bounded(pullback(f, g)[1])


def test_bounded_iff_box_square_commutes():
    rng = random.Random(5)
    base = chain_frame()
    bounded_map = random_bounded_map(rng, 3, base, prefix="y")
    merely_monotone = None
    for _ in range(200):
        cand = random_monotone_map(rng, 3, base, prefix="z")
        if not is_bounded(cand):
            merely_monotone = cand
            break
    assert merely_monotone is not None
    for m, expect in ((bounded_map, True), (merely_monotone, False)):
        pre = preimage_map(m.fn, MEET)
        agrees = all(
            compose_maps(forall_map(dagger(m.dst.rel(ag))), pre)
            == compose_maps(pre, forall_map(dagger(m.src.rel(ag))))
            for ag in m.src.agents
        )
        assert agrees == expect


def test_is_bisimulation_unit_cases():
    f = chain_frame()
    assert is_bisimulation(f, f, identity(f.carrier))
    assert is_bisimulation(f, f, Rel(f.carrier, f.carrier, []))
    # w1 has an a-step to w2; w3's only a-step is the loop, so pairing
    # w1 with w3 breaks the forth condition
    bad = Rel(f.carrier, f.carrier, [("w1", "w3")])
    assert not is_bisimulation(f, f, bad)


def test_graph_of_bounded_map_is_bisimulation():
    rng = random.Random(9)
    base = chain_frame()
    g = random_bounded_map(rng, 4, base, prefix="y")
    assert is_bisimulation(g.src, base, g.fn)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_bisimulation_invariance(seed):
    # pull a model back along a bounded map; static truth transfers pointwise
    rng = random.Random(seed)
    target = random_model(rng, rng.randrange(1, 4), AB)
    g = random_bounded_map(rng, rng.randrange(1, 4), target.frame, prefix="y")
    pre = preimage_map(g.fn, MEET)
    pulled = KripkeModel.make(
        g.src, {p: apply(pre, target.val(p)) for p in target.atoms}
    )
    assert is_bisimulation(g.src, target.frame, g.fn)
    for _ in range(6):
        phi = random_formula(rng, ("p", "q"), tuple(AB), depth=3, allow_pal=False, allow_dynamic=False)
        src_ext = extension(pulled, phi)
        dst_ext = extension(target, phi)
        for w in g.src.carrier:
            assert (w in src_ext.members) == (apply_function(g.fn, w) in dst_ext.members)


def test_common_knowledge_chain():
    f = chain_frame()
    ck = common_knowledge_relation(f, ("a", "b"))
    assert is_reflexive(ck) and is_transitive(ck)
    assert ("w1", "w3") in ck.pairs  # reachable via a then b
    only_a = common_knowledge_relation(f, ("a",))
    assert ("w1", "w3") not in only_a.pairs
    with pytest.raises(EmptyGroup):
        common_knowledge_relation(f, ())
    with pytest.raises(UnknownAgent):
        common_knowledge_relation(f, ("zz",))


@st.composite
def broken_frame_maps(draw):
    """Frames src, dst and a relation between their carriers that fails to be
    a function in one of two ways: a point with no value, or with two."""
    agents = draw(strat.agent_sets())
    src = draw(strat.frames(agents=agents))
    dst = draw(strat.frames(carrier=draw(strat.carriers(min_size=2, prefix="v")), agents=agents))
    fn = draw(strat.functions(src.carrier, dst.carrier))
    w = draw(st.sampled_from(src.carrier.elements))
    if draw(st.booleans()):
        pairs = frozenset(p for p in fn.pairs if p[0] != w)
    else:
        value = apply_function(fn, w)
        other = draw(st.sampled_from([v for v in dst.carrier if v != value]))
        pairs = fn.pairs | {(w, other)}
    return src, dst, fn, Rel(src.carrier, dst.carrier, pairs)


@given(broken_frame_maps())
def test_frame_map_rejects_non_functions(case):
    src, dst, fn, broken = case
    assert FrameMap(src, dst, fn).fn == fn
    assert not is_function(broken) and not is_function_pointwise(broken)
    with pytest.raises(NotAFunction):
        FrameMap(src, dst, broken)
