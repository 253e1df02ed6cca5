"""Kripke-model semantics, announcements, product update, no-learning."""

import dataclasses
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

import fo_oracle  # noqa: F401  (import check: oracles stay in sync with fixtures)
import oracle
from delmc import (
    AgentSet,
    And,
    Atom,
    Box,
    CapExceeded,
    CyclicPrecondition,
    DelBox,
    DelDia,
    Dia,
    EventModel,
    Exists,
    FiniteSet,
    Forall,
    InvariantViolation,
    KripkeFrame,
    PalBox,
    PalDia,
    KripkeModel,
    Not,
    Pred,
    Rel,
    Subset,
    Top,
    UnknownAtom,
    UnknownEvent,
    UnknownSymbol,
    Var,
    apply,
    check_update_routes,
    extension,
    is_bounded,
    is_monotone,
    no_learning_check,
    pal_update,
    parse_formula,
    product_update,
    static_precondition_modalities,
    verify_del_reductions,
    verify_pal_reductions,
)
from delmc import models
from delmc.generators import (
    random_carrier,
    random_event_model,
    random_formula,
    random_frame,
    random_model,
)
from delmc.powerset import JOIN, MEET

AB = AgentSet(("a", "b"))


def test_extension_on_two_worlds_fixture(two_worlds):
    model = two_worlds
    assert extension(model, Atom("p")).members == {"w1"}
    assert extension(model, Box("a", Atom("p"))).members == {"w1"}
    # agent b considers both worlds possible everywhere
    assert extension(model, Box("b", Atom("p"))).members == set()
    assert extension(model, Dia("b", Atom("p"))).members == {"w1", "w2"}
    assert extension(model, PalBox(Atom("p"), Box("b", Atom("p")))).members == {"w1", "w2"}


def test_extension_rejects_unknown_atom(two_worlds):
    model = two_worlds
    with pytest.raises(UnknownAtom):
        extension(model, Atom("zz"))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_extension_matches_oracle_static_and_pal(seed):
    rng = random.Random(seed)
    model = random_model(rng, rng.randrange(1, 5), AB)
    om = oracle.from_model(model)
    for _ in range(4):
        phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=3, allow_dynamic=False)
        assert extension(model, phi).members == oracle.extension(om, phi)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_extension_matches_oracle_dynamic(seed):
    rng = random.Random(seed)
    model = random_model(rng, rng.randrange(1, 4), AB)
    ev = random_event_model(rng, rng.randrange(1, 4), AB, ("p", "q"))
    refs = [("E", e) for e in ev.events]
    registry = {"E": ev}
    oreg = {"E": oracle.from_event_model(ev)}
    om = oracle.from_model(model)
    for _ in range(4):
        phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=2, event_refs=refs)
        assert extension(model, phi, registry).members == oracle.extension(om, phi, oreg)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dynamic_preconditions_match_oracle(seed):
    # F's preconditions are event operators over a second model E, whose own
    # preconditions may hold announcements; formulas mix [F,f] and [E,e].
    rng = random.Random(seed)
    model = random_model(rng, rng.randrange(1, 5), AB)
    inner = random_event_model(rng, rng.randrange(1, 3), AB, ("p", "q"), static_pre=False)
    frame = random_frame(rng, random_carrier(rng, rng.randrange(1, 3), prefix="f"), AB)
    outer = EventModel.make(frame, {
        f: rng.choice((DelBox, DelDia))(
            "E", rng.choice(inner.events), random_formula(rng, ("p", "q"), ("a", "b"), 1)
        )
        for f in frame.carrier
    })
    registry = {"E": inner, "F": outer}
    oreg = {name: oracle.from_event_model(ev) for name, ev in registry.items()}
    refs = [("E", e) for e in inner.events] + [("F", f) for f in outer.events]
    om = oracle.from_model(model)
    for _ in range(15):
        phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=2, event_refs=refs)
        assert extension(model, phi, registry).members == oracle.extension(om, phi, oreg)


@pytest.mark.parametrize("phi", [
    Pred("P", ()),
    Exists("u", Pred("P", (Var("u"),))),
    Box("a", Forall("u", Top())),
    Forall("u", Atom("p")),
])
def test_first_order_nodes_rejected(two_worlds, phi):
    with pytest.raises(UnknownSymbol):
        extension(two_worlds, phi)


def test_cyclic_preconditions_rejected(two_worlds):
    e = FiniteSet("e", ("e1",))
    frame = KripkeFrame.make(e, AB, {"a": Rel(e, e, [("e1", "e1")]), "b": Rel(e, e, [])})
    ev = EventModel.make(frame, {"e1": DelBox("LOOP", "e1", Atom("p"))})
    with pytest.raises(CyclicPrecondition):
        extension(two_worlds, DelBox("LOOP", "e1", Atom("p")), {"LOOP": ev})


def test_muddy_children_story(muddy_children, muddy_formulas):
    someone, nobody_knows, both_know, dia_form, box_form = muddy_formulas
    ext_dia = extension(muddy_children, dia_form)
    ext_box = extension(muddy_children, box_form)
    assert ext_dia.members == {"MM"}
    assert ext_box.members == {"MM", "MC", "CM", "CC"}
    om = oracle.from_model(muddy_children)
    assert oracle.extension(om, dia_form) == {"MM"}
    assert oracle.extension(om, box_form) == {"MM", "MC", "CM", "CC"}
    # after the two announcements actually happen, both children know
    first, _ = pal_update(muddy_children, someone)
    second, _ = pal_update(first, nobody_knows)
    assert set(second.frame.carrier) == {"MM"}
    assert extension(second, both_know).members == {"MM"}


def test_private_announcement_fixture(two_worlds, private_announcement_event):
    model = two_worlds
    ev = private_announcement_event
    registry = {"F": ev}
    learns = DelBox("F", "ep", Box("a", Atom("p")))
    misses = DelBox("F", "ep", Box("b", Atom("p")))
    assert extension(model, learns, registry).members == {"w1", "w2"}
    assert extension(model, misses, registry).members == {"w2"}
    om = oracle.from_model(model)
    oreg = {"F": oracle.from_event_model(ev)}
    assert oracle.extension(om, learns, oreg) == {"w1", "w2"}
    assert oracle.extension(om, misses, oreg) == {"w2"}


def test_pal_update_is_submodel(two_worlds):
    model = two_worlds
    updated, incl = pal_update(model, Atom("p"))
    assert tuple(updated.frame.carrier) == ("w1",)
    assert is_monotone(incl)
    assert updated.val("q").members == {"w1"}


def test_announcements_build_only_the_relations_their_bodies_read(two_worlds, lift_builds):
    om = oracle.from_model(two_worlds)
    for text, reads in (("[!p]q", []), ("[!p][a]q", ["a"]), ("<!q>(p & <b>p)", ["b"])):
        lift_builds.clear()
        phi = parse_formula(text)
        assert extension(two_worlds, phi).members == oracle.extension(om, phi)
        assert lift_builds == reads, text


def test_product_update_structure(two_worlds, private_announcement_event):
    model = two_worlds
    ev = private_announcement_event
    upd = product_update(model, ev)
    # worlds of the update are exactly the precondition-satisfying pairs
    assert set(upd.updated.frame.carrier) == {"(w1,ep)", "(w1,et)", "(w2,et)"}
    assert is_monotone(upd.p_x) and is_monotone(upd.p_e)
    # the transition agrees with its composites through the extent and
    # through the product of the two frames
    assert check_update_routes(upd).ok
    for e in ev.events:
        # the transition graphs the pairing w -> (w, e) on the extent
        for (w, lbl) in upd.transition(e).pairs:
            assert lbl == f"({w},{e})"
            assert w in upd.pre_extent(e).members
    # atoms are pulled back along the world projection
    for p in model.atoms:
        for lbl in upd.updated.frame.carrier:
            w = lbl[1:-1].split(",")[0]
            assert (lbl in upd.updated.val(p).members) == (w in model.val(p).members)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_product_update_matches_oracle(seed):
    rng = random.Random(seed)
    model = random_model(rng, rng.randrange(1, 4), AB)
    ev = random_event_model(rng, rng.randrange(1, 4), AB, ("p", "q"))
    upd = product_update(model, ev)
    om = oracle.product(oracle.from_model(model), oracle.from_event_model(ev), {})
    assert set(upd.updated.frame.carrier) == {f"({w},{e})" for (w, e) in om["worlds"]}
    for ag in AB:
        got = upd.updated.frame.rel(ag).pairs
        want = {
            (f"({w1},{e1})", f"({w2},{e2})")
            for ((w1, e1), (w2, e2)) in om["rel"][ag]
        }
        assert got == want
    for p in model.atoms:
        assert upd.updated.val(p).members == {f"({w},{e})" for (w, e) in om["val"][p]}
    assert check_update_routes(upd).ok


def test_an_update_refuses_an_unknown_event(two_worlds, private_announcement_event):
    upd = product_update(two_worlds, private_announcement_event)
    for read in (upd.transition, upd.pre_extent):
        with pytest.raises(UnknownEvent, match="'nope'"):
            read("nope")


def test_update_routes_catch_a_planted_transition(two_worlds, private_announcement_event):
    upd = product_update(two_worlds, private_announcement_event)
    assert check_update_routes(upd).ok
    # drop one pair from the transition of ep, keep the rest of the update
    dropped = sorted(upd.transition("ep").pairs)[0]
    planted = dataclasses.replace(
        upd,
        transitions=tuple(
            (e, Rel(r.dom, r.cod, r.pairs - {dropped}) if e == "ep" else r)
            for e, r in upd.transitions
        ),
    )
    failed = check_update_routes(planted).failures()
    assert [c.name for c in failed] == [
        "transition through the extent [ep]",
        "transition through the product [ep]",
    ]
    for c in failed:
        assert c.witness == f"routes differ at {[dropped]}"


def test_verify_pal_reductions_on_fixture(two_worlds):
    model = two_worlds
    rep = verify_pal_reductions(
        model, Atom("p"), Box("a", Atom("q")), Dia("b", Atom("p"))
    )
    assert rep.ok, rep.failures()
    assert len(rep.checks) >= 6


def test_verify_del_reductions_on_fixture(two_worlds, private_announcement_event):
    model = two_worlds
    ev = private_announcement_event
    rep = verify_del_reductions(
        model, ev, "ep", Box("a", Atom("p")), Atom("q"), registry={"F": ev}, ref="F"
    )
    assert rep.ok, rep.failures()


def test_no_learning_on_trivial_event(two_worlds):
    # one event, precondition true, loop relations: the update is isomorphic
    # to the original model, the projection is bounded, nothing is learned
    model = two_worlds
    e = FiniteSet("e", ("e1",))
    frame = KripkeFrame.make(e, AB, {a: Rel(e, e, [("e1", "e1")]) for a in AB})
    ev = EventModel.make(frame, {"e1": Top()})
    rep = no_learning_check(model, ev)
    assert rep.bounded
    assert rep.holds
    assert rep.witness is None
    assert rep.formulas_checked > 0


def test_public_announcement_teaches(two_worlds):
    # announcing p cuts b's uncertainty: the projection is not bounded and
    # the event box genuinely differs from material implication
    model = two_worlds
    e = FiniteSet("e", ("e1",))
    frame = KripkeFrame.make(e, AB, {a: Rel(e, e, [("e1", "e1")]) for a in AB})
    ev = EventModel.make(frame, {"e1": Atom("p")})
    rep = no_learning_check(model, ev)
    assert not rep.bounded
    assert not rep.holds
    assert rep.witness is not None


def test_learning_witness_on_private_announcement(private_announcement_event):
    # both agents start fully ignorant; telling a privately that p holds
    # breaks boundedness and produces a concrete learning witness
    w = FiniteSet("w", ("w1", "w2"))
    frame = KripkeFrame.make(w, AB, {a: Rel(w, w, [(x, y) for x in w for y in w]) for a in AB})
    model = KripkeModel.make(
        frame,
        {"p": Subset(w, frozenset({"w1"})), "q": Subset(w, frozenset({"w1", "w2"}))},
    )
    ev = private_announcement_event
    rep = no_learning_check(model, ev)
    assert not rep.bounded
    assert not rep.holds
    assert rep.witness is not None


def test_static_pool_builds_a_node_only_for_a_new_class(
    two_worlds, private_announcement_event, monkeypatch
):
    from delmc import formulas, models

    updated = product_update(two_worlds, private_announcement_event).updated
    built = []
    init = formulas._Node.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(formulas._Node, "__init__", counted)
    pool = models._static_pool(two_worlds, updated, 2)
    monkeypatch.undo()
    assert len(built) == len(pool)
    assert len({(sx, su) for _, sx, su in pool}) == len(pool)
    for f, sx, su in pool:
        assert extension(two_worlds, f).mask == sx
        assert extension(updated, f).mask == su


def test_static_precondition_modalities(two_worlds):
    model = two_worlds
    box_map, dia_map = static_precondition_modalities(model, Atom("p"))
    phi = Box("b", Atom("q"))
    ext_phi_after = extension(pal_update(model, Atom("p"))[0], phi)
    lifted = Subset(
        model.frame.carrier, frozenset(ext_phi_after.members)
    )
    assert apply(box_map, lifted) == extension(model, PalBox(Atom("p"), phi))
    assert apply(dia_map, lifted) == extension(model, PalDia(Atom("p"), phi))


def test_static_precondition_modalities_catch_a_wrong_value_on_any_one_subset(monkeypatch):
    # the box map is a meet extension and the diamond map a join extension;
    # a wrong value of either on any one subset of the carrier must raise
    model = random_model(random.Random(20), 3, AB, ("p", "q"))
    real = models._apply_mask
    for kind in (MEET, JOIN):
        for at in range(1 << len(model.frame.carrier)):
            def planted(h, s, kind=kind, at=at):
                value = real(h, s)
                return value ^ 1 if h.kind == kind and s == at else value

            with monkeypatch.context() as patch:
                patch.setattr(models, "_apply_mask", planted)
                with pytest.raises(InvariantViolation, match="announcement modalities disagree"):
                    static_precondition_modalities(model, Atom("p"))
    static_precondition_modalities(model, Atom("p"))


def test_static_precondition_modalities_check_the_cap_first(monkeypatch):
    # 13 worlds are above the default cap of 12: nothing is evaluated or built
    model = random_model(random.Random(13), 13, AB, ("p", "q"))
    submodels = []
    monkeypatch.setattr(models, "subframe", lambda *args, **kwargs: submodels.append(args))
    with pytest.raises(CapExceeded, match="above cap 12"):
        static_precondition_modalities(model, Atom("p"))
    assert submodels == []


def test_formula_hash_is_computed_once(monkeypatch):
    # the evaluator memo keys on formulas: hashing a root reads the hash
    # its constructor stored, without walking into the children
    inner = Box("a", Atom("p"))
    root = And(Not(inner), inner)
    first = hash(root)

    def no_recursion(self):
        raise AssertionError("hashing the root recursed into a child")

    for cls in (Atom, Box, Not):
        monkeypatch.setattr(cls, "__hash__", no_recursion)
    assert hash(root) == first
    assert hash(root) == first
    monkeypatch.undo()
    # the stored value is the one the frozen dataclass computes from the fields
    assert first == hash((Not(inner), inner))
    assert dataclasses.replace(root, right=Atom("q")) == And(Not(inner), Atom("q"))


def test_every_node_class_reads_the_cached_hash():
    # a node class left with the dataclass __hash__ would re-hash its subtree
    from delmc import formulas

    nodes = [
        cls for cls in vars(formulas).values()
        if isinstance(cls, type) and issubclass(cls, formulas._Node) and dataclasses.is_dataclass(cls)
    ]
    assert len(nodes) == 18
    for cls in nodes:
        assert cls.__hash__ is formulas._Node.__hash__, cls.__name__
