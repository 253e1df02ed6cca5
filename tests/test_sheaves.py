"""First-order semantics on sheaves: interpretation, powers, pullback update."""

import copy
import gc
import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import fo_oracle
from delmc import (
    AgentSet,
    And,
    Atom,
    Box,
    CyclicPrecondition,
    DelBox,
    DelDia,
    Dia,
    EventModel,
    Exists,
    FiniteSet,
    Forall,
    FormulaInContext,
    FrameMap,
    Fun,
    InvariantViolation,
    KripkeFrame,
    KripkeModel,
    KripkeSheaf,
    Pred,
    Rel,
    ShadowedVariable,
    Subset,
    TermInContext,
    UnresolvedEventModel,
    Var,
    as_sentence,
    check_diagonal_characterization,
    check_pullback_update,
    check_substitution_box_commutation,
    check_substitution_functoriality,
    check_transition_commutation,
    compose,
    extension,
    fibered_power,
    frame_map,
    identity,
    interp_formula,
    interp_term,
    is_kripke_sheaf,
    parse_formula,
    pullback_update,
    verify_quantifier_reduction,
)
from delmc.generators import (
    plant_non_sheaf,
    random_carrier,
    random_fo_event_model,
    random_fo_formula,
    random_frame,
    random_sheaf,
    random_sheaf_model,
)
from delmc.rel import _unchecked, bit_flags
from delmc import sheaves
from delmc.sheaves import _function_fault, _sheaf_conditions

A = AgentSet(("a",))


def tuple_form(power, ext):
    return {(power.world_of(lbl), power.tuple_of(lbl)) for lbl in ext.members}


def pair(w, e):
    return f"({w},{e})"


def by_name(power):
    """Each point's label, keyed by its (world, tuple of individuals)."""
    return {(power.world_of(lbl), power.tuple_of(lbl)): lbl for lbl in power.carrier}


def reference_copy(upd, n, old_label, e):
    """The updated copy under e of a point of the source's n-th power,
    found from names alone, or None when its world is outside e's
    precondition extent: the copy of the tuple (a1, ..., an) over w is the
    tuple ((a1,e), ..., (an,e)) over (w,e)."""
    old_power = upd.source.power(n)
    w = old_power.world_of(old_label)
    if w not in upd.extents[e].members:
        return None
    key = (pair(w, e), tuple(pair(a, e) for a in old_power.tuple_of(old_label)))
    return by_name(upd.updated.power(n))[key]


def reference_transition(upd, n, e):
    pairs = ((old, reference_copy(upd, n, old, e)) for old in upd.source.power(n).carrier)
    return {(old, new) for old, new in pairs if new is not None}


def reference_lift(upd, f, m, n):
    """The pairs of lift_map(f, m, n): the copy of t goes to the copy of f(t)."""
    return {
        (new, reference_copy(upd, n, f(old), e))
        for e in upd.events.events
        for old, new in reference_transition(upd, m, e)
    }


def maps_between_powers(model):
    """(map, m, n) for maps from the m-th to the n-th power of the model:
    projections, the projections dropping the last variable, the diagonal
    and the function tables."""
    sheaf = model.sheaf
    out = []
    for n in (1, 2, 3):
        power = model.power(n)
        out.append((power.proj_to_base, n, 0))
        out += [(leg, n, 1) for leg in power.component_projections]
        context = tuple(f"x{k}" for k in range(n))
        out.append((frame_map(power.frame, model.power(n - 1).frame, dict(
            model.projection(context, context[:-1]).pairs)), n, n - 1))
    square = by_name(model.power(2))
    diagonal = {a: square[(sheaf.proj(a), (a, a))] for a in sheaf.total.carrier}
    out.append((frame_map(sheaf.total, model.power(2).frame, diagonal), 1, 2))
    for name, arity in model.signature.function_symbols:
        out.append((model.fn_interp_map[name], arity, 1))
    return out


def check_updated_points(model, ev):
    upd = pullback_update(model, ev)
    for n in range(4):
        for e in ev.events:
            assert upd.transition(n, e).pairs == reference_transition(upd, n, e)
        # every updated point is the copy of exactly one old point
        copies = [new for e in ev.events for _, new in reference_transition(upd, n, e)]
        assert sorted(copies) == sorted(upd.updated.power(n).carrier)
    for f, m, n in maps_between_powers(model):
        lifted = upd.lift_map(f, m, n)
        assert lifted.fn.pairs == reference_lift(upd, f, m, n)


def test_updated_points_match_the_label_reference(two_fibers, fo_event):
    check_updated_points(two_fibers, fo_event)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_updated_points_match_the_label_reference_on_generated_models(seed):
    rng = random.Random(seed)
    model = random_small_model(rng)
    check_updated_points(model, random_fo_event_model(rng, model, rng.randrange(1, 3)))


def random_small_model(rng, max_fiber=2):
    base = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), prefix="w"), A)
    return random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=max_fiber))


def test_interp_on_fixture(two_fibers):
    model = two_fibers
    x = Var("x")
    p_of_x = FormulaInContext(("x",), Pred("P", (x,)))
    power = model.power(1)
    assert tuple_form(power, interp_formula(model, p_of_x)) == {("w1", ("d1",))}
    p_of_fx = FormulaInContext(("x",), Pred("P", (Fun("f", (x,)),)))
    assert tuple_form(power, interp_formula(model, p_of_fx)) == set()
    some_p = FormulaInContext((), Exists("u", Pred("P", (Var("u"),))))
    base_power = model.power(0)
    assert tuple_form(base_power, interp_formula(model, some_p)) == {("w1", ())}
    # box over the base frame: w1 only reaches w2 where P is empty
    box_some = FormulaInContext((), Box("a", Exists("u", Pred("P", (Var("u"),)))))
    assert tuple_form(base_power, interp_formula(model, box_some)) == set()


def test_interp_term_on_fixture(two_fibers):
    model = two_fibers
    tic = TermInContext(("x",), Fun("f", (Var("x"),)))
    fm = interp_term(model, tic)
    assert fm("d1") == "d2"
    assert fm("d2") == "d2"
    assert fm("d3") == "d3"


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_interp_matches_oracle(seed):
    rng = random.Random(seed)
    model = random_small_model(rng)
    o = fo_oracle.from_sheaf_model(model)
    for n_ctx in (0, 1, 2):
        context = tuple(f"x{i}" for i in range(n_ctx))
        phi = random_fo_formula(rng, model, context, depth=2)
        got = tuple_form(model.power(n_ctx), interp_formula(model, FormulaInContext(context, phi)))
        assert got == fo_oracle.tuple_extension(o, context, phi)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_interp_matches_oracle_dynamic(seed):
    rng = random.Random(seed)
    model = random_small_model(rng)
    ev = random_fo_event_model(rng, model, rng.randrange(1, 3))
    refs = [("E", e) for e in ev.events]
    registry = {"E": ev}
    oreg = {"E": fo_oracle.from_event_model(ev)}
    o = fo_oracle.from_sheaf_model(model)
    context = ("x",)
    phi = random_fo_formula(rng, model, context, depth=2, event_refs=refs)
    got = tuple_form(
        model.power(1), interp_formula(model, FormulaInContext(context, phi), registry)
    )
    assert got == fo_oracle.tuple_extension(o, context, phi, oreg)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_interp_in_a_larger_context_matches_oracle(seed):
    # a formula over (x1) read in (x0, x1, x2): each node is computed over
    # its own free variables and weakened to the context by pullback
    rng = random.Random(seed)
    model = random_small_model(rng)
    ev = random_fo_event_model(rng, model, rng.randrange(1, 3))
    registry, oreg = {"E": ev}, {"E": fo_oracle.from_event_model(ev)}
    phi = random_fo_formula(rng, model, ("x1",), depth=3, event_refs=[("E", e) for e in ev.events])
    context = ("x0", "x1", "x2")
    got = interp_formula(model, FormulaInContext(context, phi), registry)
    o = fo_oracle.from_sheaf_model(model)
    assert tuple_form(model.power(3), got) == fo_oracle.tuple_extension(o, context, phi, oreg)


def test_weakening_and_quantifiers_share_one_projection():
    # forall y. R2(x, y) takes its image along the projection (x, y) -> (x),
    # and P1(u) read in (u, v) is pulled back along (u, v) -> (u): one
    # projection, kept once whatever its variables are called
    model = random_small_model(random.Random(5))
    o = fo_oracle.from_sheaf_model(model)
    for text in ("ctx x | forall y. R2(x, y)", "ctx u, v | P1(u)"):
        phi = parse_formula(text)
        got = interp_formula(model, phi)
        want = fo_oracle.tuple_extension(o, phi.context, phi.body)
        assert tuple_form(model.power(len(phi.context)), got) == want
    assert list(model._projections) == [(2, (0,))]


def test_weakening_builds_no_transpose():
    # weakening reads the projection's byte code; only a quantifier's
    # image along it reads its predecessor rows
    model = random_small_model(random.Random(5))
    phi = parse_formula("ctx u, v | P1(u)")
    want = fo_oracle.tuple_extension(fo_oracle.from_sheaf_model(model), phi.context, phi.body)
    assert tuple_form(model.power(2), interp_formula(model, phi)) == want
    assert "pred_rows" not in model._projections[(2, (0,))].__dict__


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dynamic_preconditions_match_oracle(seed):
    # F's preconditions are event operators over a second model E;
    # formulas mix [F,f] and [E,e].
    rng = random.Random(seed)
    model = random_small_model(rng)
    inner = random_fo_event_model(rng, model, rng.randrange(1, 3))
    frame = random_frame(rng, random_carrier(rng, rng.randrange(1, 3), prefix="f"), A)
    outer = EventModel.make(frame, {
        f: rng.choice((DelBox, DelDia))(
            "E", rng.choice(inner.events), random_fo_formula(rng, model, (), 1)
        )
        for f in frame.carrier
    })
    registry = {"E": inner, "F": outer}
    oreg = {name: fo_oracle.from_event_model(ev) for name, ev in registry.items()}
    refs = [("E", e) for e in inner.events] + [("F", f) for f in outer.events]
    o = fo_oracle.from_sheaf_model(model)
    context = ("x",)
    for _ in range(5):
        phi = random_fo_formula(rng, model, context, depth=2, event_refs=refs)
        got = tuple_form(
            model.power(1), interp_formula(model, FormulaInContext(context, phi), registry)
        )
        assert got == fo_oracle.tuple_extension(o, context, phi, oreg)


def test_closed_formulas_match_propositional_semantics(two_fibers):
    # in an empty context, an arity-0 predicate behaves exactly like an atom
    # over the base frame
    model = two_fibers
    base = model.sheaf.base
    kmodel = KripkeModel.make(base, {"q": model.rel_interp_map["Q"]})
    shapes = [
        lambda q: q,
        lambda q: Box("a", q),
        lambda q: Dia("a", q),
        lambda q: Box("a", Dia("a", q)),
    ]
    for shape in shapes:
        fo_ext = interp_formula(model, FormulaInContext((), shape(Pred("Q", ()))))
        prop_ext = extension(kmodel, shape(Atom("q")))
        assert fo_ext.members == prop_ext.members


def test_pullback_update_matches_oracle(two_fibers, fo_event):
    model = two_fibers
    ev = fo_event
    upd = pullback_update(model, ev)
    o2 = fo_oracle.update(
        fo_oracle.from_sheaf_model(model), fo_oracle.from_event_model(ev), {}
    )
    new_sheaf = upd.updated.sheaf
    assert set(new_sheaf.base.carrier) == {pair(w, e) for (w, e) in o2["base_worlds"]}
    assert set(new_sheaf.total.carrier) == {pair(a, e) for (a, e) in o2["individuals"]}
    for ag in new_sheaf.base.agents:
        assert new_sheaf.base.rel(ag).pairs == {
            (pair(*x), pair(*y)) for (x, y) in o2["base_rel"][ag]
        }
        assert new_sheaf.total.rel(ag).pairs == {
            (pair(*x), pair(*y)) for (x, y) in o2["dom_rel"][ag]
        }
    for (a, e) in o2["individuals"]:
        assert new_sheaf.proj(pair(a, e)) == pair(*o2["pi"][(a, e)])


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_update_interp_matches_oracle(seed):
    rng = random.Random(seed)
    model = random_small_model(rng)
    ev = random_fo_event_model(rng, model, rng.randrange(1, 3))
    upd = pullback_update(model, ev)
    o2 = fo_oracle.update(
        fo_oracle.from_sheaf_model(model), fo_oracle.from_event_model(ev), {}
    )
    context = ("x",)
    phi = random_fo_formula(rng, upd.updated, context, depth=1)
    power = upd.updated.power(1)
    got = tuple_form(power, interp_formula(upd.updated, FormulaInContext(context, phi)))
    want = {
        (pair(*w), tuple(pair(*a) for a in combo))
        for (w, combo) in fo_oracle.tuple_extension(o2, context, phi)
    }
    assert got == want


def test_update_yields_sheaf_and_transitions(two_fibers, fo_event):
    upd = pullback_update(two_fibers, fo_event)
    assert check_pullback_update(upd).ok
    new_sheaf = upd.updated.sheaf
    assert is_kripke_sheaf(new_sheaf.total, new_sheaf.base, new_sheaf.proj).is_sheaf
    assert check_diagonal_characterization(new_sheaf.total, new_sheaf.base, new_sheaf.proj).agrees
    for e in fo_event.events:
        for n in (0, 1, 2):
            t = upd.transition(n, e)
            for (old, new) in t.pairs:
                assert reference_copy(upd, n, old, e) == new


def _planted(upd, fn=None, proj=None):
    """The update with its function table f or its projection replaced by a
    planted one, built past the constructors that would reject it."""
    model = copy.copy(upd.updated)
    sheaf = model.sheaf
    if fn is not None:
        power = sheaf.power(1)
        model.fn_interp_map = {"f": FrameMap(power.frame, sheaf.total, Rel(
            power.carrier, sheaf.total.carrier, fn.items()
        ))}
    if proj is not None:
        bad = Rel(sheaf.total.carrier, sheaf.base.carrier, proj)
        model.sheaf = _unchecked(
            KripkeSheaf, total=sheaf.total, base=sheaf.base,
            proj=_unchecked(FrameMap, src=sheaf.total, dst=sheaf.base, fn=bad), _powers={},
        )
    planted = copy.copy(upd)
    planted.updated = model
    return planted


def test_pullback_update_check_catches_planted_defects(two_fibers, fo_event):
    upd = pullback_update(two_fibers, fo_event)
    assert check_pullback_update(upd).ok
    f = upd.updated.fn_interp_map["f"]
    table = {x: f(x) for x in f.src.carrier}
    # every individual steps to (d3,e2) alone, so f must fix it to be monotone
    assert table["(d3,e2)"] == "(d3,e2)"

    def failures(planted):
        return [(c.name, c.witness) for c in check_pullback_update(planted).failures()]

    assert failures(_planted(upd, fn={**table, "(d3,e2)": "(d1,e1)"})) == [
        ("function table 'f'", "interpretation of 'f' is not monotone at '(d1,e1)' (agent 'a')"),
    ]
    # a constant map to (d3,e2) is monotone, but leaves the fiber of (w1,e1)
    assert failures(_planted(upd, fn={x: "(d3,e2)" for x in table})) == [
        ("function table 'f'", "interpretation of 'f' is not fiber preserving at '(d1,e1)'"),
    ]
    pairs = upd.updated.sheaf.proj.fn.pairs | {("(d3,e2)", "(w1,e2)")}
    assert failures(_planted(upd, proj=pairs)) == [
        ("projection is a function", "'(d3,e2)' lies over 2 worlds"),
    ]


def test_function_fault_names_the_point_the_composites_name():
    # fiber-preserving tables with random values: the first point whose
    # successors' values leave its value's successors, agent by agent, read
    # off the composite compose(R, f) as the definition of monotone states it
    rng = random.Random(7)
    ab = AgentSet(("a", "b"))
    verdicts = set()
    for _ in range(30):
        base = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), prefix="w"), ab)
        sheaf = random_sheaf(rng, base, max_fiber=3)
        fibers = [[i for i, b in enumerate(bit_flags(m)) if b] for m in sheaf.proj.fn.pred_rows]
        for arity in (1, 2):
            power = sheaf.power(arity)
            rows = [1 << rng.choice(fibers[w]) for w in power.worlds]
            fm = FrameMap(power.frame, sheaf.total, Rel.from_rows(
                power.carrier, sheaf.total.carrier, rows
            ))
            expected = None
            for a in ab:
                steps = sheaf.total.rel(a).rows
                pushed = compose(power.frame.rel(a), fm.fn).rows
                bad = [p for p, v in enumerate(rows) if pushed[p] & ~steps[v.bit_length() - 1]]
                if bad:
                    lbl = power.carrier.elements[bad[0]]
                    expected = f"interpretation of 'f' is not monotone at {lbl!r} (agent {a!r})"
                    break
            fault = _function_fault("f", arity, fm, sheaf)
            assert (fault and str(fault)) == expected
            verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_fibered_power_round_trips(two_fibers):
    sheaf = two_fibers.sheaf
    for n in (0, 1, 2, 3):
        power = fibered_power(sheaf, n)
        for lbl in power.carrier:
            tup = power.tuple_of(lbl)
            w = power.world_of(lbl)
            assert len(tup) == n
            assert all(sheaf.proj(a) == w for a in tup)
            # the label is made from the point, and the point found from its coordinates
            assert lbl == (w if n == 0 else tup[0] if n == 1 else "(" + ",".join(tup) + ")")
            i = power.carrier.index[lbl]
            assert power.points([power.worlds[i]], [power.coords[i]]) == [i]
        # every in-fiber tuple is present
        count = sum(len(sheaf.fiber(w)) ** n for w in sheaf.base.carrier)
        assert len(power.carrier) == count
        # the points' indices are the ones the legs read off
        images = [[m.bit_length() - 1 for m in leg.fn.rows] for leg in power.component_projections]
        assert list(power.coords) == (list(zip(*images)) if n else [()] * count)
        assert list(power.worlds) == [m.bit_length() - 1 for m in power.proj_to_base.fn.rows]


def test_fibered_power_is_the_power_the_sheaf_keeps(two_fibers):
    sheaf = two_fibers.sheaf
    for n in range(4):
        assert fibered_power(sheaf, n) is sheaf.power(n) is two_fibers.power(n)


def test_is_kripke_sheaf_builds_no_fibered_square(two_fibers, monkeypatch):
    def refuse(*args):
        raise AssertionError("fibered square built")

    monkeypatch.setattr(sheaves, "fibered_pairs", refuse)
    sheaf = two_fibers.sheaf
    assert is_kripke_sheaf(sheaf.total, sheaf.base, sheaf.proj).is_sheaf
    with pytest.raises(AssertionError, match="fibered square built"):
        check_diagonal_characterization(sheaf.total, sheaf.base, sheaf.proj)


def test_power_zero_and_one_are_base_and_total(two_fibers):
    sheaf = two_fibers.sheaf
    assert fibered_power(sheaf, 0).frame == sheaf.base
    assert fibered_power(sheaf, 1).frame == sheaf.total


def test_kripke_sheaf_constructor_validates():
    w = FiniteSet("w", ("w1", "w2"))
    base = KripkeFrame.make(w, A, {"a": Rel(w, w, [("w1", "w2"), ("w2", "w2")])})
    d = FiniteSet("d", ("d1", "d2"))
    # d1 sits over w1 but has no step into w2's fiber: boundedness fails
    total = KripkeFrame.make(d, A, {"a": Rel(d, d, [("d2", "d2")])})
    proj = frame_map(total, base, {"d1": "w1", "d2": "w2"})
    with pytest.raises(InvariantViolation):
        KripkeSheaf(total, base, proj)


@pytest.mark.parametrize("mode", ["extra-successor", "missing-successor", "empty-fiber"])
def test_planted_defects_are_detected(mode):
    rng = random.Random(0)
    flags = {
        "extra-successor": "unique_lift",
        "missing-successor": "bounded",
        "empty-fiber": "surjective",
    }
    found = 0
    for _ in range(40):
        base = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), prefix="w"), A)
        sheaf = random_sheaf(rng, base, max_fiber=3)
        try:
            total, b, proj = plant_non_sheaf(rng, sheaf, mode)
        except InvariantViolation:
            continue  # this sheaf had no room for the requested defect
        chk = is_kripke_sheaf(total, b, proj)
        assert not chk.is_sheaf
        assert not getattr(chk, flags[mode])
        assert check_diagonal_characterization(total, b, proj).agrees
        # the constructor enforces the same condition, with the same message
        with pytest.raises(InvariantViolation, match=re.escape(chk.failure)):
            KripkeSheaf(total, b, proj)
        found += 1
    assert found >= 5


# The direct sheaf conditions of planted defects, as (surjective, bounded,
# unique lifts, first failure): three plants per mode at Random(24), two agents
PLANTED_CONDITIONS = {
    "extra-successor": [
        (True, True, False, "unique-lift condition fails (agent 'a'): witness d3_1,d3_1,d3_2"),
        (True, True, False, "unique-lift condition fails (agent 'a'): witness d2_2,d2_1,d2_2"),
        (True, True, False, "unique-lift condition fails (agent 'a'): witness d2_2,d1_1,d1_2"),
    ],
    "missing-successor": [(True, False, True, "projection not a bounded morphism")] * 3,
    "empty-fiber": [
        (False, False, True, "projection not surjective: no individual over 'w1'"),
        (False, False, True, "projection not surjective: no individual over 'w3'"),
        (False, True, True, "projection not surjective: no individual over 'w2'"),
    ],
}


@pytest.mark.parametrize("mode", sorted(PLANTED_CONDITIONS))
def test_sheaf_conditions_of_planted_defects(mode):
    ab = AgentSet(("a", "b"))
    rng = random.Random(24)
    got = []
    while len(got) < 3:
        base = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), prefix="w"), ab)
        sheaf = random_sheaf(rng, base, max_fiber=3)
        assert _sheaf_conditions(sheaf.total, sheaf.base, sheaf.proj) == (True, True, True, None)
        assert check_diagonal_characterization(sheaf.total, sheaf.base, sheaf.proj).agrees
        try:
            triple = plant_non_sheaf(rng, sheaf, mode)
        except InvariantViolation:
            continue
        got.append(_sheaf_conditions(*triple))
    assert got == PLANTED_CONDITIONS[mode]


def test_sheaf_conditions_failing_twice_name_the_first():
    w = FiniteSet("w", ("w1", "w2"))
    base = KripkeFrame.make(w, A, {"a": Rel(w, w, [("w1", "w2"), ("w2", "w2")])})
    d = FiniteSet("d", ("d1", "d2", "d3"))
    # d1 steps to both individuals over w2, which step nowhere: neither
    # bounded nor with unique lifts
    total = KripkeFrame.make(d, A, {"a": Rel(d, d, [("d1", "d2"), ("d1", "d3")])})
    proj = frame_map(total, base, {"d1": "w1", "d2": "w2", "d3": "w2"})
    assert _sheaf_conditions(total, base, proj) == (
        True, False, False, "projection not a bounded morphism"
    )
    # nothing over w2, and d1, d2 over w1 each step to both
    loop = KripkeFrame.make(w, A, {"a": Rel(w, w, [("w1", "w1")])})
    d2 = FiniteSet("d", ("d1", "d2"))
    total2 = KripkeFrame.make(d2, A, {"a": Rel(d2, d2, [(x, y) for x in d2 for y in d2])})
    proj2 = frame_map(total2, loop, {"d1": "w1", "d2": "w1"})
    assert _sheaf_conditions(total2, loop, proj2) == (
        False, True, False, "projection not surjective: no individual over 'w2'"
    )


def test_quantifier_shadowing_rejected(two_fibers):
    phi = FormulaInContext(("x",), Exists("x", Pred("P", (Var("x"),))))
    with pytest.raises(ShadowedVariable):
        interp_formula(two_fibers, phi)


P_X = Pred("P", (Var("x"),))


@pytest.mark.parametrize("phi", [
    # the binders are vacuous or bind x, so no node below needs the context's x
    FormulaInContext(("x",), Forall("y", Forall("x", P_X))),
    FormulaInContext(("x",), And(Pred("Q", ()), Exists("x", P_X))),
    FormulaInContext((), Forall("x", Forall("x", P_X))),
    FormulaInContext((), Forall("x", Forall("y", Exists("x", P_X)))),
], ids=["vacuous-binder", "closed-conjunct", "nested", "nested-vacuous"])
def test_shadowing_is_caught_before_the_context_narrows(two_fibers, phi):
    with pytest.raises(ShadowedVariable):
        interp_formula(two_fibers, phi)


def test_unresolved_event_model(two_fibers):
    phi = FormulaInContext((), DelBox("nope", "e1", Pred("Q", ())))
    with pytest.raises(UnresolvedEventModel):
        interp_formula(two_fibers, phi)


def test_cyclic_preconditions_rejected(two_fibers):
    e = FiniteSet("e", ("e1",))
    frame = KripkeFrame.make(e, A, {"a": Rel(e, e, [("e1", "e1")])})
    ev = EventModel.make(frame, {"e1": DelBox("LOOP", "e1", Pred("Q", ()))})
    phi = FormulaInContext((), DelBox("LOOP", "e1", Pred("Q", ())))
    with pytest.raises(CyclicPrecondition):
        interp_formula(two_fibers, phi, {"LOOP": ev})


def test_verify_quantifier_reduction_on_fixture(two_fibers, fo_event):
    phi = FormulaInContext(("x",), Pred("P", (Var("x"),)))
    rep = verify_quantifier_reduction(
        two_fibers, fo_event, "e1", phi, registry={"E": fo_event}, ref="E"
    )
    assert rep.ok, rep.failures()


def test_substitution_functoriality_smoke(two_fibers):
    phi = FormulaInContext(("x",), Pred("P", (Fun("f", (Var("x"),)),)))
    terms = [TermInContext(("z1", "z2"), Fun("f", (Var("z2"),)))]
    rep = check_substitution_functoriality(two_fibers, phi, terms)
    assert rep.ok, rep.failures()


def test_substitution_box_commutation_smoke(two_fibers, fo_event):
    phi = FormulaInContext(("x",), Pred("P", (Var("x"),)))
    terms = [TermInContext(("z1",), Fun("f", (Var("z1"),)))]
    rep = check_substitution_box_commutation(
        two_fibers, phi, terms, ev=fo_event, event="e1"
    )
    assert rep.ok, rep.failures()


def test_transition_commutation_smoke(two_fibers, fo_event):
    upd = pullback_update(two_fibers, fo_event)
    power1 = two_fibers.power(1)
    rep = check_transition_commutation(upd, power1.proj_to_base, 1, 0)
    assert rep.ok, rep.failures()
    rep2 = check_transition_commutation(upd, two_fibers.fn_interp_map["f"], 1, 1)
    assert rep2.ok, rep2.failures()


def test_formula_helpers_leave_no_reference_cycles(two_fibers):
    # as_sentence and random_fo_formula recurse through module-level
    # functions, so reference counting alone frees what a call leaves
    rng = random.Random(0)
    refs = [("E", "e1"), ("E", "e2")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            phi = random_fo_formula(rng, two_fibers, ("x",), 3, event_refs=refs)
            as_sentence(Box("a", Exists("x", phi)))
            as_sentence(Dia("a", Atom("p")))
        assert gc.collect() == 0
    finally:
        gc.enable()
