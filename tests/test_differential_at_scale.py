"""Seeded differential checks above the law suites' sizes.

The law suites draw models of at most five worlds and bases of at most
three.  These tests run the same answers, one fixed seed per layer, on
larger inputs where the pointwise oracles still finish in a second or
two: product update and evaluation with event operators on Kripke
models, a product update of 300 worlds, pullback update (re-proved by ``check_pullback_update``) and
evaluation in context on sheaf models, evaluation in context on a sheaf
whose binary power has more than 256 points, and a dump/load round trip
of a generated 400-world model.
"""

import random

import fo_oracle
import oracle
from delmc import (
    AgentSet,
    And,
    DelBox,
    DelDia,
    Exists,
    FiniteSet,
    FormulaInContext,
    KripkeModel,
    Pred,
    Var,
    check_pullback_update,
    dump_model,
    extension,
    interp_formula,
    load_model,
    product_update,
    pullback_update,
)
from delmc.formulas import children
from delmc.generators import (
    random_carrier,
    random_event_model,
    random_fo_event_model,
    random_fo_formula,
    random_formula,
    random_frame,
    random_model,
    random_sheaf,
    random_sheaf_model,
    random_subset,
)

AB = AgentSet(("a", "b"))


def pair(w, e):
    return f"({w},{e})"


def has_event_operator(phi):
    return isinstance(phi, (DelBox, DelDia)) or any(map(has_event_operator, children(phi)))


def test_kripke_layer_matches_oracle_at_scale():
    rng = random.Random(20250)
    model = random_model(rng, 32, AB)
    ev = random_event_model(rng, 3, AB, ("p", "q"))
    om, oev = oracle.from_model(model), oracle.from_event_model(ev)

    upd = product_update(model, ev)
    want = oracle.product(om, oev, {})
    assert list(upd.updated.frame.carrier) == [pair(w, e) for (w, e) in want["worlds"]]
    for ag in AB:
        assert upd.updated.frame.rel(ag).pairs == {
            (pair(*x), pair(*y)) for (x, y) in want["rel"][ag]
        }
    for p in model.atoms:
        assert upd.updated.val(p).members == {pair(*x) for x in want["val"][p]}

    refs = [("E", e) for e in ev.events]
    registry, oreg = {"E": ev}, {"E": oev}
    checked = 0
    while checked < 12:  # formulas with at least one event operator
        phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=3, event_refs=refs)
        assert extension(model, phi, registry).members == oracle.extension(om, phi, oreg)
        checked += has_event_operator(phi)


def test_product_update_past_one_chunk_matches_oracle():
    # 300 old worlds: each lift's first column, and the valuation's
    # preimage along p_x, take the route for targets past 256 points
    rng = random.Random(20253)
    model = random_model(rng, 300, AB)
    ev = random_event_model(rng, 3, AB, ("p", "q"))
    om, oev = oracle.from_model(model), oracle.from_event_model(ev)

    upd = product_update(model, ev)
    want = oracle.product(om, oev, {})
    assert len(upd.updated.frame.carrier) > 256
    assert list(upd.updated.frame.carrier) == [pair(w, e) for (w, e) in want["worlds"]]
    for ag in AB:
        assert upd.updated.frame.rel(ag).pairs == {
            (pair(*x), pair(*y)) for (x, y) in want["rel"][ag]
        }
    for p in model.atoms:
        assert upd.updated.val(p).members == {pair(*x) for x in want["val"][p]}


def test_sheaf_layer_matches_oracle_at_scale():
    rng = random.Random(20251)
    for size in (5, 6):
        base = random_frame(rng, random_carrier(rng, size, prefix="w"), AB)
        model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=3))
        ev = random_fo_event_model(rng, model, 3)
        o, oev = fo_oracle.from_sheaf_model(model), fo_oracle.from_event_model(ev)

        upd = pullback_update(model, ev)
        report = check_pullback_update(upd)
        assert report.ok, report.failures()
        new = upd.updated.sheaf
        want = fo_oracle.update(o, oev, {})
        assert list(new.base.carrier) == [pair(*x) for x in want["base_worlds"]]
        assert set(new.total.carrier) == {pair(*x) for x in want["individuals"]}
        for ag in AB:
            assert new.base.rel(ag).pairs == {
                (pair(*x), pair(*y)) for (x, y) in want["base_rel"][ag]
            }
            assert new.total.rel(ag).pairs == {
                (pair(*x), pair(*y)) for (x, y) in want["dom_rel"][ag]
            }
        for x in want["individuals"]:
            assert new.proj(pair(*x)) == pair(*want["pi"][x])

        refs = [("E", e) for e in ev.events]
        for context in ((), ("x",), ("x", "y")) * 3:
            phi = random_fo_formula(rng, model, context, depth=2, event_refs=refs)
            power = model.power(len(context))
            got = interp_formula(model, FormulaInContext(context, phi), {"E": ev})
            assert {(power.world_of(lbl), power.tuple_of(lbl)) for lbl in got.members} == (
                fo_oracle.tuple_extension(o, context, phi, {"E": oev})
            )


def test_sheaf_layer_past_one_chunk_matches_oracle():
    # fibers of 11, 5 and 11 individuals: the binary power has 267 points,
    # so weakening onto it, its predicate leaves and the updated R2 all
    # take preimages into a target past 256 points
    rng = random.Random(10)
    base = random_frame(rng, random_carrier(rng, 3, prefix="w"), AB)
    model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=12))
    ev = random_fo_event_model(rng, model, 2)
    o, oev = fo_oracle.from_sheaf_model(model), fo_oracle.from_event_model(ev)
    assert len(model.power(2).carrier) > 256

    x, y, z, u = map(Var, "xyzu")
    cases = [
        (("x", "y", "z"), And(Pred("R2", (x, y)), Pred("P1", (z,)))),
        (("x", "z"), Exists("u", And(Pred("R2", (x, u)), Pred("R2", (u, z))))),
    ]
    cases += [(("x", "y"), DelBox("E", e, Pred("R2", (x, y)))) for e in ev.events]
    for context, phi in cases:
        power = model.power(len(context))
        got = interp_formula(model, FormulaInContext(context, phi), {"E": ev})
        assert {(power.world_of(lbl), power.tuple_of(lbl)) for lbl in got.members} == (
            fo_oracle.tuple_extension(o, context, phi, {"E": oev})
        )


def test_load_dump_round_trip_at_400_worlds():
    # on the carrier name the loader gives worlds, so the two compare equal
    rng = random.Random(20252)
    carrier = FiniteSet("W", random_carrier(rng, 400).elements)
    model = KripkeModel.make(
        random_frame(rng, carrier, AB), {p: random_subset(rng, carrier) for p in ("p", "q")}
    )
    assert sum(len(model.frame.rel(ag).pairs) for ag in AB) > 10_000
    assert load_model(dump_model(model)) == model
