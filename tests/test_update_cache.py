"""Updates are kept on the model they update.

On one model object, ``product_update`` / ``pullback_update``, queries with
event operators and verified reductions share one build per event model and
registry.  A changed registry builds afresh, and a build that raises leaves
nothing behind.  Every answer is still held to the pointwise oracles.
"""

import gc
import weakref

import pytest

import fo_oracle
import oracle
from conftest import data_path
from delmc import (
    AgentSet,
    Atom,
    Bot,
    CapExceeded,
    DelBox,
    EventModel,
    FiniteSet,
    KripkeFrame,
    KripkeModel,
    SheafModel,
    Top,
    extension,
    interp_formula,
    is_static,
    load_file,
    models,
    parse_formula,
    product_update,
    pullback_update,
    reduce_formula,
    rel,
)

AB = AgentSet(("a", "b"))


@pytest.fixture
def builds(monkeypatch):
    """Count calls to each layer's build_update."""
    counts = {KripkeModel: 0, SheafModel: 0}
    for cls in counts:
        def counted(self, ev, ext, cls=cls, original=cls.build_update):
            counts[cls] += 1
            return original(self, ev, ext)

        monkeypatch.setattr(cls, "build_update", counted)
    return counts


def _load(name):
    return load_file(data_path(name))[1]


def _tuple_form(power, subset):
    if power.n == 0:
        return {(lbl, ()) for lbl in subset.members}
    return {(power.world_of(lbl), power.tuple_of(lbl)) for lbl in subset.members}


def test_kripke_entry_points_share_one_build(builds):
    model, ev = _load("two_worlds.json"), _load("private_announcement.json")
    registry = {"F": ev}
    om, oreg = oracle.from_model(model), {"F": oracle.from_event_model(ev)}
    upd = product_update(model, ev, registry)
    for text in ("[F,ep]p", "<F,et><b>q", "[F,et][a]~p"):
        phi = parse_formula(text, event_models=registry)
        assert extension(model, phi, registry).members == oracle.extension(om, phi, oreg)
    res = reduce_formula(parse_formula("[F,et](p | <b>q)", event_models=registry), model, registry)
    assert is_static(res.result)
    assert product_update(model, ev, registry) is upd
    assert builds == {KripkeModel: 1, SheafModel: 0}


def test_sheaf_entry_points_share_one_build(builds):
    model, ev = _load("two_fibers.json"), _load("fo_event.json")
    registry = {"E": ev}
    o, oreg = fo_oracle.from_sheaf_model(model), {"E": fo_oracle.from_event_model(ev)}
    upd = pullback_update(model, ev, registry)
    for text in ("ctx x | [E,e1]P(x)", "ctx x | <E,e2>exists y. P(y)", "ctx | [E,e1][a]Q"):
        phi = parse_formula(text, event_models=registry)
        got = _tuple_form(model.power(len(phi.context)), interp_formula(model, phi, registry))
        assert got == fo_oracle.tuple_extension(o, phi.context, phi.body, oreg)
    res = reduce_formula(
        parse_formula("ctx x | [E,e1](P(x) & <a>Q)", event_models=registry), model, registry
    )
    assert is_static(res.result)
    assert pullback_update(model, ev, registry) is upd
    assert builds == {KripkeModel: 0, SheafModel: 1}


def _one_event(name, pre):
    e = FiniteSet(name, (name,))
    loops = rel(e, e, [(name, name)])
    return EventModel.make(KripkeFrame.make(e, AB, {"a": loops, "b": loops}), {name: pre})


def test_registry_is_part_of_the_key(builds, two_worlds):
    # F's precondition [E,e]p reads E through the registry: with e always
    # executable it is p, with e never executable it holds everywhere
    f = _one_event("f", DelBox("E", "e", Atom("p")))
    phi = DelBox("F", "f", Atom("p"))
    om = oracle.from_model(two_worlds)
    got = []
    for e_model in (_one_event("e", Top()), _one_event("e", Top()), _one_event("e", Bot())):
        registry = {"E": e_model, "F": f}
        oreg = {n: oracle.from_event_model(v) for n, v in registry.items()}
        got.append(extension(two_worlds, phi, registry).members)
        assert got[-1] == oracle.extension(om, phi, oreg)
    assert got[0] != got[2]
    # E then F under the first registry, nothing under its equal copy, and
    # E then F again under the second
    assert builds[KripkeModel] == 4


def test_changed_registry_builds_again_on_sheaves(builds, two_fibers, fo_event):
    first = pullback_update(two_fibers, fo_event)
    assert pullback_update(two_fibers, fo_event, {}) is first
    assert pullback_update(two_fibers, fo_event, {"E": fo_event}) is not first
    assert builds[SheafModel] == 2


@pytest.mark.parametrize("model_file, events_file, update, cap", [
    ("two_worlds.json", "private_announcement.json", product_update, 2),
    ("two_fibers.json", "fo_event.json", pullback_update, 4),
], ids=["product", "pullback"])
def test_a_failed_build_leaves_no_entry(builds, monkeypatch, model_file, events_file, update, cap):
    model, ev = _load(model_file), _load(events_file)
    limit = models.MAX_UPDATE_CARRIER
    monkeypatch.setattr(models, "MAX_UPDATE_CARRIER", cap)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            update(model, ev)
    monkeypatch.setattr(models, "MAX_UPDATE_CARRIER", limit)
    upd = update(model, ev)
    assert update(model, ev) is upd
    assert builds[type(model)] == 3


@pytest.mark.parametrize("model_file, events_file, update", [
    ("two_worlds.json", "private_announcement.json", product_update),
    ("two_fibers.json", "fo_event.json", pullback_update),
], ids=["product", "pullback"])
def test_a_model_with_an_update_is_freed_without_the_collector(
    model_file, events_file, update
):
    # the model keeps its update, but no reference cycle runs back to the
    # model, so reference counting alone frees it
    model, ev = _load(model_file), _load(events_file)
    upd = update(model, ev)
    assert update(model, ev) is upd and upd.source is model
    gone = weakref.ref(model)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del model, upd
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()


def test_an_update_dropped_by_its_caller_is_handed_out_again(two_worlds, private_announcement_event):
    # the model keeps the built update; a caller that let go of it gets it
    # back, over the same model, with no second build
    first = product_update(two_worlds, private_announcement_event)
    kept = first.updated
    del first
    again = product_update(two_worlds, private_announcement_event)
    assert again.source is two_worlds and again.updated is kept
