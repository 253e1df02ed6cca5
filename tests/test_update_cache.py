"""Updates and announcements are kept on the model they are built on.

On one model object, ``product_update`` / ``pullback_update``, queries with
event operators and verified reductions share one build per event model and
precondition extents; announcements of one extent share one submodel.  A
registry that changes a precondition's extent builds afresh, one that leaves
the extents alone shares the build, and a build that raises leaves nothing
behind.  Every answer is still held to the pointwise oracles.
"""

import gc
import weakref

import pytest

import fo_oracle
import oracle
from conftest import data_path
from delmc import (
    AgentSet,
    And,
    Atom,
    Bot,
    Box,
    CapExceeded,
    DelBox,
    DelDia,
    Dia,
    EventModel,
    FiniteSet,
    FormulaInContext,
    KripkeFrame,
    KripkeModel,
    OpenPrecondition,
    Pred,
    Rel,
    SheafModel,
    Top,
    Var,
    extension,
    interp_formula,
    is_static,
    load_file,
    models,
    pal_update,
    parse_formula,
    product_update,
    pullback_update,
    reduce_formula,
)

A = AgentSet(("a",))
AB = AgentSet(("a", "b"))


@pytest.fixture
def builds(monkeypatch):
    """Count calls to each layer's build_update."""
    counts = {KripkeModel: 0, SheafModel: 0}
    for cls in counts:
        def counted(self, ev, extents, cls=cls, original=cls.build_update):
            counts[cls] += 1
            return original(self, ev, extents)

        monkeypatch.setattr(cls, "build_update", counted)
    return counts


@pytest.fixture
def preconditions(monkeypatch):
    """The events whose preconditions are read to key an update, in order."""
    read = []
    for cls in (KripkeModel, SheafModel):
        def counted(pre, e, original=cls.sentence):
            read.append(e)
            return original(pre, e)

        monkeypatch.setattr(cls, "sentence", staticmethod(counted))
    return read


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


def _one_event(name, pre, agents=AB):
    e = FiniteSet(name, (name,))
    loops = Rel(e, e, [(name, name)])
    return EventModel.make(KripkeFrame.make(e, agents, {a: loops for a in agents}), {name: pre})


def test_a_registry_that_changes_an_extent_builds_again(builds, two_worlds):
    # F's precondition [E,e]p reads E through the registry: with e always
    # executable it is p, with e never executable it holds everywhere; the
    # registry reaches the key through that extent
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
    # fo_event's preconditions are static: no registry changes their extents
    first = pullback_update(two_fibers, fo_event)
    assert pullback_update(two_fibers, fo_event, {}) is first
    assert pullback_update(two_fibers, fo_event, {"E": fo_event}) is first
    # F's precondition [E,e]Q reads E through the registry: with e always
    # executable it is Q (world w1), with e never executable it holds
    # everywhere; the atom Q is folded into a 0-ary predicate
    f = _one_event("f", DelBox("E", "e", Atom("Q")), A)
    got = [
        pullback_update(two_fibers, f, {"E": _one_event("e", pre, A)})
        for pre in (Top(), Top(), Bot())
    ]
    assert got[1] is got[0] and got[2] is not got[0]
    assert [u.extents["f"].members for u in got] == [{"w1"}, {"w1"}, {"w1", "w2"}]
    # fo_event once, then E and F under the first registry, nothing under
    # its equal copy, and E and F again under the third
    assert builds[SheafModel] == 5


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


def _query(text):
    """Evaluate text on a model, with its event model registered as F."""
    def run(model, ev):
        registry = {"F": ev} if ev is not None else {}
        return extension(model, parse_formula(text, event_models=registry), registry)

    return run


@pytest.mark.parametrize("model_file, events_file, build", [
    ("two_worlds.json", "private_announcement.json", product_update),
    ("two_fibers.json", "fo_event.json", pullback_update),
    ("two_worlds.json", None, _query("[!p]q")),
    ("two_worlds.json", "private_announcement.json", _query("[F,ep][F,et]p")),
], ids=["product", "pullback", "announcement", "nested"])
def test_a_model_with_an_update_is_freed_without_the_collector(model_file, events_file, build):
    # the model keeps what it built, but nothing kept runs back to the
    # model, so reference counting alone frees it while its updates live on
    model = _load(model_file)
    ev = _load(events_file) if events_file else None
    build(model, ev)
    kept = list(model._updates.values())
    assert len(kept) == 1
    gone = weakref.ref(model)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()


def test_an_update_dropped_by_its_caller_is_handed_out_again(two_worlds, private_announcement_event):
    # the model keeps the built update; a caller that let go of it gets the
    # very same object back, with no second build
    first = product_update(two_worlds, private_announcement_event)
    handed_out = weakref.ref(first)
    del first
    again = product_update(two_worlds, private_announcement_event)
    assert again is handed_out() and again.p_x.dst is two_worlds.frame


def test_announcements_of_one_extent_share_one_submodel(lift_builds, monkeypatch, two_worlds):
    # [!p] and [!(p & p)] have one extent, so the model keeps one submodel
    # for both and the memo finds it by identity, building no relation
    submodels = []

    def counted(*args, original=models.subframe, **kwargs):
        submodels.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(models, "subframe", counted)
    phi = parse_formula("[!p]q & [!(p & p)]q")
    om = oracle.from_model(two_worlds)
    assert extension(two_worlds, phi).members == oracle.extension(om, phi)
    assert lift_builds == [] and len(submodels) == 1
    sub, _ = pal_update(two_worlds, Atom("p"))
    assert pal_update(two_worlds, parse_formula("p & p"))[0] is sub
    psi = parse_formula("[!(p & p)]<a>q")
    assert extension(two_worlds, psi).members == oracle.extension(om, psi)
    assert pal_update(two_worlds, Atom("p"))[0] is sub and len(submodels) == 1


def test_an_open_precondition_is_refused_before_the_cache(two_fibers):
    # the precondition is read before the lookup, so nothing is kept
    ev = _one_event("e", Pred("P", (Var("x"),)), A)
    with pytest.raises(OpenPrecondition):
        pullback_update(two_fibers, ev)
    phi = FormulaInContext(("x",), DelBox("E", "e", Pred("P", (Var("x"),))))
    with pytest.raises(OpenPrecondition):
        interp_formula(two_fibers, phi, {"E": ev})
    assert two_fibers._updates == {}


def test_an_event_model_is_resolved_once_per_model(preconditions, two_worlds, private_announcement_event):
    # two [F,e] nodes on one model: F's preconditions are read once, by the
    # first; a verified reduce, which evaluates every step, reads them once too
    registry = {"F": private_announcement_event}
    phi = And(DelBox("F", "ep", Box("a", Atom("p"))), DelDia("F", "et", Dia("b", Atom("q"))))
    om, oreg = oracle.from_model(two_worlds), {"F": oracle.from_event_model(private_announcement_event)}
    assert extension(two_worlds, phi, registry).members == oracle.extension(om, phi, oreg)
    assert preconditions == ["ep", "et"]
    preconditions.clear()
    result = reduce_formula(phi, two_worlds, registry)
    assert len(result.steps) > 2 and preconditions == ["ep", "et"]


def test_an_event_model_is_resolved_once_per_sheaf_model(preconditions, two_fibers, fo_event):
    registry = {"E": fo_event}
    x = Var("x")
    body = And(DelBox("E", "e1", Pred("P", (x,))), DelDia("E", "e2", Pred("P", (x,))))
    interp_formula(two_fibers, FormulaInContext(("x",), body), registry)
    assert preconditions == ["e1", "e2"]
