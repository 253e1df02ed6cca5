"""Rewriting dynamic operators away, with per-step verification."""

import pytest

from delmc import (
    And,
    Atom,
    Box,
    DelBox,
    Dia,
    Exists,
    FormulaInContext,
    Imp,
    NotReducible,
    Or,
    PalBox,
    PalDia,
    Pred,
    Top,
    UnresolvedEventModel,
    Var,
    extension,
    first_order_node,
    interp_formula,
    is_static,
    parse_formula,
    print_formula,
    reduce_formula,
)
from delmc import reduction
from delmc.formulas import children

P, Q = Atom("p"), Atom("q")


def test_is_static_and_first_order_node():
    assert is_static(Box("a", P))
    assert not is_static(PalBox(P, Q))
    assert not is_static(Dia("a", DelBox("E", "e", P)))
    assert first_order_node(Box("a", P)) is None
    assert first_order_node(Box("a", Pred("P", (Var("x"),)))) == "Pred"
    assert first_order_node(Exists("u", Top())) == "Exists"


def test_single_rule_announcement_over_atom():
    res = reduce_formula(PalBox(P, Q))
    assert res.result == Imp(P, Q)
    assert len(res.steps) == 1
    assert res.steps[0].rule == "pal-atom"
    assert res.steps[0].redex == PalBox(P, Q)
    assert res.steps[0].replacement == Imp(P, Q)
    assert res.start == PalBox(P, Q)


def test_diamond_announcement_over_atom():
    res = reduce_formula(PalDia(P, Q))
    assert res.result == And(P, Q)
    assert res.steps[0].rule == "pal-dia-atom"


def test_steps_chain_to_the_result():
    phi = PalBox(P, Box("a", Or(Q, P)))
    res = reduce_formula(phi)
    assert is_static(res.result)
    assert res.steps, "at least one rewrite happened"
    assert res.steps[-1].result == res.result
    for step in res.steps:
        assert not is_static(step.redex)


def test_reduction_preserves_extension_pal(two_worlds):
    model = two_worlds
    phi = parse_formula("[!p | q]([a]p & <b>q)")
    res = reduce_formula(phi, model=model)  # verified step by step internally
    assert is_static(res.result)
    assert extension(model, res.result) == extension(model, phi)


def test_reduction_preserves_extension_del(two_worlds, private_announcement_event):
    model = two_worlds
    registry = {"F": private_announcement_event}
    phi = parse_formula("[F,ep]([b]q -> <a>p)", event_models=registry)
    res = reduce_formula(phi, model=model, registry=registry)
    assert is_static(res.result)
    assert extension(model, res.result, registry) == extension(model, phi, registry)


def test_reduction_in_context(two_fibers, fo_event):
    registry = {"E": fo_event}
    phi = parse_formula("ctx x | [E,e1]P(x)", event_models=registry)
    res = reduce_formula(phi, model=two_fibers, registry=registry)
    assert res.context == ("x",)
    assert is_static(res.result)
    out = FormulaInContext(res.context, res.result)
    assert interp_formula(two_fibers, out, registry) == interp_formula(
        two_fibers, phi, registry
    )


def test_quantifier_reduction_in_context(two_fibers, fo_event):
    registry = {"E": fo_event}
    phi = parse_formula("ctx | [E,e1]forall u. P(u)", event_models=registry)
    res = reduce_formula(phi, model=two_fibers, registry=registry)
    assert is_static(res.result)
    rules = [s.rule for s in res.steps]
    assert "event-forall" in rules


def test_freshening_avoids_capture(two_fibers, fo_event):
    # the precondition of e1 binds u; reducing under a context that already
    # uses u must rename the precondition's binder instead of shadowing
    registry = {"E": fo_event}
    phi = parse_formula("ctx u | [E,e1]P(u)", event_models=registry)
    res = reduce_formula(phi, model=two_fibers, registry=registry)
    assert is_static(res.result)
    out = FormulaInContext(res.context, res.result)
    # the result interprets cleanly (no shadowed binder) and agrees
    assert interp_formula(two_fibers, out, registry) == interp_formula(
        two_fibers, phi, registry
    )


def test_first_order_formula_rejected_on_kripke_model(two_worlds):
    phi = parse_formula("ctx x | [a]P(x)")
    with pytest.raises(NotReducible):
        reduce_formula(phi, model=two_worlds)


def test_missing_event_model_is_an_error():
    phi = DelBox("X", "e", P)
    with pytest.raises(UnresolvedEventModel):
        reduce_formula(phi)


def test_static_formula_reduces_to_itself():
    phi = Box("a", Imp(P, Q))
    res = reduce_formula(phi)
    assert res.result == phi
    assert res.steps == ()


@pytest.mark.parametrize("with_model", [False, True], ids=["bare", "model"])
def test_size_cap_counts_every_node(monkeypatch, two_worlds, with_model):
    # the cap is checked on a running count; hold it to a full recount of
    # every intermediate formula
    phi = parse_formula("[!<a>(p & <b>q)]" * 2 + "<a><b>(p|q)")
    model = two_worlds if with_model else None
    res = reduce_formula(phi, model)
    sizes = [len(list(_nodes(step.result))) for step in res.steps]
    peak = max(sizes)
    assert peak == 155
    monkeypatch.setattr(reduction, "MAX_REDUCED_NODES", peak)
    assert reduce_formula(phi, model).result == res.result
    monkeypatch.setattr(reduction, "MAX_REDUCED_NODES", peak - 1)
    first = sizes.index(peak) + 1
    with pytest.raises(NotReducible, match=f"reached {peak} nodes after {first} steps"):
        reduce_formula(phi, model)


def _nodes(phi):
    yield phi
    for kid in children(phi):
        yield from _nodes(kid)
