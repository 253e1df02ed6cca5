"""Rewriting dynamic operators away, with per-step verification."""

import pytest

from delmc import (
    And,
    Atom,
    Bot,
    Box,
    DelBox,
    DelDia,
    Dia,
    Exists,
    Forall,
    FormulaInContext,
    Imp,
    Not,
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
    load_model,
    parse_formula,
    print_formula,
    reduce_formula,
    verify_del_reductions,
    verify_pal_reductions,
    verify_quantifier_reduction,
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
    assert peak == 149
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


# ---------------------------------------------------------------------------
# The reduction axioms, one redex at a time: each of the four dynamic
# operators over each kind of body, with the rule name and the replacement
# (printed) or the NotReducible text.  Event e of G has the precondition q
# and the a-successors e, f; it has no b-successor, so the agent-b bodies
# reduce to the empty conjunction and disjunction.

_G = load_model({
    "format_version": 1,
    "kind": "event-model",
    "name": "G",
    "events": ["e", "f"],
    "agents": ["a", "b"],
    "relations": {"a": [["e", "e"], ["e", "f"], ["f", "f"]], "b": [["f", "f"]]},
    "preconditions": {"e": "q", "f": "~p"},
})
_PX = Pred("P", (Var("x"),))
_S = Atom("s")

AXIOM_BODIES = {
    "top": Top(),
    "bot": Bot(),
    "atom": P,
    "pred": _PX,
    "not": Not(P),
    "and": And(P, Q),
    "or": Or(P, Q),
    "imp": Imp(P, Q),
    "box": Box("a", P),
    "box-none": Box("b", P),
    "dia": Dia("a", P),
    "dia-none": Dia("b", P),
    "forall": Forall("x", _PX),
    "exists": Exists("x", _PX),
    "palbox": PalBox(P, Q),
    "paldia": PalDia(P, Q),
    "delbox": DelBox("G", "e", Q),
    "deldia": DelDia("G", "e", Q),
}

AXIOM_OPERATORS = {
    "pal-box": lambda body: PalBox(_S, body),
    "pal-dia": lambda body: PalDia(_S, body),
    "event-box": lambda body: DelBox("G", "e", body),
    "event-dia": lambda body: DelDia("G", "e", body),
}

AXIOM_TABLE = {
    ("pal-box", "top"): ("pal-top", "true"),
    ("pal-box", "bot"): ("pal-bot", "~s"),
    ("pal-box", "atom"): ("pal-atom", "s -> p"),
    ("pal-box", "pred"): ("NotReducible", "announcement over a Pred body has no reduction rule"),
    ("pal-box", "not"): ("pal-not", "s -> ~[!s]p"),
    ("pal-box", "and"): ("pal-and", "[!s]p & [!s]q"),
    ("pal-box", "or"): ("pal-or", "[!s]p | [!s]q"),
    ("pal-box", "imp"): ("pal-imp", "[!s]p -> [!s]q"),
    ("pal-box", "box"): ("pal-box", "s -> [a][!s]p"),
    ("pal-box", "box-none"): ("pal-box", "s -> [b][!s]p"),
    ("pal-box", "dia"): ("pal-dia", "s -> <a><!s>p"),
    ("pal-box", "dia-none"): ("pal-dia", "s -> <b><!s>p"),
    ("pal-box", "forall"): ("NotReducible", "announcement over a Forall body has no reduction rule"),
    ("pal-box", "exists"): ("NotReducible", "announcement over a Exists body has no reduction rule"),
    ("pal-box", "palbox"): ("NotReducible", "announcement over a PalBox body has no reduction rule"),
    ("pal-box", "paldia"): ("NotReducible", "announcement over a PalDia body has no reduction rule"),
    ("pal-box", "delbox"): ("NotReducible", "announcement over a DelBox body has no reduction rule"),
    ("pal-box", "deldia"): ("NotReducible", "announcement over a DelDia body has no reduction rule"),
    ("pal-dia", "top"): ("pal-dia-top", "s"),
    ("pal-dia", "bot"): ("pal-dia-bot", "false"),
    ("pal-dia", "atom"): ("pal-dia-atom", "s & p"),
    ("pal-dia", "pred"): ("NotReducible", "announcement over a Pred body has no reduction rule"),
    ("pal-dia", "not"): ("pal-dia-not", "s & ~<!s>p"),
    ("pal-dia", "and"): ("pal-dia-and", "<!s>p & <!s>q"),
    ("pal-dia", "or"): ("pal-dia-or", "<!s>p | <!s>q"),
    ("pal-dia", "imp"): ("pal-dia-imp", "s & (<!s>p -> <!s>q)"),
    ("pal-dia", "box"): ("pal-dia-box", "s & [a][!s]p"),
    ("pal-dia", "box-none"): ("pal-dia-box", "s & [b][!s]p"),
    ("pal-dia", "dia"): ("pal-dia-dia", "s & <a><!s>p"),
    ("pal-dia", "dia-none"): ("pal-dia-dia", "s & <b><!s>p"),
    ("pal-dia", "forall"): ("NotReducible", "announcement over a Forall body has no reduction rule"),
    ("pal-dia", "exists"): ("NotReducible", "announcement over a Exists body has no reduction rule"),
    ("pal-dia", "palbox"): ("NotReducible", "announcement over a PalBox body has no reduction rule"),
    ("pal-dia", "paldia"): ("NotReducible", "announcement over a PalDia body has no reduction rule"),
    ("pal-dia", "delbox"): ("NotReducible", "announcement over a DelBox body has no reduction rule"),
    ("pal-dia", "deldia"): ("NotReducible", "announcement over a DelDia body has no reduction rule"),
    ("event-box", "top"): ("event-top", "true"),
    ("event-box", "bot"): ("event-bot", "~q"),
    ("event-box", "atom"): ("event-atom", "q -> p"),
    ("event-box", "pred"): ("event-pred", "q -> P(x)"),
    ("event-box", "not"): ("event-not", "q -> ~[G,e]p"),
    ("event-box", "and"): ("event-and", "[G,e]p & [G,e]q"),
    ("event-box", "or"): ("event-or", "[G,e]p | [G,e]q"),
    ("event-box", "imp"): ("event-imp", "[G,e]p -> [G,e]q"),
    ("event-box", "box"): ("event-box", "q -> [a][G,e]p & [a][G,f]p"),
    ("event-box", "box-none"): ("event-box", "q -> true"),
    ("event-box", "dia"): ("event-dia", "q -> <a><G,e>p | <a><G,f>p"),
    ("event-box", "dia-none"): ("event-dia", "q -> false"),
    ("event-box", "forall"): ("event-forall", "forall x. [G,e]P(x)"),
    ("event-box", "exists"): ("event-exists", "q -> exists x. <G,e>P(x)"),
    ("event-box", "palbox"): ("NotReducible", "event operator over a PalBox body has no reduction rule"),
    ("event-box", "paldia"): ("NotReducible", "event operator over a PalDia body has no reduction rule"),
    ("event-box", "delbox"): ("NotReducible", "event operator over a DelBox body has no reduction rule"),
    ("event-box", "deldia"): ("NotReducible", "event operator over a DelDia body has no reduction rule"),
    ("event-dia", "top"): ("event-dia-top", "q"),
    ("event-dia", "bot"): ("event-dia-bot", "false"),
    ("event-dia", "atom"): ("event-dia-atom", "q & p"),
    ("event-dia", "pred"): ("event-dia-pred", "q & P(x)"),
    ("event-dia", "not"): ("event-dia-not", "q & ~<G,e>p"),
    ("event-dia", "and"): ("event-dia-and", "<G,e>p & <G,e>q"),
    ("event-dia", "or"): ("event-dia-or", "<G,e>p | <G,e>q"),
    ("event-dia", "imp"): ("event-dia-imp", "q & (<G,e>p -> <G,e>q)"),
    ("event-dia", "box"): ("event-dia-box", "q & ([a][G,e]p & [a][G,f]p)"),
    ("event-dia", "box-none"): ("event-dia-box", "q & true"),
    ("event-dia", "dia"): ("event-dia-dia", "q & (<a><G,e>p | <a><G,f>p)"),
    ("event-dia", "dia-none"): ("event-dia-dia", "q & false"),
    ("event-dia", "forall"): ("event-dia-forall", "q & forall x. [G,e]P(x)"),
    ("event-dia", "exists"): ("event-dia-exists", "exists x. <G,e>P(x)"),
    ("event-dia", "palbox"): ("NotReducible", "event operator over a PalBox body has no reduction rule"),
    ("event-dia", "paldia"): ("NotReducible", "event operator over a PalDia body has no reduction rule"),
    ("event-dia", "delbox"): ("NotReducible", "event operator over a DelBox body has no reduction rule"),
    ("event-dia", "deldia"): ("NotReducible", "event operator over a DelDia body has no reduction rule"),
}


@pytest.mark.parametrize("op", sorted(AXIOM_OPERATORS))
@pytest.mark.parametrize("kind", sorted(AXIOM_BODIES))
def test_reduction_axiom_table(op, kind):
    redex = AXIOM_OPERATORS[op](AXIOM_BODIES[kind])
    rewriter = reduction._Rewriter({"G": _G}, in_context=False)
    rule, expected = AXIOM_TABLE[op, kind]
    if rule == "NotReducible":
        with pytest.raises(NotReducible) as exc:
            rewriter.step(redex)
        assert str(exc.value) == expected
        return
    got_rule, replacement = rewriter.step(redex)
    assert (got_rule, print_formula(replacement)) == (rule, expected)


def test_dropped_precondition_still_advances_fresh_names(fo_event):
    # e1's precondition binds u.  The first three steps drop it (event-and,
    # event-top, event-forall), yet each one freshens a copy, so the copy
    # the fourth step splices in is the fourth name drawn.
    registry = {"E": fo_event}
    phi = parse_formula("ctx | [E,e1](true & forall u. P(u))", event_models=registry)
    res = reduce_formula(phi, registry=registry)
    assert [s.rule for s in res.steps] == ["event-and", "event-top", "event-forall", "event-pred"]
    assert print_formula(res.steps[-1].replacement) == "(exists u_4. P(u_4)) -> P(u)"
    assert print_formula(res.result) == "true & forall u. (exists u_4. P(u_4)) -> P(u)"


# The row planted wrong (by body kind), and the checks that must then fail.
PLANTED_ROWS = {
    "atom": (Atom, {"pal": ["pal-atom[p]", "pal-atom[q]"], "del": ["event-atom[p]", "event-atom[q]"]}),
    "and": (And, {"pal": ["pal-and"], "del": ["event-and"]}),
    "not": (Not, {"pal": ["pal-not"], "del": ["event-not"]}),
    "box": (Box, {"pal": ["pal-box[a]", "pal-box[b]"], "del": ["event-box[a]", "event-box[b]"]}),
    "forall": (Forall, {"fo": ["event-forall"]}),
    "exists": (Exists, {"fo": ["event-dia-exists"]}),
}


@pytest.mark.parametrize("planted", sorted(PLANTED_ROWS))
def test_law_checks_read_the_rewriter_table(
    monkeypatch, planted, two_worlds, private_announcement_event, two_fibers, fo_event
):
    # a planted row negates its replacement, so its two sides differ at
    # every world of the fixtures, and no other check may notice
    kind, failing = PLANTED_ROWS[planted]
    step = reduction._Rewriter.step

    def planted_step(self, redex):
        rule, replacement = step(self, redex)
        return rule, Not(replacement) if isinstance(redex.body, kind) else replacement

    monkeypatch.setattr(reduction._Rewriter, "step", planted_step)
    phi = Box("a", Q)
    reports = {
        "pal": verify_pal_reductions(two_worlds, P, phi, Q),
        "del": verify_del_reductions(two_worlds, private_announcement_event, "ep", phi, Q),
        "fo": verify_quantifier_reduction(
            two_fibers, fo_event, "e1", FormulaInContext(("x",), Pred("P", (Var("x"),)))
        ),
    }
    for law, rep in reports.items():
        failed = rep.failures()
        assert [c.name for c in failed] == failing.get(law, [])
        assert all(c.witness == "sides differ at ['w1', 'w2']" for c in failed)
