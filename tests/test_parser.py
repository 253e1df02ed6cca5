"""Concrete syntax: parsing, printing, precedence, error positions."""

import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

import strategies as strat
from delmc import (
    AgentSet,
    And,
    Atom,
    Box,
    DelBox,
    Dia,
    Exists,
    Forall,
    FormulaInContext,
    Fun,
    Imp,
    Not,
    Or,
    PalBox,
    PalDia,
    ParseError,
    Pred,
    Top,
    Var,
    parse_formula,
    parse_term,
    print_formula,
)
from delmc.parser import MAX_NESTING
from delmc.generators import (
    random_carrier,
    random_fo_event_model,
    random_fo_formula,
    random_formula,
    random_frame,
    random_sheaf,
    random_sheaf_model,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_precedence_imp_loosest_and_right_associative():
    assert parse_formula("p -> q -> r") == Imp(P, Imp(Q, R))
    assert parse_formula("(p -> q) -> r") == Imp(Imp(P, Q), R)
    assert parse_formula("p & q | r -> s") == Imp(Or(And(P, Q), R), Atom("s"))


def test_precedence_unary_binds_tightest():
    assert parse_formula("~[a]p") == Not(Box("a", P))
    assert parse_formula("<a>p & q") == And(Dia("a", P), Q)
    assert parse_formula("<!p>q & r") == And(PalDia(P, Q), R)
    assert parse_formula("[!p | q]r") == PalBox(Or(P, Q), R)
    assert parse_formula("[E,e1]p -> q") == Imp(DelBox("E", "e1", P), Q)


def test_quantifier_scope_extends_right():
    phi = parse_formula("ctx | forall u. P(u) & Q")
    assert phi == FormulaInContext(
        (), Forall("u", And(Pred("P", (Var("u"),)), Pred("Q", ())))
    )
    psi = parse_formula("ctx | (exists u. P(u)) & Q")
    assert psi == FormulaInContext(
        (), And(Exists("u", Pred("P", (Var("u"),))), Pred("Q", ()))
    )


def test_context_header_declares_variables():
    phi = parse_formula("ctx x, y | R2(x, y)")
    assert phi == FormulaInContext(
        ("x", "y"), Pred("R2", (Var("x"), Var("y")))
    )
    empty = parse_formula("ctx | true")
    assert empty == FormulaInContext((), Top())


def test_quantifiers_require_context_header():
    with pytest.raises(ParseError):
        parse_formula("forall u. p")


def test_parse_term():
    assert parse_term("x") == Var("x")
    assert parse_term("f(x)") == Fun("f", (Var("x"),))
    assert parse_term("g(f(x), y)") == Fun("g", (Fun("f", (Var("x"),)), Var("y")))
    assert parse_term("c()") == Fun("c", ())
    with pytest.raises(ParseError):
        parse_term("f(x")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & ")
    assert exc.value.line == 1 and exc.value.column >= 4
    with pytest.raises(ParseError) as exc:
        parse_formula("p @ q")
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        parse_formula("(p & q")
    with pytest.raises(ParseError):
        parse_formula("")


NESTED = {
    "negation": lambda n: "~" * n + "p",
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "box": lambda n: "[a]" * n + "p",
    "conjunction": lambda n: " & ".join(["p"] * (n + 1)),
    "implication": lambda n: " -> ".join(["p"] * (n + 1)),
    "announcement": lambda n: "[!" * n + "p" + "]p" * n,
    "quantifier": lambda n: "ctx | " + " ".join(f"forall x{i}." for i in range(n)) + " P",
    "term": lambda n: "ctx x | P(" + "f(" * n + "x" + ")" * n + ")",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_limit_parses_and_prints(shape):
    phi = parse_formula(NESTED[shape](MAX_NESTING))
    assert parse_formula(print_formula(phi)) == phi


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_limit_is_a_positioned_parse_error(shape):
    text = NESTED[shape](MAX_NESTING + 1)
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert exc.value.line == 1 and 1 < exc.value.column <= len(text)
    assert f"deeper than {MAX_NESTING}" in str(exc.value)


def test_nesting_counts_open_levels_only():
    # a closed group gives its levels back: the second operand sits one
    # level down (the chain), then a group and its negations
    deep = "(" + "~" * (MAX_NESTING - 2) + "p)"
    phi = parse_formula(f"{deep} & {deep}")
    assert isinstance(phi, And)
    with pytest.raises(ParseError):
        parse_formula(f"{deep} & p & {deep}")


def test_event_model_names_validated_when_registry_given(private_announcement_event):
    registry = {"F": private_announcement_event}
    phi = parse_formula("[F,ep]p", event_models=registry)
    assert phi == DelBox("F", "ep", P)
    with pytest.raises(ParseError):
        parse_formula("[G,ep]p", event_models=registry)
    # without a registry, names resolve at evaluation time
    assert parse_formula("[G,ep]p") == DelBox("G", "ep", P)


@given(strat.announcement_formulas())
def test_round_trip_structured(phi):
    assert parse_formula(print_formula(phi)) == phi
    assert parse_formula(print_formula(phi, full_parens=True)) == phi


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_generated_dynamic(seed):
    rng = random.Random(seed)
    refs = [("E", "e1"), ("F", "e2")]
    for _ in range(5):
        phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=3, event_refs=refs)
        printed = print_formula(phi)
        assert parse_formula(printed) == phi
        assert print_formula(parse_formula(printed)) == printed


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_first_order(seed):
    rng = random.Random(seed)
    base = random_frame(rng, random_carrier(rng, 2, prefix="w"), AgentSet(("a",)))
    model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=2))
    ev = random_fo_event_model(rng, model, 2)
    refs = [("E", e) for e in ev.events]
    for n_ctx in (0, 1, 2):
        context = tuple(f"x{i}" for i in range(n_ctx))
        body = random_fo_formula(rng, model, context, depth=2, event_refs=refs)
        fic = FormulaInContext(context, body)
        printed = print_formula(fic)
        assert printed.startswith("ctx")
        assert parse_formula(printed) == fic


def test_printer_emits_minimal_parens():
    assert print_formula(Imp(P, Imp(Q, R))) == "p -> q -> r"
    assert print_formula(Imp(Imp(P, Q), R)) == "(p -> q) -> r"
    assert print_formula(And(Or(P, Q), R)) == "(p | q) & r"
    assert print_formula(Not(Box("a", P))) == "~[a]p"
    assert print_formula(Box("a", Not(P))) == "[a]~p"
