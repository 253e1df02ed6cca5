"""Concrete syntax: parsing, printing, precedence, error positions."""

import random
import re
import sys

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
from delmc.parser import MAX_NESTING, _tokenize
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


# ---------------------------------------------------------------------------
# The tokenizer against a character-by-character reference: the walk the
# compiled-regex tokenizer replaced, kept here as the specification.

_REFERENCE_KEYWORDS = ("true", "false", "forall", "exists", "ctx")
_REFERENCE_SYMBOLS = {
    "~": "TILDE", "&": "AMP", "|": "BAR", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "<": "LANGLE", ">": "RANGLE",
    ",": "COMMA", ".": "DOT", "!": "BANG",
}


def reference_tokenize(text):
    """(kind, text, line, column) per token, or ParseError at the first stray."""
    out = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word.upper() if word in _REFERENCE_KEYWORDS else "IDENT"
            out.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            out.append(("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _REFERENCE_SYMBOLS:
            out.append((_REFERENCE_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col, expected=None, found=ch)
    out.append(("EOF", "", line, col))
    return out


def tokens_or_error(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column, exc.expected, exc.found)


HOSTILE = [
    "", " ", "\n", "p\u00b2", "\u00b2p", "p\u00a0& q", "p\r\n& q", "\r\n\r\n  p",
    "p  \n  ", "1p", "p1", "__", "_1", "x y", "\u00bd", "\u216b", "\u01c5x", "\u00e9 & \u00f1",
    "\u0301p", "\uff41", "\u0663x", "x\u0663", "\U0001d4b3 & y", "\u65e5\u672c & \u8a9e",
    "->", "-", "- >", "p-->q", "p->->q", "<-", "p\x00", "p\x0bq", "p\x0cq", "p\u2028q",
    "p\u3000q", "\ud800", "[!p]<a>q", "ctx x | forall y. R(x, y) -> P(f(x))",
    "p" + " " * 5000, " " * 5000 + "@", "p -> \n\n\n  ~q\r", "\t\t\tp\n\t&\n\n\u00b2",
]


@pytest.mark.parametrize("text", HOSTILE, ids=range(len(HOSTILE)))
def test_tokenizer_matches_reference_on_hostile_text(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(reference_tokenize, text)


def test_tokenizer_error_positions():
    # a word must start with a letter or "_"; lines break at "\n" only
    with pytest.raises(ParseError) as exc:
        _tokenize("p &\r\n  \u00b2p")
    assert (exc.value.line, exc.value.column, exc.value.found) == (2, 3, "\u00b2")
    with pytest.raises(ParseError) as exc:
        _tokenize("p\u00a0& q")
    assert (exc.value.line, exc.value.column, exc.value.found) == (1, 2, "\u00a0")
    assert [t.text for t in _tokenize("p\u00b2 & q")] == ["p\u00b2", "&", "q", ""]


_ALPHABET = list("pqxyzPR_019 \t\r\n&|~()[]<>,.!-@") + [
    "\u00b2", "\u00a0", "\u00e9", "\u0663", "\u00bd", "\u01c5", "\u0301", "\uff41",
    "\U0001d4b3", "\x0b", "\u2028",
]


@given(st.text(alphabet=_ALPHABET, max_size=40))
def test_tokenizer_matches_reference_on_random_text(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(reference_tokenize, text)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_tokenizer_matches_reference_on_formula_texts(seed):
    # printed formulas, with their blanks turned into runs of blanks and line breaks
    rng = random.Random(seed)
    base = random_frame(rng, random_carrier(rng, 2, prefix="w"), AgentSet(("a",)))
    model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=2))
    refs = [("E", "e1"), ("F", "e2")]
    texts = [
        print_formula(random_formula(rng, ("p", "q"), ("a", "b"), depth=3, event_refs=refs)),
        print_formula(FormulaInContext(("x0",), random_fo_formula(rng, model, ("x0",), depth=2))),
    ]
    for text in texts:
        spaced = "".join(
            rng.choice([" ", "\t", "\r\n", "\n  ", "  "]) if ch == " " else ch for ch in text
        )
        for t in (text, spaced):
            assert tokens_or_error(_tokenize, t) == tokens_or_error(reference_tokenize, t)


def test_word_pattern_is_isalnum_or_underscore():
    # the tokenizer's words are \w runs; the reference reads isalnum or "_"
    word = re.compile(r"\w")
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if bool(word.match(c)) != (c.isalnum() or c == "_")] == []


# (message, line, column, expected, found) for each malformed bracket form:
# a wrong closer, a missing name and an announcement under a context header
BRACKET_ERRORS = {
    "[a>p": ("expected ']', found '>'", 1, 3, "']'", ">"),
    "<a]p": ("expected '>', found ']'", 1, 3, "'>'", "]"),
    "[E,e>p": ("expected ']', found '>'", 1, 5, "']'", ">"),
    "<E,e]p": ("expected '>', found ']'", 1, 5, "'>'", "]"),
    "[!p>q": ("expected ']', found '>'", 1, 4, "']'", ">"),
    "<!p]q": ("expected '>', found ']'", 1, 4, "'>'", "]"),
    "[E,]p": ("expected an event name, found ']'", 1, 4, "an event name", "]"),
    "<E,>p": ("expected an event name, found '>'", 1, 4, "an event name", ">"),
    "[>p": (
        "expected an agent, or an event-model name, found '>'",
        1, 2, "an agent, or an event-model name", ">",
    ),
    "<]p": (
        "expected an agent, or an event-model name, found ']'",
        1, 2, "an agent, or an event-model name", "]",
    ),
    "ctx | [!p]q": (
        "expected an agent or event pair (announcements are propositional), found '!'",
        1, 8, "an agent or event pair (announcements are propositional)", "!",
    ),
    "ctx | <!p>q": (
        "expected an agent or event pair (announcements are propositional), found '!'",
        1, 8, "an agent or event pair (announcements are propositional)", "!",
    ),
}


@pytest.mark.parametrize("text", sorted(BRACKET_ERRORS))
def test_bracket_parse_errors_are_pinned(text):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    err = exc.value
    assert (err.args[0], err.line, err.column, err.expected, err.found) == BRACKET_ERRORS[text]
