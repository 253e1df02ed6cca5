"""Concrete syntax: parsing, printing, precedence, error positions."""

import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given
import hypothesis.strategies as st

import reference_parser as ref
import strategies as strat
from delmc import (
    AgentSet,
    And,
    Atom,
    Box,
    DelBox,
    DelDia,
    DelmcError,
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
    as_sentence,
    parse_formula,
    parse_term,
    print_formula,
)
from delmc.formulas import children
from delmc.parser import MAX_NESTING, _scan, _token_position, parse_sentence
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


# (text, column) of an unknown event model: the model name of the leftmost
# operator whose model the registry lacks, not an earlier identifier that
# shares the name (an atom, an agent, a predicate)
UNKNOWN_MODELS = [("E & [E,e]q", 6), ("[E]p & [E,e]q", 9), ("ctx x | E(x) & [E,e]P(x)", 17)]


@pytest.mark.parametrize("text, column", UNKNOWN_MODELS)
def test_unknown_event_model_is_reported_at_its_operator(text, column):
    with pytest.raises(ParseError) as exc:
        parse_formula(text, event_models={"F": None})
    err = exc.value
    assert (err.args[0], err.line, err.column, err.expected, err.found) == (
        "unknown event model 'E'", 1, column, "one of F", "E")


# header faults are positioned parse errors at the offending token
HEADER_ERRORS = {
    "ctx x | P(y)": (
        "variable 'y' is neither in the context nor bound", 1, 11,
        "a variable in the context header or bound by a quantifier", "y",
    ),
    "ctx x | (forall y. P(y)) &\n Q(y)": (
        "variable 'y' is neither in the context nor bound", 2, 4,
        "a variable in the context header or bound by a quantifier", "y",
    ),
    "ctx x, x | P(x)": ("context variable 'x' is repeated", 1, 8, "distinct context variables", "x"),
    "ctx x, y, y, x | P(z)": (
        "context variable 'y' is repeated", 1, 11, "distinct context variables", "y",
    ),
}


@pytest.mark.parametrize("text", sorted(HEADER_ERRORS))
def test_header_errors_are_positioned_parse_errors(text):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    err = exc.value
    assert (err.args[0], err.line, err.column, err.expected, err.found) == HEADER_ERRORS[text]


def test_shadowing_is_left_to_evaluation():
    phi = parse_formula("ctx x | forall x. P(x)")
    assert phi == FormulaInContext(("x",), Forall("x", Pred("P", (Var("x"),))))


def test_parsed_formula_in_context_is_built_with_no_walk(monkeypatch):
    # the checks happen while the tree is built; nothing walks it afterwards
    import delmc.formulas

    def walked(*args):
        raise AssertionError("the parse walked the tree")

    monkeypatch.setattr(delmc.formulas, "children", walked)
    monkeypatch.setattr(delmc.formulas, "free_vars", walked)
    text = "ctx x | forall u. [E,e1](R2(x, f(u)) -> <a>~P1(x)) | [b]Q"
    phi = parse_formula(text, event_models={"E": None})
    assert isinstance(phi, FormulaInContext) and phi.context == ("x",)
    assert print_formula(phi) == text

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
def test_plain_text_as_a_sentence_is_as_sentence_of_its_parse(seed):
    rng = random.Random(seed)
    refs = [("E", "e1"), ("F", "e2")]
    for _ in range(5):
        phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=3, event_refs=refs, allow_pal=False)
        text = print_formula(phi)
        assert parse_sentence(text) == as_sentence(phi)
        assert parse_sentence(f"ctx | {text}") == parse_formula(f"ctx | {text}")


@pytest.mark.parametrize("text, column", [("[!q]q", 2), ("<a>p & <!q>q", 9), ("ctx | [!q]q", 8)])
def test_announcement_as_a_sentence_is_a_positioned_parse_error(text, column):
    with pytest.raises(ParseError) as exc:
        parse_sentence(text)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert exc.value.expected == "an agent or event pair (announcements are propositional)"
    assert exc.value.found == "!"


@pytest.mark.parametrize("text", ["exists x. p", "P(x)"])
def test_plain_text_as_a_sentence_still_needs_a_header_for_terms(text):
    with pytest.raises(ParseError, match="need a context header"):
        parse_sentence(text)


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
# The scan against a character-by-character reference tokenizer: the walk
# the compiled-regex tokenizer replaced, kept here as the specification.
# The scan keeps token texts only, so it is compared through a positioned
# view: each token's kind read off its text, and its line and column as
# the parser's errors compute them.

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


def positioned_scan(text):
    """(kind, text, line, column) per token of the scan, end of input last."""
    kinds = {**_REFERENCE_SYMBOLS, "->": "ARROW", "": "EOF"}
    kinds.update((word, word.upper()) for word in _REFERENCE_KEYWORDS)
    return [
        (kinds.get(tok, "IDENT"), tok, *_token_position(text, i))
        for i, tok in enumerate(_scan(text))
    ]


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
    assert tokens_or_error(positioned_scan, text) == tokens_or_error(reference_tokenize, text)


def test_tokenizer_error_positions():
    # a word must start with a letter or "_"; lines break at "\n" only
    with pytest.raises(ParseError) as exc:
        _scan("p &\r\n  \u00b2p")
    assert (exc.value.line, exc.value.column, exc.value.found) == (2, 3, "\u00b2")
    with pytest.raises(ParseError) as exc:
        _scan("p\u00a0& q")
    assert (exc.value.line, exc.value.column, exc.value.found) == (1, 2, "\u00a0")
    assert _scan("p\u00b2 & q") == ["p\u00b2", "&", "q", ""]


_ALPHABET = list("pqxyzPR_019 \t\r\n&|~()[]<>,.!-@") + [
    "\u00b2", "\u00a0", "\u00e9", "\u0663", "\u00bd", "\u01c5", "\u0301", "\uff41",
    "\U0001d4b3", "\x0b", "\u2028",
]


@given(st.text(alphabet=_ALPHABET, max_size=40))
def test_tokenizer_matches_reference_on_random_text(text):
    assert tokens_or_error(positioned_scan, text) == tokens_or_error(reference_tokenize, text)


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
            assert tokens_or_error(positioned_scan, t) == tokens_or_error(reference_tokenize, t)


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


# ---------------------------------------------------------------------------
# The parser against the one it replaced (``reference_parser``): the same
# tree for every text, and the same error, field for field, apart from the
# three deliberate changes, which are mapped onto the reference's outcome.


def outcome(parse, text):
    """The tree, or an error's type, message, line, column, expected and found."""
    try:
        return ("tree", parse(text))
    except DelmcError as exc:
        fields = (getattr(exc, f, None) for f in ("line", "column", "expected", "found"))
        return (type(exc).__name__, exc.args[0], *fields)


def _names(phi, scope):
    """(name, role) for each identifier of a tree in text order; the role of
    a variable outside scope is "free", of an event operator's model "model"."""
    if isinstance(phi, Atom):
        yield phi.name, None
    elif isinstance(phi, Pred):
        yield phi.name, None
        for t in phi.args:
            yield from _term_names(t, scope)
    elif isinstance(phi, (Box, Dia)):
        yield phi.agent, None
        yield from _names(phi.body, scope)
    elif isinstance(phi, (DelBox, DelDia)):
        yield phi.model, "model"
        yield phi.event, None
        yield from _names(phi.body, scope)
    elif isinstance(phi, (Forall, Exists)):
        yield phi.var, None
        yield from _names(phi.body, scope | {phi.var})
    else:
        for kid in children(phi):
            yield from _names(kid, scope)


def _term_names(t, scope):
    if isinstance(t, Var):
        yield t.name, None if t.name in scope else "free"
        return
    yield t.name, None
    for a in t.args:
        yield from _term_names(a, scope)


def reference_outcome(text, registry):
    """The reference's outcome, with the deliberate changes mapped in: a
    repeated context variable and a variable outside the context are
    ParseErrors at their token, not InvariantViolations, and an unknown
    event model is reported at the leftmost such operator's model name."""
    got = outcome(lambda t: ref.parse_formula(t, event_models=registry), text)
    if got[0] != "InvariantViolation" and not str(got[1]).startswith("unknown event model"):
        return got
    # the tree the reference checked, with FormulaInContext's checks left out
    with mock.patch.object(ref, "FormulaInContext", lambda context, body: (context, body)):
        parsed = ref.parse_formula(text)
    context, body = parsed if isinstance(parsed, tuple) else ((), parsed)
    names = [(v, "repeated" if v in context[:k] else None) for k, v in enumerate(context)]
    names += _names(body, set(context))
    idents = [t for t in ref._tokenize(text) if t.kind == "IDENT"]
    assert [t.text for t in idents] == [v for v, _ in names]
    for role, message, expected in [
        ("repeated", "context variable {!r} is repeated", "distinct context variables"),
        ("free", "variable {!r} is neither in the context nor bound",
         "a variable in the context header or bound by a quantifier"),
        ("model", "unknown event model {!r}", got[4]),
    ]:
        for tok, (v, r) in zip(idents, names):
            if r == role and (role != "model" or v not in registry):
                return ("ParseError", message.format(v), tok.line, tok.column, expected, v)
    raise AssertionError(f"no deliberate change explains {got}")


_STRAYS = ["@", "-", "1", "²", "é", " ", "\n", "x", ",", "|", ")", "("]


def mutations(rng, text):
    """The text with one token deleted, duplicated or swapped with the next,
    or with one character inserted, each at a random place."""
    spans = [(m.start(m.lastgroup), m.end()) for m in ref._TOKEN.finditer(text) if m.lastgroup]
    s, e = rng.choice(spans)
    at = rng.randrange(len(text) + 1)
    yield text[:s] + text[e:]
    yield text[:e] + " " + text[s:e] + text[e:]
    yield text[:at] + rng.choice(_STRAYS) + text[at:]
    if len(spans) > 1:
        k = rng.randrange(len(spans) - 1)
        (s1, e1), (s2, e2) = spans[k], spans[k + 1]
        yield text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:]


# texts the mutations seldom reach: repeated and missing context variables,
# event models unknown in more than one place, nesting at and past the limit
HANDWRITTEN = [
    "ctx x, x | P(x)",
    "ctx x, y, x | P(y) & Q(z)",
    "ctx x, y, y, x | P(x)",
    "ctx x, y, y, x | P(z) & p &",
    "ctx x | P(y)",
    "ctx x | forall y. P(y) & Q(z)",
    "ctx | (forall y. P(y)) & P(y)",
    "ctx x | exists x. P(x) & R2(x, y)",
    "E & [E,e]q",
    "[E]p & [E,e]q",
    "ctx x | E(x) & [E,e]P(x)",
    "[F,e]p & [G,e]q",
    "ctx x | [G,e]P(y)",
    "[G,e]p &",
    *(NESTED[shape](n) for shape in sorted(NESTED) for n in (MAX_NESTING, MAX_NESTING + 1)),
]


def differential_texts(seed, n):
    """Printed random formulas, propositional and in context, and four
    mutations of each, after the handwritten texts."""
    yield from HANDWRITTEN
    rng = random.Random(seed)
    base = random_frame(rng, random_carrier(rng, 2, prefix="w"), AgentSet(("a", "b")))
    model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=2))
    refs = [("E", "e1"), ("F", "e2")]
    for i in range(n):
        if i % 2:
            context = tuple(f"x{j}" for j in range(i % 3))
            phi = FormulaInContext(context, random_fo_formula(
                rng, model, context, depth=1 + i % 3, event_refs=refs))
        else:
            phi = random_formula(rng, ("p", "q"), ("a", "b"), depth=1 + i % 4, event_refs=refs)
        text = print_formula(phi, full_parens=i % 5 == 0)
        if i % 7 == 0:
            text = text.replace(" ", "\n ", 2)
        yield text
        yield from mutations(rng, text)


REGISTRIES = [None, {"E": None}, {"E": None, "F": None}]


@pytest.mark.parametrize("seed", [0, 1])
def test_parser_matches_reference_parser(seed):
    kinds = set()
    for k, text in enumerate(differential_texts(seed, 600)):
        registry = REGISTRIES[k % len(REGISTRIES)]
        new = outcome(lambda t: parse_formula(t, event_models=registry), text)
        assert new == reference_outcome(text, registry), text
        kinds.add(new[0] if new[0] == "tree" else new[1].split(" ")[0])
    # trees, syntax errors, strays and every deliberate change all occur
    assert {"tree", "expected", "unexpected", "nested", "unknown", "variable", "context"} <= kinds


def test_parse_term_matches_reference_parser():
    rng = random.Random(0)
    terms = ["x", "f(x)", "g(f(x), y)", "c()", "g(c(), f(f(u1)))", "f(" * 101 + "x" + ")" * 101]
    for text in terms + [m for t in terms for _ in range(20) for m in mutations(rng, t)]:
        assert outcome(parse_term, text) == outcome(ref.parse_term, text), text
