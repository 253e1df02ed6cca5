"""Concrete syntax for formulas: one scan, one pass, and a printer.

Two entry modes share one grammar.  Plain mode reads a propositional
modal formula whose leaves are atoms; context mode is selected by a
leading ``ctx x, y |`` header and reads a first-order formula whose
leaves are predicates applied to terms, returning it packaged with its
context; ``parse_sentence`` reads plain text in the empty context, for
a first-order model.  Implication binds loosest and associates right,
then disjunction, then conjunction; negation, the modalities and the
quantifiers bind tightest, with a quantifier's scope extending as far
right as possible.

    ~p & q -> [a]r          ((~p) & q) -> [a]r
    [!p][a]q                announcement of p, then [a]q
    [E,e]p                  event box for event e of model E
    ctx x | forall y. R(x, y) -> P(f(x))

Text becomes a checked formula in one scan and one pass.  The scan is one
compiled-regex ``findall`` that yields the token texts; a token's kind is
its text (a word that is no keyword is an identifier), and the distinct
words are checked for one that starts with neither a letter nor "_", or a
character that no token may hold.  Nothing records positions: a line and
column are computed from the text only when an error is raised.  The pass
is a recursive descent that builds the nodes and, while it builds them,
notes the first repeated context variable, the first variable that is
neither in the context nor bound, and the first event operator whose model
the registry lacks, each by its token; these are raised, in that order,
once the text has parsed.  So a formula in context is built trusted, and
nothing walks the tree after the parse.

The printer emits the minimal parenthesisation that reads back to the
same tree, so parsing a printed formula is the identity.
"""

from __future__ import annotations

import re
from typing import List, Mapping, Optional, Tuple, Union

from .errors import ParseError
from .formulas import (
    And,
    Atom,
    Bot,
    Box,
    DelBox,
    DelDia,
    Dia,
    Exists,
    Forall,
    Formula,
    FormulaInContext,
    Fun,
    Imp,
    Not,
    Or,
    PalBox,
    PalDia,
    Pred,
    Term,
    Top,
    Var,
)
from .rel import _unchecked

MAX_NESTING = 100
"""Deepest nesting of a formula: each operand of a prefix operator, group in
parentheses, right side of an implication, later operand of an ``&`` or
``|`` chain and function argument list is one level.  The parser, the
evaluator and the printer all recurse that deep."""

# A token is a word (``\w`` is exactly ``str.isalnum`` or "_"), "->" or any
# other character but a blank or a line break; a word must start with a
# letter or "_", and no other character may stand alone but the symbols.
_SCAN = re.compile(r"\w+|->|[^ \t\r\n]")
# Every token text that is not an identifier; "" stands for the end of input.
_RESERVED = frozenset(["->", *"~&|()[]<>,.!", "true", "false", "forall", "exists", "ctx", ""])

# Each opening bracket: its closer, the closer as an error names it, and the
# announcement, event and modal nodes it builds.
_BRACKETS = {
    "[": ("]", "']'", PalBox, DelBox, Box),
    "<": (">", "'>'", PalDia, DelDia, Dia),
}


def _token_position(text: str, i: int) -> Tuple[int, int]:
    """Line and column of token ``i`` of the scan, found by scanning again
    (the end of input is the token past the last).  A column counts
    characters from its line's start, and only a line feed breaks a line."""
    starts = [m.start() for m in _SCAN.finditer(text)]
    pos = starts[i] if i < len(starts) else len(text)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _scan(text: str) -> List[str]:
    """The token texts, then "" for the end of input."""
    tokens = _SCAN.findall(text)
    stray = [t for t in set(tokens).difference(_RESERVED) if not (t[0].isalpha() or t[0] == "_")]
    if stray:  # a character no token may hold, or the first of a word that starts wrong
        i = min(map(tokens.index, stray))
        ch = tokens[i][0]
        raise ParseError(f"unexpected character {ch!r}", *_token_position(text, i), found=ch)
    tokens.append("")
    return tokens


class _Pass:
    """One pass over one text's tokens: the recursive descent, each method
    given the nesting depth of what it reads, with the notes for the
    checks after it.  ``context`` is None in plain mode."""

    __slots__ = ("text", "toks", "i", "context", "bound", "models", "repeated_at", "free_at",
                 "model_at")

    def __init__(self, text: str, toks: List[str], context, models):
        self.text, self.toks, self.i = text, toks, 0
        self.context, self.bound, self.models = context, [], models
        self.repeated_at = self.free_at = self.model_at = None  # token indexes, noted once

    def error(self, message: str, i: int, expected=None, found=None) -> ParseError:
        return ParseError(message, *_token_position(self.text, i), expected, found)

    def fail(self, expected: str) -> ParseError:
        found = self.toks[self.i] or "end of input"
        return self.error(f"expected {expected}, found {found!r}", self.i, expected, found)

    def deeper(self, d: int) -> int:
        """Depth ``d``, refused past MAX_NESTING at the token that opens it."""
        if d > MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING} levels", self.i)
        return d

    def name(self, expected: str) -> str:
        t = self.toks[self.i]
        if t in _RESERVED:
            raise self.fail(expected)
        self.i += 1
        return t

    def expect(self, t: str, expected: str) -> None:
        if self.toks[self.i] != t:
            raise self.fail(expected)
        self.i += 1

    def header(self) -> None:
        """``ctx x, y |``, read into ``context`` from the token after ``ctx``."""
        toks, names = self.toks, self.context
        self.i = 1
        if toks[1] not in _RESERVED:
            names.append(self.name("a variable name"))
            while toks[self.i] == ",":
                self.i += 1
                if toks[self.i] in names and self.repeated_at is None:
                    self.repeated_at = self.i
                names.append(self.name("a variable name"))
        self.expect("|", "'|' closing the context header")

    def formula(self, d: int) -> Formula:
        """An implication: ``|`` chains of ``&`` chains, joined by ``->``;
        a chain's k-th later operand sits k levels down."""
        left = self.conjunction(d)
        toks, k = self.toks, d
        while toks[self.i] == "|":
            self.i += 1
            k += 1
            left = Or(left, self.conjunction(self.deeper(k)))
        if toks[self.i] == "->":
            self.i += 1
            return Imp(left, self.formula(self.deeper(d + 1)))
        return left

    def conjunction(self, d: int) -> Formula:
        left = self.unary(d)
        toks, k = self.toks, d
        while toks[self.i] == "&":
            self.i += 1
            k += 1
            left = And(left, self.unary(self.deeper(k)))
        return left

    def unary(self, d: int) -> Formula:
        toks, i = self.toks, self.i
        t = toks[i]
        if t not in _RESERVED:  # an atom, or a predicate
            if toks[i + 1] != "(":
                self.i = i + 1
                return Atom(t) if self.context is None else Pred(t, ())
            if self.context is None:
                raise self.error(
                    "predicates need a context header such as 'ctx x |'",
                    i, "a propositional atom", t,
                )
            self.i = i + 2
            args = self.terms(d)
            self.expect(")", "')'")
            return Pred(t, args)
        if t == "(":
            self.i = i + 1
            inner = self.formula(self.deeper(d + 1))
            self.expect(")", "')'")
            return inner
        if t == "~":
            self.i = i + 1
            return Not(self.unary(self.deeper(d + 1)))
        if t in _BRACKETS:
            return self.bracket(d)
        if t == "true" or t == "false":
            self.i = i + 1
            return Top() if t == "true" else Bot()
        if t == "forall" or t == "exists":
            return self.quantifier(d)
        raise self.fail("a formula")

    def bracket(self, d: int) -> Formula:
        """A box or diamond, read from ``[`` or ``<``: announcement, event or modal."""
        toks = self.toks
        closer, closer_text, pal, event, modal = _BRACKETS[toks[self.i]]
        self.i += 1
        if toks[self.i] == "!":
            if self.context is not None:
                raise self.fail("an agent or event pair (announcements are propositional)")
            self.i += 1
            sigma = self.formula(self.deeper(d + 1))
            self.expect(closer, closer_text)
            return pal(sigma, self.unary(self.deeper(d + 1)))
        at = self.i
        name = self.name("an agent, or an event-model name")
        if toks[self.i] == ",":
            self.i += 1
            ev = self.name("an event name")
            self.expect(closer, closer_text)
            models = self.models
            if models is not None and self.model_at is None and name not in models:
                self.model_at = at
            return event(name, ev, self.unary(self.deeper(d + 1)))
        self.expect(closer, closer_text)
        return modal(name, self.unary(self.deeper(d + 1)))

    def quantifier(self, d: int) -> Formula:
        word = self.toks[self.i]
        if self.context is None:
            raise self.error(
                "quantifiers need a context header such as 'ctx x |'",
                self.i, "a propositional formula", word,
            )
        self.i += 1
        var = self.name("a variable name")
        self.expect(".", "'.'")
        self.bound.append(var)
        body = self.formula(self.deeper(d + 1))
        self.bound.pop()
        return Forall(var, body) if word == "forall" else Exists(var, body)

    def terms(self, d: int) -> Tuple[Term, ...]:
        """A term list up to its ``)``, each function's arguments one level down."""
        toks = self.toks
        if toks[self.i] == ")":
            return ()
        out = [self.term(d)]
        while toks[self.i] == ",":
            self.i += 1
            out.append(self.term(d))
        return tuple(out)

    def term(self, d: int) -> Term:
        at = self.i
        name = self.name("a term")
        if self.toks[self.i] == "(":
            self.i += 1
            args = self.terms(self.deeper(d + 1))
            self.expect(")", "')'")
            return Fun(name, args)
        if (self.free_at is None and self.context is not None
                and name not in self.context and name not in self.bound):
            self.free_at = at
        return Var(name)

    def end(self) -> None:
        """The end of input, then the notes' errors in the order they are checked."""
        if self.toks[self.i]:
            raise self.fail("end of input")
        at = self.repeated_at
        if at is not None:
            raise self.error(
                f"context variable {self.toks[at]!r} is repeated",
                at, "distinct context variables", self.toks[at],
            )
        at = self.free_at
        if at is not None:
            raise self.error(
                f"variable {self.toks[at]!r} is neither in the context nor bound",
                at, "a variable in the context header or bound by a quantifier", self.toks[at],
            )
        at, models = self.model_at, self.models
        if at is not None:
            raise self.error(
                f"unknown event model {self.toks[at]!r}",
                at, "one of " + ", ".join(sorted(models)), self.toks[at],
            )


def parse_formula(
    text: str,
    event_models: Optional[Mapping[str, object]] = None,
) -> Union[Formula, FormulaInContext]:
    """Parse a formula, returning it with its context when one is declared.

    With ``event_models`` given, every event operator's model name must be
    one of its keys; without it, names are left to be resolved at
    evaluation time.  A context's variables must be distinct, and every
    variable must be in the context or bound.
    """
    toks = _scan(text)
    if toks[0] != "ctx":
        p = _Pass(text, toks, None, event_models)
        body = p.formula(0)
        p.end()
        return body
    p = _Pass(text, toks, [], event_models)
    p.header()
    body = p.formula(0)
    p.end()
    return _unchecked(FormulaInContext, context=tuple(p.context), body=body)


def parse_sentence(
    text: str,
    event_models: Optional[Mapping[str, object]] = None,
) -> FormulaInContext:
    """Parse a formula for a first-order model: a ``ctx`` header as in
    ``parse_formula``, and plain text as a sentence, in the empty context.

    Plain text must parse as plain syntax, so quantifiers and predicate
    applications still need a header.  It is then read again in the empty
    context, where an atom is a 0-ary predicate (as ``as_sentence`` folds
    it) and an announcement is refused at its ``!``, as under a header.
    """
    phi = parse_formula(text, event_models)
    if isinstance(phi, FormulaInContext):
        return phi
    p = _Pass(text, _scan(text), [], event_models)
    body = p.formula(0)
    p.end()
    return _unchecked(FormulaInContext, context=(), body=body)


def parse_term(text: str) -> Term:
    """Parse a single term: a variable, or a function symbol application."""
    p = _Pass(text, _scan(text), None, None)
    t = p.term(0)
    p.end()
    return t


_ATOM_LEVEL = 5
_UNARY_LEVEL = 4


def _print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.name}({', '.join(_print_term(a) for a in t.args)})"


def _render(phi: Formula, level: int, left_of_binary: bool, full: bool) -> Tuple[str, bool]:
    """Return the printed form plus whether it ends in an open quantifier scope."""

    def wrap(text: str, open_end: bool, own_level: int) -> Tuple[str, bool]:
        if full and own_level < _ATOM_LEVEL:
            return f"({text})", False
        if own_level < level or (open_end and left_of_binary):
            return f"({text})", False
        return text, open_end

    if isinstance(phi, Top):
        return "true", False
    if isinstance(phi, Bot):
        return "false", False
    if isinstance(phi, Atom):
        return phi.name, False
    if isinstance(phi, Pred):
        if not phi.args:
            return phi.name, False
        args = ", ".join(_print_term(t) for t in phi.args)
        return f"{phi.name}({args})", False
    if isinstance(phi, (Not, Box, Dia, PalBox, PalDia, DelBox, DelDia)):
        if isinstance(phi, Not):
            head = "~"
        else:
            if isinstance(phi, (Box, Dia)):
                inside = phi.agent
            elif isinstance(phi, (PalBox, PalDia)):
                inside = "!" + _render(phi.announcement, 0, False, full)[0]
            else:
                inside = f"{phi.model},{phi.event}"
            head = f"<{inside}>" if isinstance(phi, (Dia, PalDia, DelDia)) else f"[{inside}]"
        body, open_end = _render(phi.body, _UNARY_LEVEL, False, full)
        return wrap(head + body, open_end, _UNARY_LEVEL)
    if isinstance(phi, (Forall, Exists)):
        word = "forall" if isinstance(phi, Forall) else "exists"
        body, _ = _render(phi.body, 0, False, full)
        return wrap(f"{word} {phi.var}. {body}", True, _UNARY_LEVEL)
    if isinstance(phi, And):
        lhs, _ = _render(phi.left, 3, True, full)
        rhs, open_end = _render(phi.right, 4, left_of_binary, full)
        return wrap(f"{lhs} & {rhs}", open_end, 3)
    if isinstance(phi, Or):
        lhs, _ = _render(phi.left, 2, True, full)
        rhs, open_end = _render(phi.right, 3, left_of_binary, full)
        return wrap(f"{lhs} | {rhs}", open_end, 2)
    if isinstance(phi, Imp):
        lhs, _ = _render(phi.left, 2, True, full)
        rhs, open_end = _render(phi.right, 1, left_of_binary, full)
        return wrap(f"{lhs} -> {rhs}", open_end, 1)
    raise TypeError(f"cannot print {type(phi).__name__}")


def print_formula(
    phi: Union[Formula, FormulaInContext], full_parens: bool = False
) -> str:
    """Render a formula so that parsing the output returns the same tree.

    ``full_parens`` parenthesises every compound subformula, which is
    noisier but leaves nothing to precedence.
    """
    if isinstance(phi, FormulaInContext):
        body = print_formula(phi.body, full_parens)
        head = f"ctx {', '.join(phi.context)}" if phi.context else "ctx"
        return f"{head} | {body}"
    text, _ = _render(phi, 0, False, full_parens)
    return text
