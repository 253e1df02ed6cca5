"""The parser as it stood before the one-scan rewrite: a test-only specification.

A tokenizer that builds one positioned token per match, a recursive
descent over the token list, then ``FormulaInContext``'s own checks and a
walk for event-model references.  ``tests/test_parser.py`` parses the
same texts with both and compares trees and errors; the printer is not
copied, since both parsers share the package's.
"""

from __future__ import annotations

import re
from typing import List, Mapping, NamedTuple, Optional, Union

from delmc.errors import ParseError
from delmc.formulas import (
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
    children,
)

MAX_NESTING = 100
"""Deepest nesting of a formula: each operand of a prefix operator, group in
parentheses, right side of an implication, later operand of an ``&`` or
``|`` chain and function argument list is one level.  The parser, the
evaluator and the printer all recurse that deep."""

_KEYWORDS = {word: word.upper() for word in ("true", "false", "forall", "exists", "ctx")}
_SYMBOLS = {
    "->": "ARROW",
    "~": "TILDE",
    "&": "AMP",
    "|": "BAR",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    "<": "LANGLE",
    ">": "RANGLE",
    ",": "COMMA",
    ".": "DOT",
    "!": "BANG",
}

# One token after any blanks: a word (``\w`` is exactly ``str.isalnum`` or
# "_"), a symbol, a line break or any other character, which is an error.
# Blanks up to the end match no group, so trailing blanks are read once.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<word>\w+)|(?P<symbol>->|[~&|()\[\]<>,.!])|(?P<newline>\n)|(?P<other>.)|\Z)",
    re.DOTALL,
)


# Each opening bracket: its closer (token kind and text) and the
# announcement, event and modal nodes it builds.
_BRACKETS = {
    "LBRACK": ("RBRACK", "']'", PalBox, DelBox, Box),
    "LANGLE": ("RANGLE", "'>'", PalDia, DelDia, Dia),
}


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    line, line_start = 1, 0  # a column counts characters from its line's start
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group is None:  # blanks up to the end
            break
        tok = m[group]
        col = m.start(group) - line_start + 1
        if group == "word" and (tok[0].isalpha() or tok[0] == "_"):
            out.append(_Token(_KEYWORDS.get(tok, "IDENT"), tok, line, col))
        elif group == "symbol":
            out.append(_Token(_SYMBOLS[tok], tok, line, col))
        elif group == "newline":
            line += 1
            line_start = m.end()
        else:  # a stray character, or a word that starts with neither a letter nor "_"
            ch = tok[0]
            raise ParseError(f"unexpected character {ch!r}", line, col, expected=None, found=ch)
    out.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return out


class _Parser:
    """Recursive descent over the token list; one instance per parse."""

    def __init__(self, tokens: List[_Token], in_context: bool):
        self.tokens = tokens
        self.pos = 0
        self.in_context = in_context
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]  # advance never moves past EOF

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        found = tok.text if tok.kind != "EOF" else "end of input"
        return ParseError(
            f"expected {expected}, found {found!r}",
            tok.line,
            tok.column,
            expected=expected,
            found=found,
        )

    def nested(self, parse):
        """Run one parse step a level deeper, refusing to pass MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", tok.line, tok.column)
        out = parse()
        self.depth -= 1
        return out

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(expected)
        return self.advance()

    def formula(self) -> Formula:
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "ARROW":
            self.advance()
            return Imp(left, self.nested(self.implication))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        start = self.depth
        while self.peek().kind == "BAR":
            self.advance()
            left = Or(left, self.nested(self.conjunction))
            self.depth += 1  # the chain's tree grows one level per operand
        self.depth = start
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        start = self.depth
        while self.peek().kind == "AMP":
            self.advance()
            left = And(left, self.nested(self.unary))
            self.depth += 1
        self.depth = start
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "TILDE":
            self.advance()
            return Not(self.nested(self.unary))
        if tok.kind in _BRACKETS:
            return self.bracket()
        if tok.kind in ("FORALL", "EXISTS"):
            return self.quantifier()
        return self.atom()

    def bracket(self) -> Formula:
        """A box or diamond, read from ``[`` or ``<``: announcement, event or modal."""
        closer, closer_text, pal, event, modal = _BRACKETS[self.advance().kind]
        if self.peek().kind == "BANG":
            if self.in_context:
                raise self.fail("an agent or event pair (announcements are propositional)")
            self.advance()
            sigma = self.nested(self.formula)
            self.expect(closer, closer_text)
            return pal(sigma, self.nested(self.unary))
        name = self.expect("IDENT", "an agent, or an event-model name").text
        if self.peek().kind == "COMMA":
            self.advance()
            ev = self.expect("IDENT", "an event name").text
            self.expect(closer, closer_text)
            return event(name, ev, self.nested(self.unary))
        self.expect(closer, closer_text)
        return modal(name, self.nested(self.unary))

    def quantifier(self) -> Formula:
        tok = self.advance()
        if not self.in_context:
            raise ParseError(
                "quantifiers need a context header such as 'ctx x |'",
                tok.line,
                tok.column,
                expected="a propositional formula",
                found=tok.text,
            )
        var = self.expect("IDENT", "a variable name").text
        self.expect("DOT", "'.'")
        body = self.nested(self.formula)
        return Forall(var, body) if tok.kind == "FORALL" else Exists(var, body)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "TRUE":
            self.advance()
            return Top()
        if tok.kind == "FALSE":
            self.advance()
            return Bot()
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.nested(self.formula)
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            name = self.advance().text
            if self.peek().kind == "LPAREN":
                if not self.in_context:
                    raise ParseError(
                        "predicates need a context header such as 'ctx x |'",
                        tok.line,
                        tok.column,
                        expected="a propositional atom",
                        found=name,
                    )
                self.advance()
                args = self.term_list()
                self.expect("RPAREN", "')'")
                return Pred(name, tuple(args))
            if self.in_context:
                return Pred(name, ())
            return Atom(name)
        raise self.fail("a formula")

    def term_list(self) -> List[Term]:
        if self.peek().kind == "RPAREN":
            return []
        terms = [self.term()]
        while self.peek().kind == "COMMA":
            self.advance()
            terms.append(self.term())
        return terms

    def term(self) -> Term:
        name = self.expect("IDENT", "a term").text
        if self.peek().kind == "LPAREN":
            self.advance()
            args = self.nested(self.term_list)
            self.expect("RPAREN", "')'")
            return Fun(name, tuple(args))
        return Var(name)


def parse_formula(
    text: str,
    event_models: Optional[Mapping[str, object]] = None,
) -> Union[Formula, FormulaInContext]:
    """Parse a formula, returning it with its context when one is declared.

    With ``event_models`` given, every event operator's model name must be
    one of its keys; without it, names are left to be resolved at
    evaluation time.
    """
    tokens = _tokenize(text)
    if tokens[0].kind == "CTX":
        parser = _Parser(tokens, in_context=True)
        parser.advance()
        names: List[str] = []
        if parser.peek().kind == "IDENT":
            names.append(parser.advance().text)
            while parser.peek().kind == "COMMA":
                parser.advance()
                names.append(parser.expect("IDENT", "a variable name").text)
        parser.expect("BAR", "'|' closing the context header")
        body = parser.formula()
        tok = parser.peek()
        if tok.kind != "EOF":
            raise parser.fail("end of input")
        result: Union[Formula, FormulaInContext] = FormulaInContext(tuple(names), body)
        _check_event_refs(body, event_models, tokens)
        return result
    parser = _Parser(tokens, in_context=False)
    body = parser.formula()
    if parser.peek().kind != "EOF":
        raise parser.fail("end of input")
    _check_event_refs(body, event_models, tokens)
    return body


def _check_event_refs(phi: Formula, event_models, tokens: List[_Token]) -> None:
    if event_models is None:
        return
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, (DelBox, DelDia)) and node.model not in event_models:
            tok = next(
                (t for t in tokens if t.kind == "IDENT" and t.text == node.model),
                tokens[-1],
            )
            raise ParseError(
                f"unknown event model {node.model!r}",
                tok.line,
                tok.column,
                expected="one of " + ", ".join(sorted(event_models)),
                found=node.model,
            )
        stack.extend(children(node))


def parse_term(text: str) -> Term:
    """Parse a single term: a variable, or a function symbol application."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, in_context=True)
    t = parser.term()
    if parser.peek().kind != "EOF":
        raise parser.fail("end of input")
    return t
