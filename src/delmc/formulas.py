"""Formula and term syntax trees.

One node vocabulary serves both layers.  Propositional dynamic formulas use
Atom plus the connectives, modalities and announcement/event operators.
First-order formulas-in-context use Pred applied to terms, quantifiers, the
modalities and the event operators; they never contain Atom or the
announcement forms.  Equality between formulas is structural.

Dynamic event operators carry the *name* of an event model; names are
resolved against a registry at evaluation time, never stored inline.

Structural walks (free variables, substitution, node checks, redex search)
go through one pair of helpers: children(phi) lists a node's subformulas
and rebuild(phi, kids) puts a node back together over new ones.

Every node is a ``Frozen`` value (see ``frozen``) and computes its hash
once, when it is built, from the tuple of its arguments (whose hashes its
children have already computed), so hashing a formula that keys a memo
costs the same at any depth.  That tuple is the node's field tuple, so the
value is the one a frozen dataclass would compute, and hashes and set
orders are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import InvariantViolation, VariableCapture
from .frozen import Frozen


class _Node(Frozen):
    """Base of formula and term nodes: a frozen value whose hash is taken at build.

    ``__init__`` binds the arguments as ``Frozen`` does, keeps the hash of
    the argument tuple, and runs no ``__post_init__``; the repr is the
    shared one.  A node's ``__dict__`` holds that hash, then the fields, and
    nothing else, so equality compares the two dicts: a differing hash ends
    the comparison at its first entry.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        d = self.__dict__
        d["_hash"] = hash(args)
        if args:  # Top and Bot have none, and skip the loop
            for name, value in zip(names, args):
                d[name] = value

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__


class Formula(_Node):
    """Base class for all formula nodes."""

    __slots__ = ()


@dataclass(init=False, repr=False, eq=False)
class Top(Formula):
    """Truth: holds at every world."""


@dataclass(init=False, repr=False, eq=False)
class Bot(Formula):
    """Falsity: holds at no world."""


@dataclass(init=False, repr=False, eq=False)
class Atom(Formula):
    """A propositional atom, read off the model's valuation."""

    name: str


@dataclass(init=False, repr=False, eq=False)
class Not(Formula):
    """Negation."""

    body: Formula


@dataclass(init=False, repr=False, eq=False)
class And(Formula):
    """Conjunction."""

    left: Formula
    right: Formula


@dataclass(init=False, repr=False, eq=False)
class Or(Formula):
    """Disjunction."""

    left: Formula
    right: Formula


@dataclass(init=False, repr=False, eq=False)
class Imp(Formula):
    """Material implication."""

    left: Formula
    right: Formula


@dataclass(init=False, repr=False, eq=False)
class Box(Formula):
    """The agent's box: the body holds at every successor."""

    agent: str
    body: Formula


@dataclass(init=False, repr=False, eq=False)
class Dia(Formula):
    """The agent's diamond: the body holds at some successor."""

    agent: str
    body: Formula


@dataclass(init=False, repr=False, eq=False)
class PalBox(Formula):
    """Announcement box: after truthfully announcing the first formula."""

    announcement: Formula
    body: Formula


@dataclass(init=False, repr=False, eq=False)
class PalDia(Formula):
    """Announcement diamond: the announcement is true, and after it the body."""

    announcement: Formula
    body: Formula


@dataclass(init=False, repr=False, eq=False)
class DelBox(Formula):
    """Event box over a named event model and one of its events."""

    model: str
    event: str
    body: Formula


@dataclass(init=False, repr=False, eq=False)
class DelDia(Formula):
    """Event diamond over a named event model and one of its events."""

    model: str
    event: str
    body: Formula


class Term(_Node):
    """Base class for term nodes."""

    __slots__ = ()


@dataclass(init=False, repr=False, eq=False)
class Var(Term):
    """A variable."""

    name: str


@dataclass(init=False, repr=False, eq=False)
class Fun(Term):
    """A function symbol applied to terms; 0-ary gives constants."""

    name: str
    args: Tuple[Term, ...]

    def __init__(self, name: str, args: Sequence[Term]):
        super().__init__(name, tuple(args))


@dataclass(init=False, repr=False, eq=False)
class Pred(Formula):
    """A relation symbol applied to terms; 0-ary gives sentence letters."""

    name: str
    args: Tuple[Term, ...]

    def __init__(self, name: str, args: Sequence[Term]):
        super().__init__(name, tuple(args))


@dataclass(init=False, repr=False, eq=False)
class Forall(Formula):
    """Universal quantifier: the variable is bound in the body."""

    var: str
    body: Formula


@dataclass(init=False, repr=False, eq=False)
class Exists(Formula):
    """Existential quantifier: the variable is bound in the body."""

    var: str
    body: Formula

PROPOSITIONAL_ONLY = (Atom, PalBox, PalDia)
FIRST_ORDER_ONLY = (Pred, Forall, Exists)
DYNAMIC = (PalBox, PalDia, DelBox, DelDia)

# The subformula fields of each node type, read by every structural walk;
# an unknown node type is an error rather than a silent leaf.
_CHILD_FIELDS = {
    Top: (),
    Bot: (),
    Atom: (),
    Pred: (),
    Not: ("body",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Imp: ("left", "right"),
    Box: ("body",),
    Dia: ("body",),
    Forall: ("body",),
    Exists: ("body",),
    PalBox: ("announcement", "body"),
    PalDia: ("announcement", "body"),
    DelBox: ("body",),
    DelDia: ("body",),
}


def _child_fields(phi: Formula) -> Tuple[str, ...]:
    try:
        return _CHILD_FIELDS[type(phi)]
    except KeyError:
        raise InvariantViolation(f"unknown formula node {type(phi).__name__}") from None


def children(phi: Formula) -> Tuple[Formula, ...]:
    """The immediate subformulas of a node, in field order."""
    return tuple(getattr(phi, f) for f in _child_fields(phi))


def rebuild(phi: Formula, kids: Sequence[Formula]) -> Formula:
    """The same node over new subformulas, given in the order of children()."""
    fields = _child_fields(phi)
    if not fields:
        return phi
    values = dict(zip(phi._fields, phi._values))
    values.update(zip(fields, kids))
    return type(phi)(*values.values())


def is_static(phi: Formula) -> bool:
    """True when no announcement or event operator occurs anywhere."""
    return not isinstance(phi, DYNAMIC) and all(map(is_static, children(phi)))


def first_order_node(phi: Formula) -> Optional[str]:
    """Name of some first-order construct in the formula, if any."""
    if isinstance(phi, FIRST_ORDER_ONLY):
        return type(phi).__name__
    for kid in children(phi):
        found = first_order_node(kid)
        if found:
            return found
    return None


def big_and(parts: Sequence[Formula]) -> Formula:
    """Left-nested conjunction; Top for no parts."""
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def big_or(parts: Sequence[Formula]) -> Formula:
    """Left-nested disjunction; Bot for no parts."""
    if not parts:
        return Bot()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def term_free_vars(t: Term) -> FrozenSet[str]:
    """Every variable of a term (terms bind nothing, so all are free)."""
    if isinstance(t, Var):
        return frozenset([t.name])
    if isinstance(t, Fun):
        return frozenset().union(*map(term_free_vars, t.args))
    raise InvariantViolation(f"unknown term node {type(t).__name__}")


def substitute_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Fun):
        return Fun(t.name, tuple(substitute_term(a, mapping) for a in t.args))
    raise InvariantViolation(f"unknown term node {type(t).__name__}")


def free_vars(phi: Formula) -> FrozenSet[str]:
    if isinstance(phi, Pred):
        return frozenset().union(*map(term_free_vars, phi.args))
    out = frozenset().union(*map(free_vars, children(phi)))
    if isinstance(phi, (Forall, Exists)):
        return out - frozenset([phi.var])
    return out


def substitute(phi: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneous substitution of terms for free variables.

    Capture is an error, not silently repaired: if a binder's variable
    occurs free in a substituted term that would land under it, the
    substitution raises VariableCapture.  Renaming is the caller's job.
    """
    if not mapping:
        return phi
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(substitute_term(t, mapping) for t in phi.args))
    if isinstance(phi, (Forall, Exists)):
        inner = {x: t for x, t in mapping.items() if x != phi.var}
        relevant = free_vars(phi.body) - frozenset([phi.var])
        for x, t in inner.items():
            if x in relevant and phi.var in term_free_vars(t):
                raise VariableCapture(
                    f"substituting {x!r} would capture {phi.var!r} under its binder"
                )
        return rebuild(phi, (substitute(phi.body, inner),))
    return rebuild(phi, [substitute(kid, mapping) for kid in children(phi)])


def _check_context(context: Tuple[str, ...]) -> None:
    if len(set(context)) != len(context):
        raise InvariantViolation("context variables must be distinct")


def _forbid_nodes(phi: Formula, banned, where: str) -> None:
    if isinstance(phi, banned):
        raise InvariantViolation(f"{type(phi).__name__} node not allowed in {where}")
    for kid in children(phi):
        _forbid_nodes(kid, banned, where)


@dataclass(init=False, repr=False, eq=False)
class TermInContext(Frozen):
    """A term whose free variables are drawn from an ordered context."""

    context: Tuple[str, ...]
    term: Term

    def __post_init__(self):
        if not isinstance(self.context, tuple):
            object.__setattr__(self, "context", tuple(self.context))
        _check_context(self.context)
        extra = term_free_vars(self.term) - set(self.context)
        if extra:
            raise InvariantViolation(f"term uses variables outside its context: {sorted(extra)}")


@dataclass(init=False, repr=False, eq=False)
class FormulaInContext(Frozen):
    """A first-order formula whose free variables are drawn from a context.

    The body may use Pred, quantifiers, Boolean connectives, modalities and
    event operators; sentence letters are 0-ary Pred applications, and the
    announcement operators stay in the propositional layer.
    """

    context: Tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not isinstance(self.context, tuple):
            object.__setattr__(self, "context", tuple(self.context))
        _check_context(self.context)
        _forbid_nodes(self.body, PROPOSITIONAL_ONLY, "a formula in context")
        extra = free_vars(self.body) - set(self.context)
        if extra:
            raise InvariantViolation(
                f"formula uses variables outside its context: {sorted(extra)}"
            )


def as_sentence(phi: Formula) -> FormulaInContext:
    """View a closed formula as a formula in the empty context.

    Bare atoms are folded into 0-ary predicate applications so that
    propositional-looking preconditions work against first-order models.
    """
    return FormulaInContext((), _fold_atoms(phi))


def _fold_atoms(psi: Formula) -> Formula:
    if isinstance(psi, Atom):
        return Pred(psi.name, ())
    return rebuild(psi, [_fold_atoms(kid) for kid in children(psi)])
