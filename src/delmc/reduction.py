"""Stepwise elimination of dynamic operators via reduction axioms.

Each step rewrites one announcement or event operator whose body starts
with a static connective, using the matching reduction axiom; operators
with dynamic bodies are reduced inside-out.  The result is a static
formula with the same extension on every model.  When a model is
supplied, every single step is checked against it: the formulas before
and after the rewrite are evaluated and compared, so a trace doubles as
a machine-checked equivalence proof for that model.

Propositional formulas reduce against plain relational models; formulas
in a context reduce against sheaf models, with the quantifier axioms
commuting event operators past binders.

All the axioms come from one pattern (van Ditmarsch, van der Hoek and
Kooi, *Dynamic Epistemic Logic*, 2007, ch. 4 and 6), written once in
``_Rewriter.step``:

- An announcement ``[!s]`` is the update by a one-event model whose
  event has precondition s and sees only itself, so announcements and
  events share every rule; announcements just have no first-order ones.
- The guard is ``pre -> ...`` for a box and ``pre & ...`` for a diamond.
  The operator moves into the body's parts with its own polarity, except
  below a modality or quantifier, which sets it: ``[a]`` takes boxes at
  the event's a-successors joined by ``&``, ``<a>`` diamonds joined by
  ``|``; ``forall`` takes a box and ``exists`` a diamond.
- The self-dual cases differ between box and diamond.  A box over true
  and a diamond over false are unchanged; the other constant leaves the
  guard alone (``~pre``, ``pre``).  An update by one event is a partial
  function, so a binary connective needs no guard, except a diamond
  over ``->``; nor does a quantifier of the operator's own polarity
  (forall under a box, exists under a diamond).

The table is read twice: by ``reduce_formula``, and by the law checks
``verify_pal_reductions``, ``verify_del_reductions`` and
``verify_quantifier_reduction``, which ask it for the replacement of
each redex they cover and compare the two extensions on a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InvariantViolation, NotReducible, UnknownEvent, UnresolvedEventModel
from .formulas import (
    DYNAMIC,
    FIRST_ORDER_ONLY,
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
    Imp,
    Not,
    Or,
    PalBox,
    PalDia,
    Pred,
    Term,
    Top,
    Var,
    as_sentence,
    big_and,
    big_or,
    children,
    first_order_node,
    is_static,
    rebuild,
    substitute_term,
    term_free_vars,
)
from .models import EventModel, KripkeModel, LawCheck, LawReport, _Evaluator
from .sheaves import SheafModel

# is_static and first_order_node live beside the traversal helper in
# formulas; they stay importable from here under the same names.


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    redex: Formula
    replacement: Formula
    result: Formula


@dataclass(frozen=True)
class ReductionResult:
    start: Formula
    result: Formula
    steps: Tuple[ReductionStep, ...]
    context: Optional[Tuple[str, ...]] = None

    @property
    def step_count(self) -> int:
        return len(self.steps)


def _locate(phi: Formula, path: Tuple[int, ...]) -> Optional[Tuple[Tuple[int, ...], Formula]]:
    """Path of child indices to the next redex: leftmost outermost, but
    inside-out for dynamic operators stacked directly on dynamic bodies."""
    kids = children(phi)
    if isinstance(phi, DYNAMIC):
        if isinstance(phi.body, DYNAMIC):
            return _locate(phi.body, path + (len(kids) - 1,))
        return path, phi
    for i, kid in enumerate(kids):
        found = _locate(kid, path + (i,))
        if found:
            return found
    return None


def _replace(phi: Formula, path: Tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    kids = list(children(phi))
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return rebuild(phi, kids)


def _collect_var_names(phi: Formula, out: set) -> None:
    """Every variable name occurring in the formula, bound or free."""
    if isinstance(phi, Pred):
        for t in phi.args:
            out |= term_free_vars(t)
    if isinstance(phi, (Forall, Exists)):
        out.add(phi.var)
    for kid in children(phi):
        _collect_var_names(kid, out)


def _rename_bound(phi: Formula, mapping: Mapping[str, Term], fresh) -> Formula:
    """Rename every binder via fresh(), carrying the renames into its scope."""
    if isinstance(phi, (Forall, Exists)):
        new_v = fresh(phi.var)
        inner = {**mapping, phi.var: Var(new_v)}
        return type(phi)(new_v, _rename_bound(phi.body, inner, fresh))
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(substitute_term(t, mapping) for t in phi.args))
    return rebuild(phi, [_rename_bound(kid, mapping, fresh) for kid in children(phi)])


# The name of every axiom, by (announcement?, diamond?, body kind); a
# body kind with no key has no axiom.  Announcements stay propositional.
_RULES = {
    (pal, diamond, kind): (
        f"{'pal' if pal else 'event'}{'-dia' if diamond else ''}-{kind.__name__.lower()}"
    )
    for pal in (True, False)
    for diamond in (False, True)
    for kind in (Top, Bot, Atom, Not, And, Or, Imp, Box, Dia) + (() if pal else FIRST_ORDER_ONLY)
}


class _Rewriter:
    def __init__(
        self,
        registry: Mapping[str, EventModel],
        in_context: bool,
        used_names: Sequence[str] = (),
    ):
        self.registry = registry
        self.in_context = in_context
        self._used = set(used_names)
        self._fresh_counter = 0

    def event_model(self, ref: str) -> EventModel:
        if ref not in self.registry:
            raise UnresolvedEventModel(
                f"event model {ref!r} is not in the registry; reduction needs its preconditions"
            )
        return self.registry[ref]

    def _freshen(self, phi: Formula) -> Formula:
        """Rename the binders of a spliced sentence to globally new names.

        A precondition is closed, so only its bound variables matter; each
        copy gets names never used before, which keeps later steps from
        pushing an operator under a binder that shadows an enclosing one.
        """
        names: set = set()
        _collect_var_names(phi, names)
        if not names:
            return phi
        avoid = self._used | names

        def fresh(old: str) -> str:
            while True:
                self._fresh_counter += 1
                cand = f"{old}_{self._fresh_counter}"
                if cand not in avoid:
                    self._used.add(cand)
                    avoid.add(cand)
                    return cand

        return _rename_bound(phi, {}, fresh)

    def precondition(self, ref: str, event: str) -> Formula:
        pre = self.event_model(ref).pre(event)
        if self.in_context:
            return self._freshen(as_sentence(pre).body)
        return pre

    def successors(self, ref: str, event: str, agent: str) -> List[str]:
        frame = self.event_model(ref).frame
        succ = frame.rel(agent).successors[event]
        return [e for e in frame.carrier if e in succ]

    def step(self, redex: Formula) -> Tuple[str, Formula]:
        """The axiom for one redex: its rule name and its replacement.

        ``op(diamond, event, body)`` rebuilds the redex's operator with the
        given polarity, event (unused by an announcement) and body.
        """
        pal = type(redex) in (PalBox, PalDia)
        if not pal and type(redex) not in (DelBox, DelDia):
            raise NotReducible(f"no reduction rule for {type(redex).__name__}")
        diamond = type(redex) in (PalDia, DelDia)
        body = redex.body
        kind = type(body)
        if pal:
            pre, event = redex.announcement, None

            def op(dia: bool, _: None, sub: Formula) -> Formula:
                return PalDia(pre, sub) if dia else PalBox(pre, sub)

        else:  # looked up, and freshened, even where the rule drops it
            ref, event = redex.model, redex.event
            pre = self.precondition(ref, event)

            def op(dia: bool, e: str, sub: Formula) -> Formula:
                return DelDia(ref, e, sub) if dia else DelBox(ref, e, sub)

        rule = _RULES.get((pal, diamond, kind))
        if rule is None:
            raise NotReducible(
                f"{'announcement' if pal else 'event operator'} over a "
                f"{kind.__name__} body has no reduction rule"
            )
        guard = And if diamond else Imp
        if kind is Top or kind is Bot:
            if diamond == (kind is Bot):
                return rule, body
            return rule, pre if diamond else Not(pre)
        if kind is Atom or kind is Pred:
            return rule, guard(pre, body)
        if kind is Not:
            return rule, guard(pre, Not(op(diamond, event, body.body)))
        if kind is Box or kind is Dia:
            events = (event,) if pal else self.successors(ref, event, body.agent)
            parts = [kind(body.agent, op(kind is Dia, e, body.body)) for e in events]
            return rule, guard(pre, (big_or if kind is Dia else big_and)(parts))
        if kind is Forall or kind is Exists:
            out = kind(body.var, op(kind is Exists, event, body.body))
            return rule, out if diamond == (kind is Exists) else guard(pre, out)
        out = kind(op(diamond, event, body.left), op(diamond, event, body.right))
        return rule, guard(pre, out) if diamond and kind is Imp else out


_STEP_CAP = 200_000

# The largest formula, in nodes, that a reduction may reach.  Announcement
# and event axioms copy the precondition into the body, so nested operators
# can grow the formula exponentially (Lutz, AAMAS 2006); past this size the
# rewrite stops with NotReducible instead of running for minutes.
MAX_REDUCED_NODES = 1_000


def _node_count(phi: Formula) -> int:
    count, stack = 0, [phi]
    while stack:
        count += 1
        stack.extend(children(stack.pop()))
    return count


def reduce_formula(
    phi: Union[Formula, FormulaInContext],
    model: Optional[Union[KripkeModel, SheafModel]] = None,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> ReductionResult:
    """Rewrite every dynamic operator away, checking each step on a model.

    With a model given, the whole formula's extension is computed after
    every rewrite and compared with the previous one; a mismatch raises
    InvariantViolation naming the failing rule.
    The check evaluates event operators on the updates kept on the model,
    so a verified reduce builds no update that an earlier call on the same
    model object already built.  A rewrite that takes the formula past
    MAX_REDUCED_NODES raises NotReducible with the size reached.
    """
    verify = model is not None
    context: Optional[Tuple[str, ...]] = None
    body: Formula
    if isinstance(phi, FormulaInContext):
        context = phi.context
        body = phi.body
        if verify and not isinstance(model, SheafModel):
            raise NotReducible("a formula in a context can only be checked on a sheaf model")
    else:
        body = phi
        if isinstance(model, KripkeModel):
            residual = first_order_node(body)
            if residual:
                raise NotReducible(
                    f"cannot reduce against a relational model: {residual} is first-order"
                )
        if isinstance(model, SheafModel):
            context = ()
            body = as_sentence(body).body

    used: set = set(context or ())
    _collect_var_names(body, used)
    rewriter = _Rewriter(registry or {}, in_context=context is not None, used_names=used)
    evaluator = _Evaluator(registry)
    points = context or ()
    reference = evaluator.mask(model, points, body) if verify else None
    steps: List[ReductionStep] = []
    current = body
    size = _node_count(body)
    while True:
        found = _locate(current, ())
        if found is None:
            break
        if len(steps) >= _STEP_CAP:
            raise NotReducible("reduction did not terminate within the step budget")
        path, redex = found
        rule, replacement = rewriter.step(redex)
        size += _node_count(replacement) - _node_count(redex)
        if size > MAX_REDUCED_NODES:
            raise NotReducible(
                f"reduction reached {size} nodes after {len(steps) + 1} steps, "
                f"above the cap of {MAX_REDUCED_NODES}"
            )
        current = _replace(current, path, replacement)
        steps.append(ReductionStep(rule, redex, replacement, current))
        if verify and evaluator.mask(model, points, current) != reference:
            raise InvariantViolation(
                f"rule {rule!r} changed the extension; this is a library bug"
            )
    return ReductionResult(body, current, tuple(steps), context)


def _law_report(
    model: Union[KripkeModel, SheafModel],
    registry: Mapping[str, EventModel],
    points: Tuple[str, ...],
    redexes: Sequence[Tuple[str, Formula]],
) -> LawReport:
    """Each redex against the replacement its axiom gives, as extensions.

    A check is named by its rule and its label; it fails, with the points
    where the two sides differ, when their extensions on the model (in the
    context ``points``) disagree.  On a sheaf model the table is read in
    context mode, as ``reduce_formula`` reads it.
    """
    in_context = isinstance(model, SheafModel)
    used: set = set(points)
    if in_context:
        for _, redex in redexes:
            _collect_var_names(redex, used)
    rewriter = _Rewriter(registry, in_context, used)
    evaluator = _Evaluator(registry)
    carrier = model.context_frame(len(points)).carrier
    checks: List[LawCheck] = []
    for label, redex in redexes:
        left = evaluator.mask(model, points, redex)
        rule, replacement = rewriter.step(redex)
        diff = left ^ evaluator.mask(model, points, replacement)
        witness = f"sides differ at {sorted(carrier.names(diff))}" if diff else None
        checks.append(LawCheck(rule + label, not diff, witness))
    return LawReport(tuple(checks))


def _static_redexes(
    model: KripkeModel, op: Callable[[Formula], Formula], phi: Formula, psi: Formula
) -> List[Tuple[str, Formula]]:
    """The update operator ``op`` over each atom, ``phi & psi``, ``~phi``
    and ``[a]phi`` per agent, labelled by the atom or agent."""
    return [
        *((f"[{p}]", op(Atom(p))) for p in model.atoms),
        ("", op(And(phi, psi))),
        ("", op(Not(phi))),
        *((f"[{a}]", op(Box(a, phi))) for a in model.frame.agents),
    ]


def verify_pal_reductions(
    model: KripkeModel,
    sigma: Formula,
    phi: Formula,
    psi: Formula,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> LawReport:
    """Announcement reduction laws, checked as extension equalities."""
    redexes = _static_redexes(model, lambda body: PalBox(sigma, body), phi, psi)
    return _law_report(model, registry or {}, (), redexes)


def verify_del_reductions(
    model: KripkeModel,
    ev_model: EventModel,
    event: str,
    phi: Formula,
    psi: Formula,
    registry: Optional[Mapping[str, EventModel]] = None,
    ref: str = "_update",
) -> LawReport:
    """Event reduction laws for one event, checked as extension equalities."""
    if event not in ev_model.events:
        raise UnknownEvent(f"event {event!r} not in event model")
    redexes = _static_redexes(model, lambda body: DelBox(ref, event, body), phi, psi)
    return _law_report(model, {**(registry or {}), ref: ev_model}, (), redexes)


def verify_quantifier_reduction(
    model: SheafModel,
    ev: EventModel,
    event: str,
    phi: FormulaInContext,
    registry: Optional[Mapping[str, EventModel]] = None,
    ref: str = "_update",
) -> LawReport:
    """Event box commutes with the universal quantifier (and dia with exists).

    The formula's context must be nonempty; its last variable is the one
    quantified.
    """
    if not phi.context:
        raise InvariantViolation("verify_quantifier_reduction: context must be nonempty")
    *outer, y = phi.context
    redexes = [
        ("", DelBox(ref, event, Forall(y, phi.body))),
        ("", DelDia(ref, event, Exists(y, phi.body))),
    ]
    return _law_report(model, {**(registry or {}), ref: ev}, tuple(outer), redexes)
