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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InvariantViolation, NotReducible, UnresolvedEventModel
from .formulas import (
    DYNAMIC,
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
from .models import EventModel, KripkeModel, _Evaluator
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
        if isinstance(redex, PalBox):
            return self.pal_box(redex.announcement, redex.body)
        if isinstance(redex, PalDia):
            return self.pal_dia(redex.announcement, redex.body)
        if isinstance(redex, DelBox):
            return self.del_box(redex.model, redex.event, redex.body)
        if isinstance(redex, DelDia):
            return self.del_dia(redex.model, redex.event, redex.body)
        raise NotReducible(f"no reduction rule for {type(redex).__name__}")

    def pal_box(self, sigma: Formula, body: Formula) -> Tuple[str, Formula]:
        if isinstance(body, Top):
            return "pal-top", Top()
        if isinstance(body, Bot):
            return "pal-bot", Not(sigma)
        if isinstance(body, Atom):
            return "pal-atom", Imp(sigma, body)
        if isinstance(body, Not):
            return "pal-not", Imp(sigma, Not(PalBox(sigma, body.body)))
        if isinstance(body, And):
            return "pal-and", And(PalBox(sigma, body.left), PalBox(sigma, body.right))
        if isinstance(body, Or):
            return "pal-or", Imp(
                sigma, Or(PalBox(sigma, body.left), PalBox(sigma, body.right))
            )
        if isinstance(body, Imp):
            return "pal-imp", Imp(
                sigma, Imp(PalBox(sigma, body.left), PalBox(sigma, body.right))
            )
        if isinstance(body, Box):
            return "pal-box", Imp(sigma, Box(body.agent, PalBox(sigma, body.body)))
        if isinstance(body, Dia):
            return "pal-dia", Imp(sigma, Dia(body.agent, PalDia(sigma, body.body)))
        raise NotReducible(
            f"announcement over a {type(body).__name__} body has no reduction rule"
        )

    def pal_dia(self, sigma: Formula, body: Formula) -> Tuple[str, Formula]:
        if isinstance(body, Top):
            return "pal-dia-top", sigma
        if isinstance(body, Bot):
            return "pal-dia-bot", Bot()
        if isinstance(body, Atom):
            return "pal-dia-atom", And(sigma, body)
        if isinstance(body, Not):
            return "pal-dia-not", And(sigma, Not(PalDia(sigma, body.body)))
        if isinstance(body, And):
            return "pal-dia-and", And(PalDia(sigma, body.left), PalDia(sigma, body.right))
        if isinstance(body, Or):
            return "pal-dia-or", Or(PalDia(sigma, body.left), PalDia(sigma, body.right))
        if isinstance(body, Imp):
            return "pal-dia-imp", And(
                sigma, Imp(PalDia(sigma, body.left), PalDia(sigma, body.right))
            )
        if isinstance(body, Box):
            return "pal-dia-box", And(sigma, Box(body.agent, PalBox(sigma, body.body)))
        if isinstance(body, Dia):
            return "pal-dia-dia", And(sigma, Dia(body.agent, PalDia(sigma, body.body)))
        raise NotReducible(
            f"announcement over a {type(body).__name__} body has no reduction rule"
        )

    def del_box(self, ref: str, event: str, body: Formula) -> Tuple[str, Formula]:
        pre = self.precondition(ref, event)
        if isinstance(body, Top):
            return "event-top", Top()
        if isinstance(body, Bot):
            return "event-bot", Not(pre)
        if isinstance(body, Atom):
            return "event-atom", Imp(pre, body)
        if isinstance(body, Pred):
            return "event-pred", Imp(pre, body)
        if isinstance(body, Not):
            return "event-not", Imp(pre, Not(DelBox(ref, event, body.body)))
        if isinstance(body, And):
            return "event-and", And(
                DelBox(ref, event, body.left), DelBox(ref, event, body.right)
            )
        if isinstance(body, Or):
            return "event-or", Imp(
                pre, Or(DelBox(ref, event, body.left), DelBox(ref, event, body.right))
            )
        if isinstance(body, Imp):
            return "event-imp", Imp(
                pre, Imp(DelBox(ref, event, body.left), DelBox(ref, event, body.right))
            )
        if isinstance(body, Box):
            parts = [
                Box(body.agent, DelBox(ref, e2, body.body))
                for e2 in self.successors(ref, event, body.agent)
            ]
            return "event-box", Imp(pre, big_and(parts))
        if isinstance(body, Dia):
            parts = [
                Dia(body.agent, DelDia(ref, e2, body.body))
                for e2 in self.successors(ref, event, body.agent)
            ]
            return "event-dia", Imp(pre, big_or(parts))
        if isinstance(body, Forall):
            return "event-forall", Forall(body.var, DelBox(ref, event, body.body))
        if isinstance(body, Exists):
            return "event-exists", Imp(
                pre, Exists(body.var, DelDia(ref, event, body.body))
            )
        raise NotReducible(
            f"event operator over a {type(body).__name__} body has no reduction rule"
        )

    def del_dia(self, ref: str, event: str, body: Formula) -> Tuple[str, Formula]:
        pre = self.precondition(ref, event)
        if isinstance(body, Top):
            return "event-dia-top", pre
        if isinstance(body, Bot):
            return "event-dia-bot", Bot()
        if isinstance(body, Atom):
            return "event-dia-atom", And(pre, body)
        if isinstance(body, Pred):
            return "event-dia-pred", And(pre, body)
        if isinstance(body, Not):
            return "event-dia-not", And(pre, Not(DelDia(ref, event, body.body)))
        if isinstance(body, And):
            return "event-dia-and", And(
                DelDia(ref, event, body.left), DelDia(ref, event, body.right)
            )
        if isinstance(body, Or):
            return "event-dia-or", Or(
                DelDia(ref, event, body.left), DelDia(ref, event, body.right)
            )
        if isinstance(body, Imp):
            return "event-dia-imp", And(
                pre, Imp(DelDia(ref, event, body.left), DelDia(ref, event, body.right))
            )
        if isinstance(body, Box):
            parts = [
                Box(body.agent, DelBox(ref, e2, body.body))
                for e2 in self.successors(ref, event, body.agent)
            ]
            return "event-dia-box", And(pre, big_and(parts))
        if isinstance(body, Dia):
            parts = [
                Dia(body.agent, DelDia(ref, e2, body.body))
                for e2 in self.successors(ref, event, body.agent)
            ]
            return "event-dia-dia", And(pre, big_or(parts))
        if isinstance(body, Forall):
            return "event-dia-forall", And(
                pre, Forall(body.var, DelBox(ref, event, body.body))
            )
        if isinstance(body, Exists):
            return "event-dia-exists", Exists(body.var, DelDia(ref, event, body.body))
        raise NotReducible(
            f"event operator over a {type(body).__name__} body has no reduction rule"
        )


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
    verify: Optional[bool] = None,
) -> ReductionResult:
    """Rewrite every dynamic operator away, optionally checking each step.

    With a model given (and ``verify`` not disabled), the whole formula's
    extension is computed after every rewrite and compared with the
    previous one; a mismatch raises NotReducible naming the failing rule.
    The check evaluates event operators on the updates kept on the model,
    so a verified reduce builds no update that an earlier call on the same
    model object already built.  A rewrite that takes the formula past
    MAX_REDUCED_NODES raises NotReducible with the size reached.
    """
    if verify is None:
        verify = model is not None
    if verify and model is None:
        raise NotReducible("verification requires a model")
    context: Optional[Tuple[str, ...]] = None
    body: Formula
    if isinstance(phi, FormulaInContext):
        context = phi.context
        body = phi.body
        if verify and not isinstance(model, SheafModel):
            raise NotReducible("a formula in a context can only be checked on a sheaf model")
    else:
        body = phi
        if verify and isinstance(model, KripkeModel):
            residual = first_order_node(body)
            if residual:
                raise NotReducible(
                    f"cannot reduce against a relational model: {residual} is first-order"
                )
        if verify and isinstance(model, SheafModel):
            body_in_ctx = as_sentence(body).body
            context = ()
            body = body_in_ctx

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
