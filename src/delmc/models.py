"""Kripke models, event models, announcement and product update, and the
one evaluator that serves both layers.

Extensions are computed algebraically: a box is the universal image along
the dagger of the agent's relation, announcement operators are the
universal/direct images along the submodel inclusion, and event operators
are images along the dagger of the update's transition relation.  The
evaluator reads each image off the relation's cached rows with
``powerset.forall_image`` / ``exists_image``, building no dagger and no
image map; the ``duality`` law suite holds those helpers to ``apply`` of
``forall_map`` / ``exists_map``.  Dynamic operators name their event model;
names resolve through a registry passed alongside the formula.

The evaluator here also interprets first-order formulas in context on
sheaf models (see ``sheaves``): a formula in an n-variable context denotes
a subset of the n-th fibered power, and a Kripke model is the case of the
empty context.  A subformula is computed over the power of its own free
variables and weakened to a larger context by pullback along the
coordinate projection.  Each model supplies the layer-specific part (the
frame of a context, leaves, the coordinate projections that both weakening
and quantifiers read, its update and that update's transitions); the
evaluator holds the rest once.

Updates and announcements are kept on the model they are built on, by
extents: an update under its event model and its preconditions' extents,
an announcement under its extent.  So every query, reduction and update
on one model object shares one build per key, however a precondition is
written and whichever registry resolved it.  A build that raises leaves
no entry, and every call returns the same update for as long as its
model object lives.  An update holds frames, maps and (first-order) the
source sheaf, never its model, so a model is freed by reference counting
alone.

Event preconditions may themselves be dynamic (they are evaluated on the
original model); cyclic references between event models are detected and
rejected with CyclicPrecondition rather than looping.

The law checks here re-prove the update's structure (``check_update_routes``,
``no_learning_check``); the reduction-law checks read the axiom table and
live beside it in ``reduction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import (
    CapExceeded,
    CyclicPrecondition,
    InvariantViolation,
    ShadowedVariable,
    UnknownAtom,
    UnknownEvent,
    UnknownSymbol,
    UnresolvedEventModel,
)
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
    Imp,
    Not,
    Or,
    PalBox,
    PalDia,
    Pred,
    Top,
    children,
    term_free_vars,
)
from .frames import FrameMap, KripkeFrame, is_bounded, lift_pairs, product, subframe
from .frozen import Frozen
from .powerset import (
    JOIN,
    MEET,
    PowersetMap,
    Subset,
    _apply_mask,
    _subset,
    compose_maps,
    exists_image,
    exists_map,
    forall_image,
    forall_map,
    preimage_map,
)
from .rel import FiniteSet, Rel, _rel, compose, dagger, pair_label, preimage


@dataclass(init=False, repr=False, eq=False)
class KripkeModel(Frozen):
    """A frame plus a valuation for finitely many atoms."""

    frame: KripkeFrame
    valuation: Tuple[Tuple[str, Subset], ...]

    def __post_init__(self):
        names = [n for n, _ in self.valuation]
        if names != sorted(names):
            raise InvariantViolation("valuation entries must be sorted by atom name")
        if len(set(names)) != len(names):
            raise InvariantViolation("duplicate atom in valuation")
        for n, s in self.valuation:
            if s.carrier != self.frame.carrier:
                raise InvariantViolation(f"valuation of {n!r} lives on the wrong carrier")

    @staticmethod
    def make(frame: KripkeFrame, val: Mapping[str, Subset]) -> "KripkeModel":
        return KripkeModel(frame, tuple((n, val[n]) for n in sorted(val)))

    @cached_property
    def val_map(self) -> Dict[str, Subset]:
        return dict(self.valuation)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # computed once: the model keys the evaluator's memo at every node
        return hash((self.frame, self.valuation))

    @cached_property
    def _updates(self) -> Dict[object, object]:
        """Updates and announcements built here, keyed by extents; the evaluator fills it."""
        return {}

    @property
    def atoms(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.valuation)

    def val(self, atom: str) -> Subset:
        try:
            return self.val_map[atom]
        except KeyError:
            raise UnknownAtom(f"atom {atom!r} not in valuation") from None

    # The evaluator's per-layer interface (see _Evaluator).

    def context_frame(self, n: int) -> KripkeFrame:
        if n:
            raise UnknownSymbol(
                "quantifiers cannot be evaluated on a propositional model"
            )
        return self.frame

    def leaf(self, context: Tuple[str, ...], phi: Formula) -> Subset:
        if isinstance(phi, Atom):
            return self.val(phi.name)
        raise UnknownSymbol(
            f"{type(phi).__name__} node cannot be evaluated on a propositional model"
        )

    def transition(self, upd: "UpdateResult", n: int, e: str) -> Rel:
        return upd.transition(e)

    @staticmethod
    def sentence(pre: Formula, e: str) -> Formula:
        return pre

    def build_update(self, ev: "EventModel", extents: Tuple[int, ...]) -> "UpdateResult":
        """Product update, given each event's precondition extent as a mask."""
        masks = dict(zip(ev.events, extents))
        frame, (p_x, p_e), transitions = updated_frame(self.frame, ev.frame, masks)
        # an updated point satisfies an atom when its old world does
        code = p_x.fn.code
        val = {n: _subset(frame.carrier, preimage(code, s.mask)) for n, s in self.valuation}
        return UpdateResult(
            events=ev,
            updated=KripkeModel.make(frame, val),
            p_x=p_x,
            p_e=p_e,
            pre_extents=tuple((e, _subset(self.frame.carrier, m)) for e, m in masks.items()),
            transitions=tuple((e, transitions[e]) for e in ev.events),
        )


@dataclass(init=False, repr=False, eq=False)
class EventModel(Frozen):
    """A frame over events plus one precondition formula per event."""

    frame: KripkeFrame
    preconditions: Tuple[Tuple[str, Formula], ...]

    def __post_init__(self):
        keys = tuple(k for k, _ in self.preconditions)
        if keys != self.frame.carrier.elements:
            raise InvariantViolation("preconditions must list the events in carrier order")

    @staticmethod
    def make(frame: KripkeFrame, pre: Mapping[str, Formula]) -> "EventModel":
        missing = [e for e in frame.carrier if e not in pre]
        if missing:
            raise InvariantViolation(f"no precondition for event {missing[0]!r}")
        return EventModel(frame, tuple((e, pre[e]) for e in frame.carrier))

    @cached_property
    def pre_map(self) -> Dict[str, Formula]:
        return dict(self.preconditions)

    @property
    def events(self) -> Tuple[str, ...]:
        return self.frame.carrier.elements

    def pre(self, event: str) -> Formula:
        try:
            return self.pre_map[event]
        except KeyError:
            raise UnknownEvent(f"event {event!r} not in event model") from None


@dataclass(init=False, repr=False, eq=False)
class UpdateResult(Frozen):
    """Everything the product update produces, maps included.

    The result carries the updated model, its two projections, and for
    each event the precondition extent and the transition relation from
    old worlds to their updated copies.  It keeps no reference to the
    model it updates: the old frame is ``p_x.dst``.  ``check_update_routes``
    compares each transition with its composites through the extent and
    through the product of the two frames.
    """

    events: EventModel
    updated: KripkeModel
    p_x: FrameMap
    p_e: FrameMap
    pre_extents: Tuple[Tuple[str, Subset], ...]
    transitions: Tuple[Tuple[str, Rel], ...]

    @cached_property
    def _by_event(self) -> Dict[str, Tuple[Subset, Rel]]:
        return {e: (s, r) for (e, s), (_, r) in zip(self.pre_extents, self.transitions)}

    def _event(self, e: str) -> Tuple[Subset, Rel]:
        try:
            return self._by_event[e]
        except KeyError:
            raise UnknownEvent(f"event {e!r} not in event model") from None

    def pre_extent(self, e: str) -> Subset:
        return self._event(e)[0]

    def transition(self, e: str) -> Rel:
        return self._event(e)[1]


# The largest carrier an update may build.  Each nested event operator
# updates the previous update, so carriers can grow geometrically; past this
# size the update raises CapExceeded instead of exhausting memory.
MAX_UPDATE_CARRIER = 10_000


def updated_frame(
    frame_x: KripkeFrame,
    frame_e: KripkeFrame,
    extents: Mapping[str, int],
) -> Tuple[KripkeFrame, Tuple[FrameMap, FrameMap], Dict[str, Rel]]:
    """Frame of an update, given each event's precondition extent as a mask.

    The points are the pairs (w, e) with w in the extent of e, world-major,
    labelled "(w,e)"; a pair moves to a pair when both components move.
    Returns the frame, its two projections, which read off each point's
    old point and event, and per event the transition: the relation
    sending each old point w in the extent of e to (w, e).
    Raises CapExceeded, before building anything, when the points would
    number more than MAX_UPDATE_CARRIER.
    """
    events = frame_e.carrier.elements
    masks = [extents[e] for e in events]
    size = sum(m.bit_count() for m in masks)
    if size > MAX_UPDATE_CARRIER:
        raise CapExceeded(
            f"update would build {size} points, above the cap of {MAX_UPDATE_CARRIER}"
        )
    pairs = [(i, k) for i in range(len(frame_x.carrier)) for k, m in enumerate(masks) if m >> i & 1]
    frame, legs = lift_pairs(
        f"({frame_x.carrier.name}(x){frame_e.carrier.name})", frame_x, frame_e, pairs
    )
    rows = [[0] * len(frame_x.carrier) for _ in events]
    for p, (i, k) in enumerate(pairs):
        rows[k][i] = 1 << p
    transitions = {e: _rel(frame_x.carrier, frame.carrier, r) for e, r in zip(events, rows)}
    return frame, legs, transitions


# the scope, (free variables, bound variables), of a formula with no variables
_NONE: frozenset = frozenset()
_NO_VARS: Tuple[frozenset, frozenset] = (_NONE, _NONE)


class _Evaluator:
    """Extensions memoised per evaluator; updates and announcements kept per model.

    ``ext(model, context, phi)`` is the subset of the context's points where
    the formula holds; ``mask`` is the same as a mask, and the walk from
    leaf to root works on masks only.  The evaluator holds what both layers
    share: the memo, the Boolean connectives as bit operations, boxes and
    diamonds as images along the dagger of an agent's relation, quantifiers
    as images along the projection dropping their variable, event
    operators as images along the dagger of an update's transition, and
    the cycle check on
    event-model references.  Every image is read off the relation's rows
    (``rows`` along a dagger, ``pred_rows`` along the relation), so a modal
    node builds no dagger, image map or relation; the ``duality`` suite
    checks the row helpers against the image maps.

    In a nonempty context (sheaf models only) a node is computed over its
    own free variables, kept in context order, and memoised under that
    context; its extension over the context asked for is the preimage
    along the coordinate projection's code (``rel.preimage``), asked for
    only after that extension, so no power is built before a node needs
    it.  A quantifier whose variable is not free in its body gives back the body's extension: the
    projection is onto, since every fiber is nonempty.  So a formula
    builds the power of only the variables it uses.  A binder that shadows
    a variable of the context raises ShadowedVariable before the context
    is narrowed.

    A model supplies the rest:

    - ``context_frame(n)``: the frame whose carrier holds the points of an
      n-variable context, with one relation per agent;
    - ``leaf(context, phi)``: the extension of an atom or predicate, as a
      Subset;
    - ``projection(context, own)``: the coordinate projection from the
      context's points onto those of its subsequence ``own``: weakening
      reads its ``code``, quantifiers its ``pred_rows`` (sheaves only);
    - ``sentence(pre, e)``: event e's precondition as this layer reads it;
    - ``build_update(ev, extents)``: the update by an event model, given
      each event's precondition extent as a mask;
    - ``transition(upd, n, e)``: that update's relation from old points to
      their updated copies under event e;
    - ``_updates``: the dict of updates and announcements built on it,
      keyed by extents, which this class reads and fills.

    The extension memo lasts as long as the evaluator, and so does the
    update each event-model name resolved to on each model, so an event
    operator's preconditions are evaluated once per model and evaluator.
    Updates and announcements outlive it, kept on their model by extent
    masks, so later calls on the same model object, through any entry point
    and under any registry, reuse them.  Announcements stay Kripke-only.  A
    node a layer does not interpret raises UnknownSymbol.  Models key the
    memo by value (Kripke models) or by identity (sheaf models).
    """

    def __init__(self, registry: Optional[Mapping[str, EventModel]] = None):
        self.registry = dict(registry or {})
        self.memo: Dict[tuple, int] = {}
        self.scopes: Dict[Formula, Tuple[frozenset, frozenset]] = {}
        self.resolved: Dict[tuple, object] = {}
        self.updating: set = set()

    def ext(self, model, context: Tuple[str, ...], phi: Formula) -> Subset:
        carrier = model.context_frame(len(context)).carrier
        return _subset(carrier, self.mask(model, context, phi))

    def mask(self, model, context: Tuple[str, ...], phi: Formula) -> int:
        """The extension as a mask over the context's carrier, memoised."""
        key = (model, context, phi)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._mask(model, context, phi)
        return hit

    def scope(self, phi: Formula) -> Tuple[frozenset, frozenset]:
        """The free and the bound variables of a formula, kept per node."""
        hit = self.scopes.get(phi)
        if hit is None:
            if isinstance(phi, Pred):
                hit = (_NONE.union(*map(term_free_vars, phi.args)), _NONE)
            else:
                hit = _NO_VARS
                for kid in children(phi):
                    free, bound = self.scope(kid)
                    hit = (free, bound) if hit is _NO_VARS else (hit[0] | free, hit[1] | bound)
                if isinstance(phi, (Forall, Exists)):
                    hit = (hit[0] - {phi.var}, hit[1] | {phi.var})
            self.scopes[phi] = hit
        return hit

    def own_context(self, context: Tuple[str, ...], phi: Formula) -> Tuple[str, ...]:
        """The variables of context free in phi, in context order (context
        itself when phi uses them all).  Raises ShadowedVariable when phi
        binds a variable of context."""
        free, bound = self.scope(phi)
        if bound and not bound.isdisjoint(context):
            var = next(v for v in context if v in bound)
            raise ShadowedVariable(f"quantified variable {var!r} shadows the context; rename it")
        if len(free) == len(context):  # free lies in context, or a leaf says it does not
            return context
        return tuple(v for v in context if v in free)

    def _mask(self, model, context: Tuple[str, ...], phi: Formula) -> int:
        if context:  # a Kripke model's context is always empty
            own = self.own_context(context, phi)
            if own is not context:
                inner = self.mask(model, own, phi)  # before the projection builds a power
                return preimage(model.projection(context, own).code, inner)
        n = len(context)
        if isinstance(phi, Top):
            return model.context_frame(n).carrier.full
        if isinstance(phi, Bot):
            return 0
        if isinstance(phi, Not):
            return model.context_frame(n).carrier.full ^ self.mask(model, context, phi.body)
        if isinstance(phi, And):
            return self.mask(model, context, phi.left) & self.mask(model, context, phi.right)
        if isinstance(phi, Or):
            return self.mask(model, context, phi.left) | self.mask(model, context, phi.right)
        if isinstance(phi, Imp):
            left = model.context_frame(n).carrier.full ^ self.mask(model, context, phi.left)
            return left | self.mask(model, context, phi.right)
        if isinstance(phi, (Box, Dia)):
            rows = model.context_frame(n).rel(phi.agent).rows
            inner = self.mask(model, context, phi.body)
        elif isinstance(phi, (Forall, Exists)):
            if isinstance(model, KripkeModel):
                raise UnknownSymbol("quantifiers cannot be evaluated on a propositional model")
            inner_context = self.own_context(context + (phi.var,), phi.body)
            inner = self.mask(model, inner_context, phi.body)
            if len(inner_context) == n:  # the variable is not free in the body
                return inner
            rows = model.projection(inner_context, context).pred_rows
        elif isinstance(phi, (DelBox, DelDia)):
            upd = self.update(model, phi.model)
            if phi.event not in upd.events.events:
                raise UnknownEvent(f"event {phi.event!r} not in event model {phi.model!r}")
            inner = self.mask(upd.updated, context, phi.body)
            rows = model.transition(upd, n, phi.event).rows
        elif isinstance(phi, (PalBox, PalDia)) and isinstance(model, KripkeModel):
            sub, incl = self.pal(model, phi.announcement)
            rows = incl.fn.pred_rows
            inner = self.mask(sub, context, phi.body)
        else:
            return model.leaf(context, phi).mask
        if isinstance(phi, (Box, Forall, DelBox, PalBox)):
            return forall_image(rows, inner)
        return exists_image(rows, inner)

    def pal(self, model: KripkeModel, sigma: Formula) -> Tuple[KripkeModel, FrameMap]:
        """The submodel of the announcement's extent, with its inclusion.

        The model keeps the pair by the extent's mask, so announcements of
        one extent share one submodel.  The subframe is a lift, so a modal-free
        body lifts nothing: a relation is built when a modal node first reads it.
        """
        extent = self.ext(model, (), sigma)
        hit = model._updates.get(extent.mask)
        if hit is None:
            frame, incl = subframe(model.frame, extent, tag="!")
            # a kept world satisfies an atom when it did before
            code = incl.fn.code
            val = {n: _subset(frame.carrier, preimage(code, s.mask)) for n, s in model.valuation}
            hit = model._updates[extent.mask] = (KripkeModel.make(frame, val), incl)
        return hit

    def update(self, model, ref: str):
        """The model's update by the event model named ref, resolved once
        per model and evaluator; a build that raises keeps nothing."""
        key = (model, ref)
        hit = self.resolved.get(key)
        if hit is not None:
            return hit
        if ref not in self.registry:
            raise UnresolvedEventModel(f"event model {ref!r} not in registry")
        if key in self.updating:
            raise CyclicPrecondition(
                f"cyclic dynamic preconditions while updating with {ref!r}"
            )
        self.updating.add(key)
        try:
            hit = self.resolved[key] = self.build_update(model, self.registry[ref])
        finally:
            self.updating.discard(key)
        return hit

    def build_update(self, model, ev: EventModel):
        """The model's update by ev, kept under ev and its preconditions'
        extents.  An update holds no reference to its model, so keeping it
        makes no reference cycle: the model is freed as soon as its last
        reference goes, and until then every call returns the same update.
        """
        extents = tuple(self.mask(model, (), model.sentence(pre, e)) for e, pre in ev.preconditions)
        key = (ev, extents)
        hit = model._updates.get(key)
        if hit is None:
            hit = model._updates[key] = model.build_update(ev, extents)
        return hit


def extension(
    model: KripkeModel,
    phi: Formula,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> Subset:
    """The set of worlds where the formula holds.

    Event operators use the updates kept on the model (and on the updates
    under them), so a later call on the same model object reuses them.
    """
    return _Evaluator(registry).ext(model, (), phi)


def pal_update(
    model: KripkeModel,
    sigma: Formula,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> Tuple[KripkeModel, FrameMap]:
    """Submodel of the announcement's extent and its inclusion, kept on the model."""
    return _Evaluator(registry).pal(model, sigma)


def product_update(
    model: KripkeModel,
    ev: EventModel,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> UpdateResult:
    """Product update of a model by an event model.

    The result is kept on the model under ev and its preconditions'
    extents: a second call, or a query or reduction whose event operator
    resolves to ev with those extents, returns the same object.
    """
    return _Evaluator(registry).build_update(model, ev)


@dataclass(init=False, repr=False, eq=False)
class LawCheck(Frozen):
    """One named check of a law report, with a witness when it failed."""

    name: str
    ok: bool
    witness: Optional[str] = None


@dataclass(init=False, repr=False, eq=False)
class LawReport(Frozen):
    """Named checks run together; ok when every one passed."""

    checks: Tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[LawCheck]:
        return [c for c in self.checks if not c.ok]


def _relation_check(name: str, lhs: Rel, rhs: Rel) -> LawCheck:
    if lhs == rhs:
        return LawCheck(name, True)
    diff = sorted(lhs.pairs.symmetric_difference(rhs.pairs))
    return LawCheck(name, False, witness=f"routes differ at {diff}")


def check_update_routes(upd: UpdateResult) -> LawReport:
    """Each transition of a product update agrees with its two composites.

    Through the extent: the dagger of the extent's inclusion into the old
    worlds, then the extent's injection w -> (w, e) into the update.
    Through the product: the pairing w -> (w, e) into the product of the
    two frames, then the dagger of the update's inclusion into it.
    """
    x = upd.p_x.dst.carrier
    carrier = upd.updated.frame.carrier
    prod, _, _ = product(upd.p_x.dst, upd.events.frame)
    into_prod = Rel(carrier, prod.carrier, frozenset((c, c) for c in carrier))
    checks: List[LawCheck] = []
    for e in upd.events.events:
        elems = tuple(w for w in x if w in upd.pre_extent(e).members)
        extent = FiniteSet(f"({x.name}|{e})", elems)
        incl = Rel(extent, x, frozenset((w, w) for w in elems))
        inj = Rel(extent, carrier, frozenset((w, pair_label(w, e)) for w in elems))
        pairing = Rel(x, prod.carrier, frozenset((w, pair_label(w, e)) for w in x))
        for route, composite in (
            ("the extent", compose(dagger(incl), inj)),
            ("the product", compose(pairing, dagger(into_prod))),
        ):
            name = f"transition through {route} [{e}]"
            checks.append(_relation_check(name, upd.transition(e), composite))
    return LawReport(tuple(checks))


@dataclass(init=False, repr=False, eq=False)
class NoLearningReport(Frozen):
    """Outcome of the no-learning criterion for one update.

    bounded: whether the world projection of the update is bounded.
    holds: whether the event box always agreed with the guarded formula.
    A bounded projection with holds False would refute the library; an
    unbounded projection with holds False is a genuine learning witness.
    """

    bounded: bool
    holds: bool
    witness: Optional[str]
    formulas_checked: int


def _static_pool(
    model: KripkeModel,
    updated: KripkeModel,
    depth: int,
    class_cap: int = 150,
) -> List[Tuple[Formula, int, int]]:
    """Static formulas to the given depth, deduplicated semantically.

    Each entry carries the formula's extension on the original and on the
    updated model, as masks, so deeper levels are built by plain bit
    operations.  Deduplication keys on that pair of extensions, which
    makes the sweep exhaustive over semantic classes rather than syntax
    trees.  Each level keeps its first ``class_cap`` classes in the order
    of their member names.
    """
    x = model.frame.carrier
    u = updated.frame.carrier
    full_x, full_u = x.full, u.full
    rows_x = {a: model.frame.rel(a).rows for a in model.frame.agents}
    rows_u = {a: updated.frame.rel(a).rows for a in updated.frame.agents}

    def sort_key(entry):
        fx, sx, su = entry
        return (sorted(x.names(sx)), sorted(u.names(su)))

    seen = set()

    def add(node, args, sx, su, into):
        # the node is built only for a new pair of extensions
        key = (sx, su)
        if key not in seen:
            seen.add(key)
            into.append((node(*args), sx, su))

    base: List[Tuple[Formula, int, int]] = []
    add(Top, (), full_x, full_u, base)
    add(Bot, (), 0, 0, base)
    for p in model.atoms:
        add(Atom, (p,), model.val(p).mask, updated.val(p).mask, base)
    pool = list(base)
    current = list(base)
    for _ in range(depth):
        fresh: List[Tuple[Formula, int, int]] = []
        for f, sx, su in current:
            add(Not, (f,), full_x ^ sx, full_u ^ su, fresh)
            for a in model.frame.agents:
                rx, ru = rows_x[a], rows_u[a]
                add(Box, (a, f), forall_image(rx, sx), forall_image(ru, su), fresh)
                add(Dia, (a, f), exists_image(rx, sx), exists_image(ru, su), fresh)
        for f1, sx1, su1 in current:
            for f2, sx2, su2 in pool:
                add(And, (f1, f2), sx1 & sx2, su1 & su2, fresh)
                add(Or, (f1, f2), sx1 | sx2, su1 | su2, fresh)
                add(Imp, (f1, f2), (full_x ^ sx1) | sx2, (full_u ^ su1) | su2, fresh)
        fresh.sort(key=sort_key)
        fresh = fresh[:class_cap]
        pool.extend(fresh)
        current = fresh
    return pool


def no_learning_check(
    model: KripkeModel,
    ev_model: EventModel,
    depth: int = 2,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> NoLearningReport:
    """When the world projection is bounded, updating teaches nobody anything.

    Concretely: for every event and every static formula to the given
    depth, the event box of the formula has the same extension as the
    material implication from the event's precondition, both read on the
    original model.  The sweep covers every semantic class of static
    formulas to the depth.  When the projection is not bounded, a failing
    pair is not an error but a learning witness, reported as such.
    """
    ev = _Evaluator(registry)
    upd = ev.build_update(model, ev_model)
    bounded = is_bounded(upd.p_x)
    pool = _static_pool(model, upd.updated, depth)
    x = model.frame.carrier
    witness = None
    holds = True
    for e in ev_model.events:
        pre_ext = ev.mask(model, (), ev_model.pre(e))
        rows = upd.transition(e).rows
        for f, sx, su in pool:
            lhs = forall_image(rows, su)
            rhs = (x.full ^ pre_ext) | (sx & pre_ext)
            if lhs != rhs:
                holds = False
                diff = sorted(x.names(lhs ^ rhs))
                witness = f"event {e!r}: event box differs from guarded formula at {diff}"
                break
        if not holds:
            break
    return NoLearningReport(bounded, holds, witness, len(pool))


def static_precondition_modalities(
    model: KripkeModel,
    sigma: Formula,
    registry: Optional[Mapping[str, EventModel]] = None,
    cap: int = 12,
) -> Tuple[PowersetMap, PowersetMap]:
    """The announcement modalities as powerset maps on the original carrier.

    Returns the composite of inverse image along the inclusion with the
    universal image (box form) and with the direct image (diamond form),
    and asserts pointwise that these are implication from and conjunction
    with the announcement.  The assertion is exhaustive over the 2^|W|
    subsets of the carrier W, as masks: each map is applied once per
    subset, and the first subset where either disagrees raises
    InvariantViolation.  Raises CapExceeded when |W| is above cap, before
    evaluating or building anything.
    """
    carrier = model.frame.carrier
    if len(carrier) > cap:
        raise CapExceeded(f"static_precondition_modalities: carrier above cap {cap}")
    ev = _Evaluator(registry)
    extent = ev.ext(model, (), sigma)
    _, incl = ev.pal(model, sigma)
    box_map = compose_maps(preimage_map(incl.fn, MEET), forall_map(incl.fn))
    dia_map = compose_maps(preimage_map(incl.fn, JOIN), exists_map(incl.fn))
    inside = extent.mask
    outside = carrier.full ^ inside
    for s in range(1 << len(carrier)):
        if _apply_mask(box_map, s) != outside | s or _apply_mask(dia_map, s) != inside & s:
            raise InvariantViolation(
                "announcement modalities disagree with the propositional operations"
            )
    return box_map, dia_map
