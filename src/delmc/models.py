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
empty context.  Each model supplies the layer-specific part (the frame of
a context, leaves, the quantifier map, its update and that update's
transitions); the evaluator holds the rest once.

An update belongs to the model it updates: each model keeps the updates
built on it, keyed by the event model and the registry its preconditions
resolve through (both by value), so every query, reduction and update on
one model object shares one build per key.  A build that raises leaves no
entry, and an entry lives as long as its model object.  The model holds
its updates but an update's way back to its model (``source``) is not
kept in the model's cache, so the two form no reference cycle and a model
is freed by reference counting alone.

Event preconditions may themselves be dynamic (they are evaluated on the
original model); cyclic references between event models are detected and
rejected with CyclicPrecondition rather than looping.

The law checks here re-prove the update's structure (``check_update_routes``,
``no_learning_check``); the reduction-law checks read the axiom table and
live beside it in ``reduction``.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple

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
    Top,
)
from .frames import FrameMap, KripkeFrame, is_bounded, lift_pairs, product, subframe
from .powerset import (
    JOIN,
    MEET,
    PowersetMap,
    Subset,
    all_subsets,
    apply,
    compose_maps,
    exists_image,
    exists_map,
    forall_image,
    forall_map,
    preimage_map,
)
from .rel import FiniteSet, Rel, _rel, _unchecked, compose, dagger, pair_label


@dataclass(frozen=True)
class KripkeModel:
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
    def _updates(self) -> Dict[tuple, tuple]:
        """The updates built on this model; ``_Evaluator.build_update`` fills it."""
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

    def build_update(self, ev: "EventModel", ext: Callable[[Formula], Subset]) -> "UpdateResult":
        """Product update, given the extension of a closed formula here."""
        frame_x = self.frame
        extents = {e: ext(ev.pre(e)) for e in ev.events}
        frame, (p_x, p_e), transitions = updated_frame(
            frame_x, ev.frame, {e: s.mask for e, s in extents.items()}
        )
        # an updated point satisfies an atom when its old world does
        old_rows = p_x.fn.rows
        val = {
            n: _unchecked(Subset, carrier=frame.carrier, mask=exists_image(old_rows, s.mask))
            for n, s in self.valuation
        }
        return UpdateResult(
            source=self,
            events=ev,
            updated=KripkeModel.make(frame, val),
            p_x=p_x,
            p_e=p_e,
            pre_extents=tuple((e, extents[e]) for e in ev.events),
            transitions=tuple((e, transitions[e]) for e in ev.events),
        )


@dataclass(frozen=True)
class EventModel:
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


@dataclass(frozen=True)
class UpdateResult:
    """Everything the product update produces, maps included.

    The result carries the updated model, its two projections, and for
    each event the precondition extent and the transition relation from
    old worlds to their updated copies.  ``check_update_routes`` compares
    each transition with its composites through the extent and through
    the product of the two frames.
    """

    source: Optional[KripkeModel]
    events: EventModel
    updated: KripkeModel
    p_x: FrameMap
    p_e: FrameMap
    pre_extents: Tuple[Tuple[str, Subset], ...]
    transitions: Tuple[Tuple[str, Rel], ...]

    def pre_extent(self, e: str) -> Subset:
        return dict(self.pre_extents)[e]

    def with_source(self, source: Optional[KripkeModel]) -> "UpdateResult":
        """The same update over another source object (None: no source)."""
        return dataclasses.replace(self, source=source)

    def transition(self, e: str) -> Rel:
        return dict(self.transitions)[e]


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


class _Evaluator:
    """Extensions on either layer, memoised per evaluator; updates kept per model.

    ``ext(model, context, phi)`` is the subset of the context's points where
    the formula holds; ``mask`` is the same as a mask, and the walk from
    leaf to root works on masks only.  The evaluator holds what both layers
    share: the memo, the Boolean connectives as bit operations, boxes and
    diamonds as images along the dagger of an agent's relation, quantifiers
    as images along the model's drop map, event operators as images along
    the dagger of an update's transition, and the cycle check on
    event-model references.  Every image is read off the relation's rows
    (``rows`` along a dagger, ``pred_rows`` along the relation), so a modal
    node builds no dagger, image map or relation; the ``duality`` suite
    checks the row helpers against the image maps.  A model supplies the
    rest:

    - ``context_frame(n)``: the frame whose carrier holds the points of an
      n-variable context, with one relation per agent;
    - ``leaf(context, phi)``: the extension of an atom or predicate, as a
      Subset;
    - ``drop_last_map(n)``: the map from the (n+1)- to the n-variable
      context's points that quantifiers take images along (sheaves only);
    - ``build_update(ev, ext)``: the update by an event model, given the
      extension of a closed formula on the model;
    - ``transition(upd, n, e)``: that update's relation from old points to
      their updated copies under event e;
    - ``_updates``: the dict of updates built on it, which this class
      reads and fills;
    - an update type with ``with_source(model)``: the same update over
      another source object, which ``build_update`` uses to keep the
      update detached from its model.

    The extension memo and the announcement memo last as long as the
    evaluator.  Updates outlive it: ``build_update`` keeps each finished
    update on its model under ``(event model, registry)``, so later calls
    on the same model object, through any entry point, reuse it.
    Announcements stay Kripke-only.  A node a layer does not interpret
    raises UnknownSymbol.  Models key the memo by value (Kripke models) or
    by identity (sheaf models).
    """

    def __init__(self, registry: Optional[Mapping[str, EventModel]] = None):
        self.registry = dict(registry or {})
        self.registry_key = frozenset(self.registry.items())
        self.memo: Dict[tuple, int] = {}
        self.pal_memo: Dict[Tuple[KripkeModel, Formula], Tuple[KripkeModel, FrameMap]] = {}
        self.updating: set = set()

    def ext(self, model, context: Tuple[str, ...], phi: Formula) -> Subset:
        carrier = model.context_frame(len(context)).carrier
        return _unchecked(Subset, carrier=carrier, mask=self.mask(model, context, phi))

    def mask(self, model, context: Tuple[str, ...], phi: Formula) -> int:
        """The extension as a mask over the context's carrier, memoised."""
        key = (model, context, phi)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._mask(model, context, phi)
        return hit

    def _mask(self, model, context: Tuple[str, ...], phi: Formula) -> int:
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
            if phi.var in context:
                raise ShadowedVariable(
                    f"quantified variable {phi.var!r} shadows the context; rename it"
                )
            inner = self.mask(model, context + (phi.var,), phi.body)
            rows = model.drop_last_map(n).pred_rows
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
        key = (model, sigma)
        hit = self.pal_memo.get(key)
        if hit is not None:
            return hit
        extent = self.ext(model, (), sigma)
        frame, incl = subframe(model.frame, extent, tag="!")
        # the inclusion's rows pick each kept world's bit out of a valuation
        rows = incl.fn.rows
        val = {
            n: _unchecked(Subset, carrier=frame.carrier, mask=exists_image(rows, s.mask))
            for n, s in model.valuation
        }
        sub = KripkeModel.make(frame, val)
        self.pal_memo[key] = (sub, incl)
        return sub, incl

    def update(self, model, ref: str):
        if ref not in self.registry:
            raise UnresolvedEventModel(f"event model {ref!r} not in registry")
        key = (model, ref)
        if key in self.updating:
            raise CyclicPrecondition(
                f"cyclic dynamic preconditions while updating with {ref!r}"
            )
        self.updating.add(key)
        try:
            return self.build_update(model, self.registry[ref])
        finally:
            self.updating.discard(key)

    def build_update(self, model, ev: EventModel):
        """The model's update by ev under this registry, built on first use.

        The model keeps, per key, the update detached from it (source None)
        and a weak reference to the update it last handed out, so the
        model and its updates form no reference cycle: a model is freed
        as soon as its last reference goes.  While a caller holds an
        update, every later call returns that same object.
        """
        key = (ev, self.registry_key)
        cache = model._updates
        entry = cache.get(key)
        if entry is not None:
            body, handed_out = entry
            out = handed_out()
            if out is None:
                out = body.with_source(model)
                cache[key] = (body, weakref.ref(out))
            return out
        out = model.build_update(ev, lambda phi: self.ext(model, (), phi))
        cache[key] = (out.with_source(None), weakref.ref(out))
        return out


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
    """Submodel of the announcement's extent, with its inclusion."""
    return _Evaluator(registry).pal(model, sigma)


def product_update(
    model: KripkeModel,
    ev: EventModel,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> UpdateResult:
    """Product update of a model by an event model.

    The result is kept on the model under ``(ev, registry)``: a second call,
    or a query or reduction with an event operator resolving to ev under the
    same registry, returns the same object instead of building it again.
    """
    return _Evaluator(registry).build_update(model, ev)


@dataclass(frozen=True)
class LawCheck:
    name: str
    ok: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class LawReport:
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
    x = upd.source.frame.carrier
    carrier = upd.updated.frame.carrier
    prod, _, _ = product(upd.source.frame, upd.events.frame)
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


@dataclass(frozen=True)
class NoLearningReport:
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

    def add(f, sx, su, into):
        key = (sx, su)
        if key not in seen:
            seen.add(key)
            into.append((f, sx, su))

    base: List[Tuple[Formula, int, int]] = []
    add(Top(), full_x, full_u, base)
    add(Bot(), 0, 0, base)
    for p in model.atoms:
        add(Atom(p), model.val(p).mask, updated.val(p).mask, base)
    pool = list(base)
    current = list(base)
    for _ in range(depth):
        fresh: List[Tuple[Formula, int, int]] = []
        for f, sx, su in current:
            add(Not(f), full_x ^ sx, full_u ^ su, fresh)
            for a in model.frame.agents:
                rx, ru = rows_x[a], rows_u[a]
                add(Box(a, f), forall_image(rx, sx), forall_image(ru, su), fresh)
                add(Dia(a, f), exists_image(rx, sx), exists_image(ru, su), fresh)
        for f1, sx1, su1 in current:
            for f2, sx2, su2 in pool:
                add(And(f1, f2), sx1 & sx2, su1 & su2, fresh)
                add(Or(f1, f2), sx1 | sx2, su1 | su2, fresh)
                add(Imp(f1, f2), (full_x ^ sx1) | sx2, (full_u ^ su1) | su2, fresh)
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
    with the announcement.
    """
    ev = _Evaluator(registry)
    extent = ev.ext(model, (), sigma)
    _, incl = ev.pal(model, sigma)
    box_map = compose_maps(preimage_map(incl.fn, MEET), forall_map(incl.fn))
    dia_map = compose_maps(preimage_map(incl.fn, JOIN), exists_map(incl.fn))
    carrier = model.frame.carrier
    if len(carrier) > cap:
        raise CapExceeded(f"static_precondition_modalities: carrier above cap {cap}")
    for s in all_subsets(carrier):
        want_box = extent.complement().union(s)
        want_dia = extent.intersect(s)
        if apply(box_map, s) != want_box or apply(dia_map, s) != want_dia:
            raise InvariantViolation(
                "announcement modalities disagree with the propositional operations"
            )
    return box_map, dia_map
