"""First-order semantics over Kripke sheaves, with pullback update.

A Kripke sheaf is a surjective bounded projection from a frame of
individuals onto a frame of worlds in which accessible lifts are unique:
whenever one individual steps to two individuals over the same world, the
two coincide.  Terms in an n-variable context denote maps out of the n-th
fibered power of the projection, formulas denote subsets of its carrier,
quantifiers are the image maps along the projection dropping a component,
and modalities are images along the fibered frame relations.

Formulas are evaluated by the one evaluator of ``models`` (``_Evaluator``),
which serves both layers; a sheaf model supplies its per-layer part: the
frame of each context's fibered power, predicate leaves and term values,
the quantifier drop map, and its pullback update.  Fibered powers depend
only on the sheaf, which builds each one once; pullback updates are kept
on the sheaf model they update, one per event model and registry, so
queries, reductions and ``pullback_update`` on one model share them.

Updating by an event model with closed preconditions pulls the whole
structure back: worlds, individuals, interpretation tables.  The update of
a sheaf model is again a sheaf model; the constructor re-checks the three
sheaf conditions.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ArityMismatch,
    CarrierMismatch,
    InvariantViolation,
    NotMonotone,
    OpenPrecondition,
    UnknownEvent,
    UnknownSymbol,
)
from .formulas import (
    Box,
    DelBox,
    DelDia,
    Dia,
    Exists,
    Forall,
    Formula,
    FormulaInContext,
    Fun,
    Pred,
    Term,
    TermInContext,
    Var,
    as_sentence,
    free_vars,
    substitute,
)
from .frames import FrameMap, KripkeFrame, identity_map, is_bounded, is_monotone, lift_points
from .models import (
    EventModel,
    LawCheck,
    LawReport,
    _Evaluator,
    _relation_check,
    updated_frame,
)
from .powerset import Subset, exists_image
from .rel import (
    FiniteSet,
    Rel,
    _rel,
    _unchecked,
    apply_function,
    bit_flags,
    compose,
    dagger,
    function_from_mapping,
    is_surjective,
    pair_label,
    tuple_label,
)


@dataclass(frozen=True)
class Signature:
    """Function and relation symbols with arities; names are disjoint."""

    function_symbols: Tuple[Tuple[str, int], ...]
    relation_symbols: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.function_symbols] + [n for n, _ in self.relation_symbols]
        if len(set(names)) != len(names):
            raise InvariantViolation("signature symbol names must be distinct")
        for n, k in self.function_symbols + self.relation_symbols:
            if k < 0:
                raise InvariantViolation(f"negative arity for {n!r}")

    @staticmethod
    def make(functions: Mapping[str, int], relations: Mapping[str, int]) -> "Signature":
        return Signature(
            tuple((n, functions[n]) for n in sorted(functions)),
            tuple((n, relations[n]) for n in sorted(relations)),
        )

    def fn_arity(self, name: str) -> int:
        for n, k in self.function_symbols:
            if n == name:
                return k
        raise UnknownSymbol(f"function symbol {name!r} not in signature")

    def rel_arity(self, name: str) -> int:
        for n, k in self.relation_symbols:
            if n == name:
                return k
        raise UnknownSymbol(f"relation symbol {name!r} not in signature")


@dataclass(frozen=True)
class SheafCheck:
    """Diagnostics from checking the sheaf conditions on a projection.

    failure names the first failed condition, with a witness.  The last
    two fields cross-check the direct definition against the diagonal
    characterization: bounded plus unique lifts must coincide with bounded
    projection plus bounded diagonal into the binary fibered power.
    """

    is_sheaf: bool
    failure: Optional[str]
    surjective: bool
    bounded: bool
    unique_lift: bool
    delta_bounded: bool
    characterization_agrees: bool


def _unique_lift_witness(total: KripkeFrame, proj_fn: Rel) -> Optional[Tuple[str, str, str, str]]:
    names = total.carrier.elements
    pi = proj_fn.rows  # one bit per individual: its world
    for agent in total.agents:
        for a, row in zip(names, total.rel(agent).rows):
            by_world: Dict[int, int] = {}
            for b in compress(range(len(names)), bit_flags(row)):
                first = by_world.setdefault(pi[b], b)
                if first != b:
                    return (agent, a, names[first], names[b])
    return None


def _sheaf_conditions(
    total: KripkeFrame, base: KripkeFrame, proj: FrameMap
) -> Tuple[bool, bool, bool, Optional[str]]:
    """The three direct sheaf conditions, then the first failure or None."""
    if proj.src != total or proj.dst != base:
        raise CarrierMismatch("is_kripke_sheaf: projection does not connect the two frames")
    surjective = is_surjective(proj.fn)
    bounded = is_bounded(proj)
    witness = _unique_lift_witness(total, proj.fn)
    failure = None
    if not surjective:
        missing = sorted(
            set(base.carrier.elements) - {apply_function(proj.fn, a) for a in total.carrier}
        )
        failure = f"projection not surjective: no individual over {missing[0]!r}"
    elif not bounded:
        failure = "projection not a bounded morphism"
    elif witness is not None:
        agent, a, b, b2 = witness
        failure = f"unique-lift condition fails (agent {agent!r}): witness {a},{b},{b2}"
    return surjective, bounded, witness is None, failure


def is_kripke_sheaf(total: KripkeFrame, base: KripkeFrame, proj: FrameMap) -> SheafCheck:
    """Check the three sheaf conditions and name the first failure.

    Also evaluates the diagonal characterization independently: the
    projection together with the diagonal into its binary fibered power
    must be bounded exactly when the projection is bounded with unique
    lifts.
    """
    surjective, bounded, unique, failure = _sheaf_conditions(total, base, proj)
    # the binary fibered power of the projection, with no sheaf assumptions
    pi = {a: proj(a) for a in total.carrier}
    square_frame, _ = lift_points(
        f"({total.carrier.name}^2)",
        [total, total],
        [(pair_label(a, b), (a, b)) for a in total.carrier for b in total.carrier if pi[a] == pi[b]],
    )
    diag = Rel(
        total.carrier,
        square_frame.carrier,
        frozenset((a, pair_label(a, a)) for a in total.carrier),
    )
    delta_bounded = is_bounded(FrameMap(total, square_frame, diag))
    return SheafCheck(
        is_sheaf=failure is None,
        failure=failure,
        surjective=surjective,
        bounded=bounded,
        unique_lift=unique,
        delta_bounded=delta_bounded,
        characterization_agrees=(bounded and unique) == (bounded and delta_bounded),
    )


@dataclass(frozen=True)
class KripkeSheaf:
    """A validated sheaf: surjective bounded projection with unique lifts."""

    total: KripkeFrame
    base: KripkeFrame
    proj: FrameMap
    _powers: Dict[int, "FiberedPower"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        failure = _sheaf_conditions(self.total, self.base, self.proj)[-1]
        if failure is not None:
            raise InvariantViolation(f"not a Kripke sheaf: {failure}")

    @cached_property
    def fibers(self) -> Dict[str, Tuple[str, ...]]:
        """The individuals over each world, in the total carrier's order."""
        individuals = self.total.carrier.elements
        return {
            w: tuple(compress(individuals, bit_flags(m)))
            for w, m in zip(self.base.carrier, self.proj.fn.pred_rows)
        }

    def fiber(self, w: str) -> Tuple[str, ...]:
        return self.fibers.get(w, ())

    def power(self, n: int) -> "FiberedPower":
        """The n-th fibered power, built on first use and kept."""
        if n not in self._powers:
            self._powers[n] = fibered_power(self, n)
        return self._powers[n]


@dataclass(frozen=True)
class FiberedPower:
    """The n-th fibered power of a sheaf projection.

    Carrier elements are n-tuples of individuals lying over a common
    world; the frame is the initial lift of the component projections
    together with the projection to the base, so tuples step exactly when
    all components step.  n = 0 is the base itself with the identity,
    n = 1 is the total frame with the projection.
    """

    n: int
    carrier: FiniteSet
    frame: KripkeFrame
    proj_to_base: FrameMap
    component_projections: Tuple[FrameMap, ...]
    tuples: Tuple[Tuple[str, ...], ...]
    base_worlds: Tuple[str, ...]

    @cached_property
    def tuple_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(zip(self.carrier.elements, self.tuples))

    @cached_property
    def world_map(self) -> Dict[str, str]:
        return dict(zip(self.carrier.elements, self.base_worlds))

    def tuple_of(self, label: str) -> Tuple[str, ...]:
        return self.tuple_map[label]

    def world_of(self, label: str) -> str:
        return self.world_map[label]

    def label_for(self, world: str, tup: Tuple[str, ...]) -> str:
        if self.n == 0:
            return world
        if self.n == 1:
            return tup[0]
        return tuple_label(tup)


def fibered_power(sheaf: KripkeSheaf, n: int) -> FiberedPower:
    if n < 0:
        raise InvariantViolation("fibered_power: negative arity")
    base = sheaf.base
    total = sheaf.total
    if n == 0:
        return FiberedPower(
            n=0,
            carrier=base.carrier,
            frame=base,
            proj_to_base=identity_map(base),
            component_projections=(),
            tuples=tuple(() for _ in base.carrier),
            base_worlds=base.carrier.elements,
        )
    if n == 1:
        return FiberedPower(
            n=1,
            carrier=total.carrier,
            frame=total,
            proj_to_base=sheaf.proj,
            component_projections=(identity_map(total),),
            tuples=tuple((a,) for a in total.carrier),
            base_worlds=tuple(sheaf.proj(a) for a in total.carrier),
        )
    points = [
        (tuple_label(t), t + (w,))
        for w in base.carrier
        for t in itertools.product(sheaf.fiber(w), repeat=n)
    ]
    frame, legs = lift_points(f"({total.carrier.name}^{n})", [total] * n + [base], points)
    return FiberedPower(
        n=n,
        carrier=frame.carrier,
        frame=frame,
        proj_to_base=legs[n],
        component_projections=legs[:n],
        tuples=tuple(coords[:n] for _, coords in points),
        base_worlds=tuple(coords[n] for _, coords in points),
    )


class SheafModel:
    """A sheaf with interpretation tables for a first-order signature.

    Function symbols of arity n are maps from the n-th fibered power to
    the total frame that are monotone and fiber preserving; relation
    symbols of arity n are subsets of the n-th power carrier (arity 0:
    subsets of the base).  Both are validated at construction.
    """

    def __init__(
        self,
        sheaf: KripkeSheaf,
        signature: Signature,
        fn_interp: Mapping[str, FrameMap],
        rel_interp: Mapping[str, Subset],
    ):
        self.sheaf = sheaf
        self.signature = signature
        for name, arity in signature.function_symbols:
            if name not in fn_interp:
                raise UnknownSymbol(f"no interpretation for function symbol {name!r}")
            fm = fn_interp[name]
            power = self.power(arity)
            if fm.src != power.frame or fm.dst != sheaf.total:
                raise CarrierMismatch(
                    f"interpretation of {name!r} must map the {arity}-th power into the individuals"
                )
            if not is_monotone(fm):
                raise NotMonotone(f"interpretation of {name!r} is not monotone")
            worlds = compose(fm.fn, sheaf.proj.fn).rows
            for lbl, got, want in zip(power.carrier, worlds, power.proj_to_base.fn.rows):
                if got != want:
                    raise InvariantViolation(
                        f"interpretation of {name!r} is not fiber preserving at {lbl!r}"
                    )
        for name, arity in signature.relation_symbols:
            if name not in rel_interp:
                raise UnknownSymbol(f"no interpretation for relation symbol {name!r}")
            sub = rel_interp[name]
            power = self.power(arity)
            if sub.carrier != power.carrier:
                raise CarrierMismatch(
                    f"interpretation of {name!r} must be a subset of the {arity}-th power carrier"
                )
        self.fn_interp_map = {n: fn_interp[n] for n, _ in signature.function_symbols}
        self.rel_interp_map = {n: rel_interp[n] for n, _ in signature.relation_symbols}
        self._drops: Dict[int, Rel] = {}
        # updates built on this model; _Evaluator.build_update fills it
        self._updates: Dict[tuple, "SheafUpdate"] = {}

    def power(self, n: int) -> FiberedPower:
        return self.sheaf.power(n)

    def term_values(self, context: Tuple[str, ...], t: Term) -> Dict[str, str]:
        """Value of a term at every point of the context's power carrier."""
        power = self.power(len(context))
        if isinstance(t, Var):
            try:
                i = context.index(t.name)
            except ValueError:
                raise InvariantViolation(f"variable {t.name!r} not in context") from None
            if power.n == 1:
                return {lbl: lbl for lbl in power.carrier}
            return {lbl: power.tuple_of(lbl)[i] for lbl in power.carrier}
        if isinstance(t, Fun):
            arity = self.signature.fn_arity(t.name)
            if len(t.args) != arity:
                raise ArityMismatch(
                    f"function symbol {t.name!r} expects {arity} arguments, got {len(t.args)}"
                )
            fm = self.fn_interp_map[t.name]
            arg_values = [self.term_values(context, a) for a in t.args]
            arg_power = self.power(arity)
            out = {}
            for lbl in power.carrier:
                tup = tuple(v[lbl] for v in arg_values)
                arg_lbl = arg_power.label_for(power.world_of(lbl), tup)
                out[lbl] = fm(arg_lbl)
            return out
        raise InvariantViolation(f"unknown term node {type(t).__name__}")

    # The evaluator's per-layer interface (see models._Evaluator).

    def context_frame(self, n: int) -> KripkeFrame:
        return self.power(n).frame

    def leaf(self, context: Tuple[str, ...], phi: Formula) -> Subset:
        if not isinstance(phi, Pred):
            raise UnknownSymbol(
                f"{type(phi).__name__} node cannot be interpreted in a context"
            )
        power = self.power(len(context))
        carrier = power.carrier
        arity = self.signature.rel_arity(phi.name)
        if len(phi.args) != arity:
            raise ArityMismatch(
                f"relation symbol {phi.name!r} expects {arity} arguments, got {len(phi.args)}"
            )
        extension = self.rel_interp_map[phi.name]
        if arity == 0:
            # the points whose world lies in the extension
            mask = exists_image(power.proj_to_base.fn.rows, extension.mask)
            return _unchecked(Subset, carrier=carrier, mask=mask)
        arg_values = [self.term_values(context, t) for t in phi.args]
        arg_power = self.power(arity)
        members = extension.members
        mask, bit = 0, 1
        for lbl in carrier:
            tup = tuple(v[lbl] for v in arg_values)
            if arg_power.label_for(power.world_of(lbl), tup) in members:
                mask |= bit
            bit <<= 1
        return _unchecked(Subset, carrier=carrier, mask=mask)

    def drop_last_map(self, n: int) -> Rel:
        """Projection of the (n+1)-th power onto the n-th, dropping the last
        slot; built on first use and kept, with its rows."""
        if n not in self._drops:
            upper = self.power(n + 1)
            lower = self.power(n)
            index = lower.carrier.index
            rows = [
                1 << index[lower.label_for(w, tup[:-1])]
                for tup, w in zip(upper.tuples, upper.base_worlds)
            ]
            self._drops[n] = _rel(upper.carrier, lower.carrier, rows)
        return self._drops[n]

    def transition(self, upd: "SheafUpdate", n: int, e: str) -> Rel:
        return upd.transition(n, e)

    def build_update(self, ev: EventModel, ext: Callable[[Formula], Subset]) -> "SheafUpdate":
        """Pullback update, given the extension of a closed formula here."""
        sheaf = self.sheaf
        base = sheaf.base
        total = sheaf.total
        extents: Dict[str, Subset] = {}
        for e in ev.events:
            pre = ev.pre(e)
            open_vars = free_vars(pre)
            if open_vars:
                raise OpenPrecondition(
                    f"precondition of event {e!r} has free variables {sorted(open_vars)}"
                )
            extents[e] = ext(as_sentence(pre).body)
        world_masks = {e: s.mask for e, s in extents.items()}
        new_base, (p_x, p_e), world_parts, world_steps = updated_frame(base, ev.frame, world_masks)
        # the individuals over the extent of each event
        proj_rows = sheaf.proj.fn.rows
        pulled = {e: exists_image(proj_rows, m) for e, m in world_masks.items()}
        new_total, (p_d, _), ind_parts, ind_steps = updated_frame(total, ev.frame, pulled)
        proj_pairs = {
            lbl: pair_label(sheaf.proj(a), e) for lbl, (a, e) in ind_parts.items()
        }
        new_proj = FrameMap(
            new_total,
            new_base,
            function_from_mapping(new_total.carrier, new_base.carrier, proj_pairs),
        )
        new_sheaf = KripkeSheaf(new_total, new_base, new_proj)

        def split(n: int, lbl: str) -> Tuple[str, str]:
            return _split_label(self.power(n), new_sheaf.power(n), world_parts, ind_parts, lbl)

        fn_interp: Dict[str, FrameMap] = {}
        for name, arity in self.signature.function_symbols:
            old_fm = self.fn_interp_map[name]
            new_power = new_sheaf.power(arity)
            mapping = {}
            for lbl in new_power.carrier:
                old_lbl, e = split(arity, lbl)
                mapping[lbl] = pair_label(old_fm(old_lbl), e)
            fn_interp[name] = FrameMap(
                new_power.frame,
                new_total,
                function_from_mapping(new_power.carrier, new_total.carrier, mapping),
            )
        rel_interp: Dict[str, Subset] = {}
        for name, arity in self.signature.relation_symbols:
            old_members = self.rel_interp_map[name].members
            new_power = new_sheaf.power(arity)
            chosen = frozenset(
                lbl for lbl in new_power.carrier if split(arity, lbl)[0] in old_members
            )
            rel_interp[name] = Subset(new_power.carrier, chosen)
        return SheafUpdate(
            source=self,
            events=ev,
            updated=SheafModel(new_sheaf, self.signature, fn_interp, rel_interp),
            p_x=p_x,
            p_e=p_e,
            p_d=p_d,
            extents=extents,
            ind_parts=ind_parts,
            world_parts=world_parts,
            transitions={
                **{(0, e): r for e, r in world_steps.items()},
                **{(1, e): r for e, r in ind_steps.items()},
            },
        )


def _split_label(
    old_power: FiberedPower,
    new_power: FiberedPower,
    world_parts: Mapping[str, Tuple[str, str]],
    ind_parts: Mapping[str, Tuple[str, str]],
    label: str,
) -> Tuple[str, str]:
    """Split a label of an updated power into (old label, event)."""
    if new_power.n == 0:
        return world_parts[label]
    parts = [ind_parts[a] for a in new_power.tuple_of(label)]
    events = {e for _, e in parts}
    if len(events) != 1:
        raise InvariantViolation(f"updated tuple {label!r} mixes events")
    old_world, _ = world_parts[new_power.world_of(label)]
    return old_power.label_for(old_world, tuple(a for a, _ in parts)), next(iter(events))


class SheafUpdate:
    """Result of a pullback update: the new model plus all transition data.

    Worlds of the new base are pairs of an old world and an event; new
    individuals are pairs of an old individual and an event.  For each
    arity n and event e, transition(n, e) relates an old n-tuple to its
    updated copy when the tuple's world satisfies the event's
    precondition.
    """

    def __init__(
        self,
        source: "SheafModel",
        events: EventModel,
        updated: "SheafModel",
        p_x: FrameMap,
        p_e: FrameMap,
        p_d: FrameMap,
        extents: Mapping[str, Subset],
        ind_parts: Mapping[str, Tuple[str, str]],
        world_parts: Mapping[str, Tuple[str, str]],
        transitions: Optional[Mapping[Tuple[int, str], Rel]] = None,
    ):
        self.source = source
        self.events = events
        self.updated = updated
        self.p_x = p_x
        self.p_e = p_e
        self.p_d = p_d
        self.extents = dict(extents)
        self.ind_parts = dict(ind_parts)
        self.world_parts = dict(world_parts)
        self._transitions: Dict[Tuple[int, str], Rel] = dict(transitions or {})

    def with_source(self, source: Optional["SheafModel"]) -> "SheafUpdate":
        """The same update over another source object (None: no source),
        sharing its transitions as they are built."""
        other = copy.copy(self)
        other.source = source
        return other

    def decompose_power_label(self, n: int, label: str) -> Tuple[str, str]:
        """Split a label of the updated n-th power into (old label, event)."""
        return _split_label(
            self.source.power(n), self.updated.power(n), self.world_parts, self.ind_parts, label
        )

    def transition(self, n: int, e: str) -> Rel:
        """Relation from old n-tuples to their updated copies for one event."""
        if e not in self.events.events:
            raise UnknownEvent(f"event {e!r} not in event model")
        key = (n, e)
        if key not in self._transitions:
            old_power = self.source.power(n)
            new_power = self.updated.power(n)
            index = old_power.carrier.index
            rows = [0] * len(old_power.carrier)
            bit = 1
            for lbl in new_power.carrier:
                old_lbl, ev = self.decompose_power_label(n, lbl)
                if ev == e:
                    rows[index[old_lbl]] = bit
                bit <<= 1
            self._transitions[key] = _rel(old_power.carrier, new_power.carrier, rows)
        return self._transitions[key]

    def lift_map(self, f: FrameMap, m: int, n: int) -> FrameMap:
        """Pull a map between source powers back to the updated powers."""
        src_m = self.source.power(m)
        if f.src != src_m.frame or f.dst != self.source.power(n).frame:
            raise CarrierMismatch("lift_map: map does not connect the stated powers")
        new_m = self.updated.power(m)
        new_n = self.updated.power(n)
        mapping = {}
        for lbl in new_m.carrier:
            old_lbl, e = self.decompose_power_label(m, lbl)
            target_old = f(old_lbl)
            mapping[lbl] = self._recompose(n, target_old, e)
        return FrameMap(
            new_m.frame,
            new_n.frame,
            function_from_mapping(new_m.carrier, new_n.carrier, mapping),
        )

    def _recompose(self, n: int, old_label: str, e: str) -> str:
        old_power = self.source.power(n)
        new_power = self.updated.power(n)
        if n == 0:
            return pair_label(old_label, e)
        tup = old_power.tuple_of(old_label)
        new_tup = tuple(pair_label(a, e) for a in tup)
        old_world = old_power.world_of(old_label)
        return new_power.label_for(pair_label(old_world, e), new_tup)


def interp_term(
    model: SheafModel,
    term: TermInContext,
) -> FrameMap:
    """Denotation of a term in context: a map from the context's power."""
    power = model.power(len(term.context))
    values = model.term_values(term.context, term.term)
    return FrameMap(
        power.frame,
        model.sheaf.total,
        function_from_mapping(power.carrier, model.sheaf.total.carrier, values),
    )


def interp_formula(
    model: SheafModel,
    phi: FormulaInContext,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> Subset:
    """Extension of a formula in context over the context's power carrier.

    Event operators use the pullback updates kept on the model, so a later
    call on the same model object reuses them.
    """
    return _Evaluator(registry).ext(model, phi.context, phi.body)


def pullback_update(
    model: SheafModel,
    ev: EventModel,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> SheafUpdate:
    """Update a sheaf model by an event model with closed preconditions.

    The result is kept on the model under ``(ev, registry)``: a second call,
    or a query or reduction with an event operator resolving to ev under the
    same registry, returns the same object instead of building it again.
    """
    return _Evaluator(registry).build_update(model, ev)


def _substitution_routes(
    model: SheafModel,
    phi: FormulaInContext,
    terms: Sequence[TermInContext],
    reg: Mapping[str, EventModel],
    wrappers: Sequence[Tuple[str, Formula]],
) -> LawReport:
    """Compare the two routes from a formula to its substitution instance.

    For each wrapped formula, the syntactic substitution instance is
    interpreted directly over the terms' shared context and compared with
    the inverse image, along the tuple-of-terms map, of the unsubstituted
    interpretation over the formula's own context.
    """
    if len(terms) != len(phi.context):
        raise ArityMismatch("one substituting term per context variable required")
    out_context = terms[0].context if terms else ()
    for t in terms:
        if t.context != out_context:
            raise CarrierMismatch("substituting terms must share one context")
    evaluator = _Evaluator(reg)
    mapping = dict(zip(phi.context, [t.term for t in terms]))

    out_power = model.power(len(out_context))
    in_power = model.power(len(phi.context))
    value_maps = [model.term_values(out_context, t.term) for t in terms]

    def tuple_image(lbl: str) -> str:
        tup = tuple(v[lbl] for v in value_maps)
        return in_power.label_for(out_power.world_of(lbl), tup)

    checks: List[LawCheck] = []
    for name, wrapped in wrappers:
        substituted = substitute(wrapped, mapping)
        direct = evaluator.ext(model, out_context, substituted)
        inner = evaluator.ext(model, phi.context, wrapped)
        pulled = frozenset(
            lbl for lbl in out_power.carrier if tuple_image(lbl) in inner.members
        )
        if direct.members == pulled:
            checks.append(LawCheck(name, True))
        else:
            diff = sorted(direct.members.symmetric_difference(pulled))
            checks.append(LawCheck(name, False, witness=f"routes differ at {diff}"))
    return LawReport(tuple(checks))


def check_substitution_functoriality(
    model: SheafModel,
    phi: FormulaInContext,
    terms: Sequence[TermInContext],
    registry: Optional[Mapping[str, EventModel]] = None,
) -> LawReport:
    """Substituting into a formula equals pulling back its extension.

    The extension of the substitution instance, read over the terms'
    shared context, is the inverse image of the formula's extension along
    the tuple-of-terms map.
    """
    return _substitution_routes(
        model, phi, terms, dict(registry or {}), [("substitution", phi.body)]
    )


def check_substitution_box_commutation(
    model: SheafModel,
    phi: FormulaInContext,
    terms: Sequence[TermInContext],
    ev: Optional[EventModel] = None,
    event: Optional[str] = None,
    registry: Optional[Mapping[str, EventModel]] = None,
    ref: str = "_update",
) -> LawReport:
    """Substituting then applying a modality equals the inverse-image route.

    For each modality (boxes and diamonds per agent, and the event
    operators when an event model is supplied) the syntactic substitution
    instance is interpreted directly and compared with the inverse image,
    along the tuple-of-terms map, of the unsubstituted interpretation.
    """
    reg = dict(registry or {})
    if ev is not None:
        reg[ref] = ev
    wrappers: List[Tuple[str, Formula]] = []
    for a in model.sheaf.base.agents:
        wrappers.append((f"box[{a}]", Box(a, phi.body)))
        wrappers.append((f"dia[{a}]", Dia(a, phi.body)))
    if ev is not None and event is not None:
        wrappers.append((f"event-box[{event}]", DelBox(ref, event, phi.body)))
        wrappers.append((f"event-dia[{event}]", DelDia(ref, event, phi.body)))
    return _substitution_routes(model, phi, terms, reg, wrappers)


def check_transition_commutation(
    upd: SheafUpdate, f: FrameMap, m: int, n: int
) -> LawReport:
    """Transition relations commute with maps between fibered powers.

    For a map between the m-th and n-th powers of the source, following
    the m-th transition of an event and then the updated copy of the map
    is the same relation as following the map and then the n-th
    transition; dually, the n-th transition followed by the dagger of the
    updated copy equals the dagger of the map followed by the m-th
    transition.
    """
    lifted = upd.lift_map(f, m, n)
    lifted_ok = is_monotone(lifted)
    checks: List[LawCheck] = [
        LawCheck(
            "lifted map monotone",
            lifted_ok,
            witness=None if lifted_ok else f"{m}->{n}",
        )
    ]
    for e in upd.events.events:
        checks.append(
            _relation_check(
                f"transition squares with map [{e}]",
                compose(upd.transition(m, e), lifted.fn),
                compose(f.fn, upd.transition(n, e)),
            )
        )
        checks.append(
            _relation_check(
                f"transition squares with dagger [{e}]",
                compose(upd.transition(n, e), dagger(lifted.fn)),
                compose(dagger(f.fn), upd.transition(m, e)),
            )
        )
    return LawReport(tuple(checks))


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
    reg = dict(registry or {})
    reg[ref] = ev
    evaluator = _Evaluator(reg)
    outer = phi.context[:-1]
    y = phi.context[-1]
    checks: List[LawCheck] = []
    for name, quantifier, operator in (
        ("box-forall", Forall, DelBox),
        ("dia-exists", Exists, DelDia),
    ):
        lhs = evaluator.ext(model, outer, operator(ref, event, quantifier(y, phi.body)))
        rhs = evaluator.ext(model, outer, quantifier(y, operator(ref, event, phi.body)))
        if lhs == rhs:
            checks.append(LawCheck(name, True))
        else:
            diff = sorted(lhs.members.symmetric_difference(rhs.members))
            checks.append(LawCheck(name, False, witness=f"sides differ at {diff}"))
    return LawReport(tuple(checks))
