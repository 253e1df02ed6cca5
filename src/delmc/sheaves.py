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
the coordinate projections between powers, and its pullback update.  One
kept projection (``SheafModel.projection``) serves weakening and the
quantifiers, which are the two adjoints of pulling back along it.
Every mask is pulled back along a function by ``rel.preimage`` on its
code: weakening along a projection, a predicate along its argument
points or an update's point map, and the monotonicity check along a
function table.  A subformula is computed over the power of its own
free variables, kept in context order, and pulled back to the context
asked for; a quantifier takes its image along the projection dropping
its variable.  So a formula builds the power of only the variables that
it uses, and contexts that differ only in names share one projection.
Fibered powers depend only on the sheaf, which builds each one once
(``KripkeSheaf.power``, which ``fibered_power`` returns), and raises
CapExceeded before building one of more than ``MAX_POWER_CARRIER``
points; pullback updates are kept on the sheaf model they update, by the
event model and its preconditions' extents, so queries, reductions and
``pullback_update`` on one model share them.

Updating by an event model with closed preconditions pulls the whole
structure back: worlds, individuals, interpretation tables.  The update of
a sheaf model is again a sheaf model.  It is built trusted, like every
kernel result; ``check_pullback_update`` re-proves the sheaf conditions
and the tables, and the ``sheaf`` law suite runs it on every case.  The
quantifier reduction law reads the axiom table, so its check
(``verify_quantifier_reduction``) lives beside it in ``reduction``.

Points carry their structure as indices.  A point of a fibered power is a
tuple of individuals over a world, read off the power's legs; a point of
an updated power is an old point under an event, read off the update's
projections.  Terms evaluate to individual indices, predicates and
function tables are looked up by point index, and transitions, projections
and updated tables are built from these indices.  Carrier labels such as
"((a,e1),(b,e1))" are made for output only (dumps, the command line) and
are never parsed back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ArityMismatch,
    CapExceeded,
    CarrierMismatch,
    DelmcError,
    InvariantViolation,
    NotAFunction,
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
from .frames import (
    FrameMap,
    KripkeFrame,
    fibered_pairs,
    identity_map,
    image_indices,
    is_bounded,
    is_monotone,
    lift_pairs,
    lift_points,
)
from .frozen import Frozen
from .models import (
    EventModel,
    LawCheck,
    LawReport,
    _Evaluator,
    _relation_check,
    updated_frame,
)
from .powerset import Subset, _subset
from .rel import (
    FiniteSet,
    Rel,
    _rel,
    _unchecked,
    bit_flags,
    compose,
    dagger,
    function_code,
    preimage,
    union_of,
)


@dataclass(init=False, repr=False, eq=False)
class Signature(Frozen):
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


@dataclass(init=False, repr=False, eq=False)
class SheafCheck(Frozen):
    """Diagnostics from checking the sheaf conditions on a projection.

    failure names the first failed condition, with a witness.
    """

    is_sheaf: bool
    failure: Optional[str]
    surjective: bool
    bounded: bool
    unique_lift: bool


@dataclass(init=False, repr=False, eq=False)
class DiagonalCheck(Frozen):
    """The diagonal characterization of a sheaf, against the direct one.

    delta_bounded: whether the diagonal into the binary fibered power of
    the projection is bounded.  agrees: whether a bounded projection with
    unique lifts is exactly a bounded projection with a bounded diagonal.
    """

    delta_bounded: bool
    agrees: bool


def _unique_lift_witness(total: KripkeFrame, proj_fn: Rel) -> Optional[Tuple[str, str, str, str]]:
    """The first agent, individual and two of its successors over one world."""
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
    """The three direct sheaf conditions, then the first failure or None.

    One pass per agent over the total relation's rows, with no composite
    built: a point's successors pushed down to their worlds (``img``) must
    be the base row at its world (bounded), and must be as many worlds as
    there are successors (unique lifts).  A failure is worded by a second
    walk, ``_unique_lift_witness`` for unique lifts.
    """
    if proj.src != total or proj.dst != base:
        raise CarrierMismatch("is_kripke_sheaf: projection does not connect the two frames")
    over = proj.fn.pred_rows  # the individuals over each world
    surjective = all(over)
    bounded = unique = True
    pi = proj.fn.rows  # one bit per individual: its world
    worlds = image_indices(proj)
    for agent in total.agents:
        steps = base.rel(agent).rows
        for row, w in zip(total.rel(agent).rows, worlds):
            img = union_of(pi, row)
            if img != steps[w]:
                bounded = False
            if img.bit_count() != row.bit_count():
                unique = False
    failure = None
    if not surjective:
        missing = min(w for w, m in zip(base.carrier.elements, over) if not m)
        failure = f"projection not surjective: no individual over {missing!r}"
    elif not bounded:
        failure = "projection not a bounded morphism"
    elif not unique:
        agent, a, b, b2 = _unique_lift_witness(total, proj.fn)
        failure = f"unique-lift condition fails (agent {agent!r}): witness {a},{b},{b2}"
    return surjective, bounded, unique, failure


def is_kripke_sheaf(total: KripkeFrame, base: KripkeFrame, proj: FrameMap) -> SheafCheck:
    """Check the three sheaf conditions and name the first failure.

    The diagonal characterization of the same conditions is a separate
    cross-check, ``check_diagonal_characterization``, which the ``sheaf``
    law suite and ``delmc sheaf-check`` run.
    """
    surjective, bounded, unique, failure = _sheaf_conditions(total, base, proj)
    return SheafCheck(
        is_sheaf=failure is None,
        failure=failure,
        surjective=surjective,
        bounded=bounded,
        unique_lift=unique,
    )


def check_diagonal_characterization(
    total: KripkeFrame, base: KripkeFrame, proj: FrameMap
) -> DiagonalCheck:
    """Evaluate the diagonal characterization independently of the direct one.

    The projection together with the diagonal into its binary fibered
    power, built with no sheaf assumptions, must be bounded exactly when
    the projection is bounded with unique lifts.
    """
    _, bounded, unique, _ = _sheaf_conditions(total, base, proj)
    pairs = fibered_pairs(proj, proj)
    square_frame, _ = lift_pairs(f"({total.carrier.name}^2)", total, total, pairs)
    diag = [0] * len(total.carrier)
    for p, (a, b) in enumerate(pairs):
        if a == b:
            diag[a] = 1 << p
    delta_bounded = is_bounded(
        FrameMap(total, square_frame, _rel(total.carrier, square_frame.carrier, diag))
    )
    return DiagonalCheck(
        delta_bounded=delta_bounded,
        agrees=(bounded and unique) == (bounded and delta_bounded),
    )


@dataclass(init=False, repr=False, eq=False)
class KripkeSheaf(Frozen):
    """A validated sheaf: surjective bounded projection with unique lifts."""

    total: KripkeFrame
    base: KripkeFrame
    proj: FrameMap

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

    @cached_property
    def _powers(self) -> Dict[int, "FiberedPower"]:
        """The fibered powers built so far, by exponent."""
        return {}

    def power(self, n: int) -> "FiberedPower":
        """The n-th fibered power, built on first use and kept."""
        power = self._powers.get(n)
        if power is None:
            power = self._powers[n] = _build_power(self, n)
        return power


@dataclass(init=False, repr=False, eq=False)
class FiberedPower(Frozen):
    """The n-th fibered power of a sheaf projection.

    A point is an n-tuple of individuals over a common world; the frame is
    the initial lift of the component projections together with the
    projection to the base, so tuples step exactly when all components
    step.  n = 0 is the base itself with the identity, n = 1 is the total
    frame with the projection.

    A point carries its structure as indices read off those legs' rows:
    ``coords`` its individuals (indices in the total carrier), ``worlds``
    its world (an index in the base carrier), and ``point_of`` finds a
    point of a positive power from its coordinates.  Carrier labels such
    as "(a,b)" are for output only; ``tuple_of`` and ``world_of`` read a
    label's point back by name.
    """

    n: int
    carrier: FiniteSet
    frame: KripkeFrame
    proj_to_base: FrameMap
    component_projections: Tuple[FrameMap, ...]

    @cached_property
    def coords(self) -> Tuple[Tuple[int, ...], ...]:
        if not self.n:
            return ((),) * len(self.carrier)
        return tuple(zip(*map(image_indices, self.component_projections)))

    @cached_property
    def worlds(self) -> List[int]:
        return image_indices(self.proj_to_base)

    @cached_property
    def point_of(self) -> Dict[Tuple[int, ...], int]:
        return {c: i for i, c in enumerate(self.coords)}

    def points(self, worlds: Sequence[int], tuples: Iterable[Tuple[int, ...]]) -> List[int]:
        """The point over each world with each tuple of coordinates: the
        world itself for n = 0, which has no coordinates."""
        if not self.n:
            return list(worlds)
        point_of = self.point_of
        return [point_of[t] for t in tuples]

    def tuple_of(self, label: str) -> Tuple[str, ...]:
        names = self.component_projections[0].dst.carrier.elements if self.n else ()
        return tuple(names[c] for c in self.coords[self.carrier.index[label]])

    def world_of(self, label: str) -> str:
        return self.proj_to_base.dst.carrier.elements[self.worlds[self.carrier.index[label]]]


# The largest fibered power a sheaf builds.  A context of n variables needs
# the n-th power, whose size grows as the n-th power of the fibers; past this
# size fibered_power raises CapExceeded instead of exhausting memory.
MAX_POWER_CARRIER = 10_000


def fibered_power(sheaf: KripkeSheaf, n: int) -> FiberedPower:
    """The n-th fibered power: per world in base order, the n-tuples of its
    fiber in lexicographic order, labelled "(a,b,...)".

    The sheaf builds each power once and keeps it, so this is
    ``sheaf.power(n)``, shared with the loader, the evaluator and updates.
    Raises CapExceeded, before building anything, when the points would
    number more than MAX_POWER_CARRIER.
    """
    return sheaf.power(n)


def _build_power(sheaf: KripkeSheaf, n: int) -> FiberedPower:
    """Build the n-th fibered power (see ``fibered_power``)."""
    if n < 0:
        raise InvariantViolation("fibered_power: negative arity")
    base = sheaf.base
    total = sheaf.total
    if n == 0:
        return FiberedPower(0, base.carrier, base, identity_map(base), ())
    if n == 1:
        return FiberedPower(1, total.carrier, total, sheaf.proj, (identity_map(total),))
    individuals = range(len(total.carrier))
    fibers = [list(compress(individuals, bit_flags(m))) for m in sheaf.proj.fn.pred_rows]
    size = sum(len(f) ** n for f in fibers)
    if size > MAX_POWER_CARRIER:
        raise CapExceeded(
            f"fibered power {n} would build {size} points, above the cap of {MAX_POWER_CARRIER}"
        )
    coords = [t for f in fibers for t in itertools.product(f, repeat=n)]
    worlds = [w for w, f in enumerate(fibers) for _ in range(len(f) ** n)]
    names = total.carrier.elements
    # the same tuples again, of names: each point's label
    named = [[names[i] for i in f] for f in fibers]
    frame, legs = lift_points(
        f"({total.carrier.name}^{n})",
        [total] * n + [base],
        [f"({','.join(t)})" for f in named for t in itertools.product(f, repeat=n)],
        [[t[k] for t in coords] for k in range(n)] + [worlds],
    )
    power = FiberedPower(n, frame.carrier, frame, legs[n], legs[:n])
    # the points' structure is known here; the legs' rows agree with it
    power.__dict__.update(coords=tuple(coords), worlds=worlds)
    return power


def _function_fault(
    name: str, arity: int, fm: FrameMap, sheaf: KripkeSheaf
) -> Optional[DelmcError]:
    """Why fm cannot interpret an arity-ary function symbol over the sheaf,
    naming the first bad point, or None when it can: it must be a
    function from the arity-th power into the individuals, monotone and
    fiber preserving."""
    power = sheaf.power(arity)
    if fm.src != power.frame or fm.dst != sheaf.total:
        return CarrierMismatch(
            f"interpretation of {name!r} must map the {arity}-th power into the individuals"
        )
    labels = power.carrier.elements
    for lbl, m in zip(labels, fm.fn.rows):
        if not m or m & (m - 1):
            return NotAFunction(f"interpretation of {name!r} is not a function at {lbl!r}")
    values = image_indices(fm)
    code = fm.fn.code
    for a in fm.src.agents:
        # monotone (``is_monotone``, read from the target side): a point's
        # successors take values among its value's successors.  Each target
        # row is pulled back once along the code, to the points whose values
        # it holds, so a source row costs one AND and the first bad point is
        # named; the tests name the same point from ``compose(R, f)``
        allowed = [preimage(code, step) for step in fm.dst.rel(a).rows]
        for lbl, row, v in zip(labels, fm.src.rel(a).rows, values):
            if row & ~allowed[v]:
                return NotMonotone(
                    f"interpretation of {name!r} is not monotone at {lbl!r} (agent {a!r})"
                )
    worlds = sheaf.proj.fn.rows
    for lbl, v, want in zip(labels, values, power.proj_to_base.fn.rows):
        if worlds[v] != want:
            return InvariantViolation(
                f"interpretation of {name!r} is not fiber preserving at {lbl!r}"
            )
    return None


def _predicate_fault(
    name: str, arity: int, sub: Subset, sheaf: KripkeSheaf
) -> Optional[DelmcError]:
    """Why sub cannot interpret an arity-ary relation symbol, or None."""
    if sub.carrier != sheaf.power(arity).carrier:
        return CarrierMismatch(
            f"interpretation of {name!r} must be a subset of the {arity}-th power carrier"
        )
    return None


class SheafModel:
    """A sheaf with interpretation tables for a first-order signature.

    Function symbols of arity n are maps from the n-th fibered power to
    the total frame that are monotone and fiber preserving; relation
    symbols of arity n are subsets of the n-th power carrier (arity 0:
    subsets of the base).  Both are validated at construction.  A
    pullback update builds its result with ``_unchecked`` instead, and
    ``check_pullback_update`` proves the same conditions of it.
    """

    def __init__(
        self,
        sheaf: KripkeSheaf,
        signature: Signature,
        fn_interp: Mapping[str, FrameMap],
        rel_interp: Mapping[str, Subset],
    ):
        for name, arity in signature.function_symbols:
            if name not in fn_interp:
                raise UnknownSymbol(f"no interpretation for function symbol {name!r}")
            fault = _function_fault(name, arity, fn_interp[name], sheaf)
            if fault is not None:
                raise fault
        for name, arity in signature.relation_symbols:
            if name not in rel_interp:
                raise UnknownSymbol(f"no interpretation for relation symbol {name!r}")
            fault = _predicate_fault(name, arity, rel_interp[name], sheaf)
            if fault is not None:
                raise fault
        self.sheaf = sheaf
        self.signature = signature
        self.fn_interp_map = {n: fn_interp[n] for n, _ in signature.function_symbols}
        self.rel_interp_map = {n: rel_interp[n] for n, _ in signature.relation_symbols}
        # coordinate projections, by context length and the positions kept
        self._projections: Dict[Tuple[int, Tuple[int, ...]], Rel] = {}
        # updates built on this model, keyed by extents; the evaluator fills it
        self._updates: Dict[tuple, "SheafUpdate"] = {}

    def power(self, n: int) -> FiberedPower:
        return self.sheaf.power(n)

    def term_indices(self, context: Tuple[str, ...], t: Term) -> List[int]:
        """Value of a term at each point of the context's power, as an index
        in the total carrier."""
        power = self.power(len(context))
        if isinstance(t, Var):
            try:
                i = context.index(t.name)
            except ValueError:
                raise InvariantViolation(f"variable {t.name!r} not in context") from None
            return [c[i] for c in power.coords]
        if isinstance(t, Fun):
            arity = self.signature.fn_arity(t.name)
            if len(t.args) != arity:
                raise ArityMismatch(
                    f"function symbol {t.name!r} expects {arity} arguments, got {len(t.args)}"
                )
            rows = self.fn_interp_map[t.name].fn.rows
            return [rows[p].bit_length() - 1 for p in self.arg_points(context, t.args)]
        raise InvariantViolation(f"unknown term node {type(t).__name__}")

    def arg_points(self, context: Tuple[str, ...], args: Sequence[Term]) -> List[int]:
        """At each point of the context's power, the point of the
        len(args)-th power that the argument terms take it to."""
        values = [self.term_indices(context, a) for a in args]
        return self.power(len(args)).points(self.power(len(context)).worlds, zip(*values))

    # The evaluator's per-layer interface (see models._Evaluator).

    def context_frame(self, n: int) -> KripkeFrame:
        return self.power(n).frame

    def leaf(self, context: Tuple[str, ...], phi: Formula) -> Subset:
        if not isinstance(phi, Pred):
            raise UnknownSymbol(
                f"{type(phi).__name__} node cannot be interpreted in a context"
            )
        arity = self.signature.rel_arity(phi.name)
        if len(phi.args) != arity:
            raise ArityMismatch(
                f"relation symbol {phi.name!r} expects {arity} arguments, got {len(phi.args)}"
            )
        if not context and not arity:
            return self.rel_interp_map[phi.name]  # the empty context's points are the worlds
        # the preimage along the argument points (arity 0: the worlds)
        code = function_code(self.arg_points(context, phi.args), len(self.power(arity).carrier))
        mask = preimage(code, self.rel_interp_map[phi.name].mask)
        return _subset(self.power(len(context)).carrier, mask)

    def projection(self, context: Tuple[str, ...], own: Tuple[str, ...]) -> Rel:
        """The coordinate projection from the power of ``context`` onto the
        power of ``own``, a subsequence of it: the map that the variables
        of ``own`` induce, as a function relation that keeps its
        ``function_code``, so weakening's preimage builds no transpose.
        Built on first use and kept by the context's length and the
        positions kept, so it is shared across variable names."""
        key = (len(context), tuple(map(context.index, own)))
        hit = self._projections.get(key)
        if hit is None:
            lower = self.power(len(own)).carrier
            points = self.arg_points(context, tuple(map(Var, own)))
            hit = self._projections[key] = _rel(
                self.power(len(context)).carrier, lower, [1 << p for p in points]
            )
            hit.__dict__["code"] = function_code(points, len(lower))
        return hit

    def transition(self, upd: "SheafUpdate", n: int, e: str) -> Rel:
        return upd.transition(n, e)

    @staticmethod
    @lru_cache(maxsize=1024)
    def sentence(pre: Formula, e: str) -> Formula:
        """Event e's precondition, atoms folded into 0-ary predicates; it must
        have no free variable.  Kept per formula: every update lookup reads it."""
        open_vars = free_vars(pre)
        if open_vars:
            raise OpenPrecondition(
                f"precondition of event {e!r} has free variables {sorted(open_vars)}"
            )
        return as_sentence(pre).body

    def build_update(self, ev: EventModel, extents: Tuple[int, ...]) -> "SheafUpdate":
        """Pullback update, given each event's precondition extent as a mask."""
        sheaf = self.sheaf
        world_masks = dict(zip(ev.events, extents))
        new_base, (p_x, p_e), world_steps = updated_frame(sheaf.base, ev.frame, world_masks)
        # the individuals over the extent of each event
        code = sheaf.proj.fn.code
        pulled = {e: preimage(code, m) for e, m in world_masks.items()}
        new_total, (p_d, p_de), ind_steps = updated_frame(sheaf.total, ev.frame, pulled)
        parts = {
            0: (image_indices(p_x), image_indices(p_e)),
            1: (image_indices(p_d), image_indices(p_de)),
        }
        # (a, e) lies over (proj(a), e), the copy of proj(a) under e
        events = ev.events
        world_rows = [world_steps[e].rows for e in events]
        ind_rows = [ind_steps[e].rows for e in events]
        pi = self.power(1).worlds
        # the result is built trusted; check_pullback_update re-proves it
        new_proj = _unchecked(FrameMap, src=new_total, dst=new_base, fn=_rel(
            new_total.carrier, new_base.carrier,
            [world_rows[k][pi[a]] for a, k in zip(*parts[1])],
        ))
        new_sheaf = _unchecked(KripkeSheaf, total=new_total, base=new_base, proj=new_proj)

        fn_interp: Dict[str, FrameMap] = {}
        for name, arity in self.signature.function_symbols:
            # the value at (t, e) is the copy under e of the value at t
            values = image_indices(self.fn_interp_map[name])
            old_points, point_events = _updated_parts(parts, arity, sheaf, new_sheaf)
            new_power = new_sheaf.power(arity)
            fn_interp[name] = _unchecked(FrameMap, src=new_power.frame, dst=new_total, fn=_rel(
                new_power.carrier, new_total.carrier,
                [ind_rows[k][values[t]] for t, k in zip(old_points, point_events)],
            ))
        rel_interp: Dict[str, Subset] = {}
        for name, arity in self.signature.relation_symbols:
            old_points, _ = _updated_parts(parts, arity, sheaf, new_sheaf)
            code = function_code(old_points, len(sheaf.power(arity).carrier))
            rel_interp[name] = _subset(
                new_sheaf.power(arity).carrier, preimage(code, self.rel_interp_map[name].mask)
            )
        updated = _unchecked(
            SheafModel,
            sheaf=new_sheaf,
            signature=self.signature,
            fn_interp_map=fn_interp,
            rel_interp_map=rel_interp,
            _projections={},
            _updates={},
        )
        return SheafUpdate(
            source=sheaf,
            events=ev,
            updated=updated,
            p_x=p_x,
            p_e=p_e,
            p_d=p_d,
            extents={e: _subset(sheaf.base.carrier, m) for e, m in world_masks.items()},
            parts=parts,
            transitions={
                **{(0, e): r for e, r in world_steps.items()},
                **{(1, e): r for e, r in ind_steps.items()},
            },
        )


def _updated_parts(
    parts: Dict[int, Tuple[List[int], List[int]]],
    n: int,
    old: KripkeSheaf,
    new: KripkeSheaf,
) -> Tuple[List[int], List[int]]:
    """The (old point, event) of each point of the updated n-th power, as
    indices; parts holds n = 0 and 1, read off the update's legs, and keeps
    each n >= 2 once built.  An updated tuple ((a1,e), ..., (an,e)) is the
    old tuple (a1, ..., an) under e."""
    if n not in parts:
        d_old, d_ev = parts[1]
        point_of = old.power(n).point_of
        coords = new.power(n).coords
        parts[n] = (
            [point_of[tuple(map(d_old.__getitem__, t))] for t in coords],
            [d_ev[t[0]] for t in coords],
        )
    return parts[n]


class SheafUpdate:
    """Result of a pullback update: the new model plus all transition data.

    Worlds of the new base are pairs of an old world and an event; new
    individuals are pairs of an old individual and an event; ``source``
    is the sheaf updated, not its model.  A point of an updated power is
    an old point under an event; ``parts(n)`` gives each one's (old
    point, event) as indices (in the source's n-th power and the event
    carrier), read off the update's projections ``p_x``, ``p_e``, ``p_d``
    and the individuals' event leg, never off a label; n = 0 gives the
    worlds' and n = 1 the individuals'.  For each arity n
    and event e, transition(n, e) relates an old n-tuple to its updated
    copy when the tuple's world satisfies the event's precondition.
    """

    def __init__(
        self,
        source: KripkeSheaf,
        events: EventModel,
        updated: "SheafModel",
        p_x: FrameMap,
        p_e: FrameMap,
        p_d: FrameMap,
        extents: Mapping[str, Subset],
        parts: Dict[int, Tuple[List[int], List[int]]],
        transitions: Optional[Mapping[Tuple[int, str], Rel]] = None,
    ):
        self.source = source
        self.events = events
        self.updated = updated
        self.p_x = p_x
        self.p_e = p_e
        self.p_d = p_d
        self.extents = dict(extents)
        self._parts = parts
        self._transitions: Dict[Tuple[int, str], Rel] = dict(transitions or {})

    def parts(self, n: int) -> Tuple[List[int], List[int]]:
        """Per point of the updated n-th power, its old point and its event,
        as indices; built once per n."""
        return _updated_parts(self._parts, n, self.source, self.updated.sheaf)

    def transition(self, n: int, e: str) -> Rel:
        """Relation from old n-tuples to their updated copies for one event;
        the first call for an n builds those of every event."""
        if e not in self.events.events:
            raise UnknownEvent(f"event {e!r} not in event model")
        if (n, e) not in self._transitions:
            old_carrier = self.source.power(n).carrier
            new_carrier = self.updated.power(n).carrier
            events = self.events.events
            rows = [[0] * len(old_carrier) for _ in events]
            bit = 1
            for t, k in zip(*self.parts(n)):
                rows[k][t] = bit
                bit <<= 1
            for name, r in zip(events, rows):
                self._transitions[(n, name)] = _rel(old_carrier, new_carrier, r)
        return self._transitions[(n, e)]

    def lift_map(self, f: FrameMap, m: int, n: int) -> FrameMap:
        """Pull a map between source powers back to the updated powers: the
        copy of t under e goes to the copy of f(t) under e."""
        if f.src != self.source.power(m).frame or f.dst != self.source.power(n).frame:
            raise CarrierMismatch("lift_map: map does not connect the stated powers")
        new_m = self.updated.power(m)
        new_n = self.updated.power(n)
        values = image_indices(f)
        steps = [self.transition(n, e).rows for e in self.events.events]
        return FrameMap(new_m.frame, new_n.frame, _rel(
            new_m.carrier, new_n.carrier,
            [steps[k][values[t]] for t, k in zip(*self.parts(m))],
        ))


def interp_term(
    model: SheafModel,
    term: TermInContext,
) -> FrameMap:
    """Denotation of a term in context: a map from the context's power."""
    power = model.power(len(term.context))
    total = model.sheaf.total
    rows = [1 << i for i in model.term_indices(term.context, term.term)]
    return FrameMap(power.frame, total, _rel(power.carrier, total.carrier, rows))


def interp_formula(
    model: SheafModel,
    phi: FormulaInContext,
    registry: Optional[Mapping[str, EventModel]] = None,
) -> Subset:
    """Extension of a formula in context over the context's power carrier.

    Each subformula is computed over the power of its own free variables
    and weakened to its context by pullback, so a variable that the
    formula does not use costs no larger power than the context itself.
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

    The result is kept on the model under ev and its preconditions'
    extents: a second call, or a query or reduction whose event operator
    resolves to ev with those extents, returns the same object.
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

    carrier = model.power(len(out_context)).carrier
    points = model.arg_points(out_context, [t.term for t in terms])
    code = function_code(points, len(model.power(len(phi.context)).carrier))

    checks: List[LawCheck] = []
    for name, wrapped in wrappers:
        substituted = substitute(wrapped, mapping)
        direct = evaluator.mask(model, out_context, substituted)
        pulled = preimage(code, evaluator.mask(model, phi.context, wrapped))
        if direct == pulled:
            checks.append(LawCheck(name, True))
        else:
            diff = carrier.names(direct ^ pulled)
            checks.append(LawCheck(name, False, witness=f"routes differ at {sorted(diff)}"))
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


def check_pullback_update(upd: SheafUpdate) -> LawReport:
    """The updated model satisfies what its constructors would have checked.

    ``build_update`` builds its result trusted; this re-proves it: the
    updated projection is a function, the updated structure meets the
    three sheaf conditions, and each updated function table is a monotone,
    fiber-preserving function on its power, each predicate a subset of
    its power.  A failed check names the first bad point; when the
    projection is no function, nothing further is checked.
    """
    model = upd.updated
    sheaf = model.sheaf
    over = [(a, m.bit_count()) for a, m in zip(sheaf.total.carrier, sheaf.proj.fn.rows)]
    bad = [f"{a!r} lies over {k} worlds" for a, k in over if k != 1]
    checks = [LawCheck("projection is a function", not bad, witness=bad[0] if bad else None)]
    if bad:  # the other checks read the projection as a function
        return LawReport(tuple(checks))
    failure = _sheaf_conditions(sheaf.total, sheaf.base, sheaf.proj)[-1]
    checks.append(LawCheck("updated structure is a sheaf", failure is None, witness=failure))
    tables = model.fn_interp_map
    faults = [
        (f"function table {name!r}", _function_fault(name, arity, tables[name], sheaf))
        for name, arity in model.signature.function_symbols
    ]
    predicates = model.rel_interp_map
    faults += [
        (f"predicate {name!r}", _predicate_fault(name, arity, predicates[name], sheaf))
        for name, arity in model.signature.relation_symbols
    ]
    for name, fault in faults:
        checks.append(LawCheck(name, fault is None, witness=fault and str(fault)))
    return LawReport(tuple(checks))
