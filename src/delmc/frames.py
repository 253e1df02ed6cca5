"""Multi-agent Kripke frames, their maps, and limit-style constructions.

A frame is a carrier with one accessibility relation per agent.  Maps
between frames are functions on carriers; the monotone ones only preserve
steps forward, the bounded ones reflect them too.  Products, subframes,
pullbacks, product updates and fibered powers are all built the same way,
by one builder, ``lift_points``: fix a carrier of points, each mapped to a
family of target frames, and equip it with the coarsest relations making
those maps monotone (the initial lift), where a point steps to another
exactly when every coordinate steps.  ``initial_lift`` computes the same
lift of a given family of functions.

The lift is defined agent by agent, so a lifted frame builds an agent's
relation the first time ``rel`` reads it, and keeps it.  A relation no
one reads is never built: a modal-free formula evaluated on a submodel,
for one, reads only its valuation.  A frame's hash is that of its
carrier and agents, so keying a memo by a lifted frame builds nothing;
equality compares the relations, building them if it must.

Points are given by index columns: column k holds, for each point in
carrier order, the index of its k-th coordinate in the k-th target's
carrier.  Each construction passes the indices it already holds, and
the labels it makes from them, so no name is looked up again.  The lift
works column by column on masks: each column is also kept as a byte
code (``rel.function_code``), and what a point reaches is a preimage
along it, read off by translation (see ``_lift_rel``).  The legs keep
their columns' codes, so a preimage along a leg, such as an updated
valuation, builds no code of its own.  The one colimit-style operation
exposed is the common-knowledge relation of a group of agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import compress
from operator import and_
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    AgentMismatch,
    CarrierMismatch,
    CodomainMismatch,
    EmptyGroup,
    InvariantViolation,
    NotAFunction,
    NotMonotone,
    UnknownAgent,
)
from .frozen import Frozen
from .powerset import Subset
from .rel import (
    FiniteSet,
    Rel,
    _rel,
    _unchecked,
    apply_function,
    bit_flags,
    closure_reflexive_transitive,
    compose,
    function_code,
    function_from_mapping,
    identity,
    is_function_pointwise,
    join,
    leq,
    pair_label,
    preimage,
    tabulate,
    union_of,
)


@dataclass(init=False, repr=False, eq=False)
class AgentSet(Frozen):
    """Named agents in a fixed order."""

    agents: Tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.agents, tuple):
            object.__setattr__(self, "agents", tuple(self.agents))
        if len(set(self.agents)) != len(self.agents):
            raise InvariantViolation("duplicate agent name")

    def __iter__(self):
        return iter(self.agents)

    def __len__(self):
        return len(self.agents)

    def __contains__(self, a: object) -> bool:
        return a in self.agents

    def same_names(self, other: "AgentSet") -> bool:
        """The same agents by name, in any order: relations are read by name."""
        return self.agents == other.agents or set(self.agents) == set(other.agents)


@dataclass(init=False, repr=False, eq=False)
class KripkeFrame(Frozen):
    """A carrier with one accessibility relation per agent.

    ``KripkeFrame(carrier, agents, relations)`` and ``make`` take every
    relation up front and check it.  A lifted frame (see ``_lift``) holds
    instead a builder, which makes an agent's relation on its first read
    through ``rel``; the frame keeps it after that.  The builder holds the
    lift's targets and columns, never the frame, so a frame is freed by
    reference counting alone.  The hash reads the carrier and agents
    only; equality also compares each agent's relation.
    """

    carrier: FiniteSet
    agents: AgentSet

    def __init__(self, carrier: FiniteSet, agents: AgentSet, relations: Sequence[Rel]):
        if len(relations) != len(agents):
            raise InvariantViolation("one relation per agent required")
        for r in relations:
            if r.dom != carrier or r.cod != carrier:
                raise InvariantViolation(
                    f"relation carrier {r.dom.name!r}/{r.cod.name!r} does not match frame carrier"
                )
        self.__dict__.update(
            carrier=carrier, agents=agents, _rels=dict(zip(agents, relations)), _build=None
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.carrier, self.agents))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not KripkeFrame:
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.agents == other.agents
            and all(self.rel(a) == other.rel(a) for a in self.agents)
        )

    @staticmethod
    def make(carrier: FiniteSet, agents: AgentSet, rels: Mapping[str, Rel]) -> "KripkeFrame":
        missing = [a for a in agents if a not in rels]
        if missing:
            raise UnknownAgent(f"no relation given for agent {missing[0]!r}")
        return KripkeFrame(carrier, agents, tuple(rels[a] for a in agents))

    def rel(self, agent: str) -> Rel:
        try:
            return self._rels[agent]
        except KeyError:
            if agent not in self.agents:
                raise UnknownAgent(
                    f"agent {agent!r} not in frame over {self.carrier.name!r}"
                ) from None
        r = self._rels[agent] = self._build(agent)
        return r


@dataclass(init=False, repr=False, eq=False)
class FrameMap(Frozen):
    """A function between the carriers of two frames over the same agents.

    Being a frame map imposes nothing beyond functionality; monotonicity
    and boundedness are separate, checkable properties.  Functionality is
    checked pointwise, one successor per source point, in time linear in
    the pairs; ``is_function`` keeps the dagger definition, and the
    ``rel-laws`` suite checks that the two agree.
    """

    src: KripkeFrame
    dst: KripkeFrame
    fn: Rel

    def __post_init__(self):
        if self.fn.dom != self.src.carrier or self.fn.cod != self.dst.carrier:
            raise CarrierMismatch("frame map carriers do not match its frames")
        if not self.src.agents.same_names(self.dst.agents):
            raise AgentMismatch("frame map endpoints carry different agent sets")
        if not is_function_pointwise(self.fn):
            raise NotAFunction("frame map underlying relation is not a function")

    def __call__(self, w: str) -> str:
        return apply_function(self.fn, w)


def frame_map(src: KripkeFrame, dst: KripkeFrame, mapping: Mapping[str, str]) -> FrameMap:
    return FrameMap(src, dst, function_from_mapping(src.carrier, dst.carrier, mapping))


def identity_map(f: KripkeFrame) -> FrameMap:
    return _unchecked(FrameMap, src=f, dst=f, fn=identity(f.carrier))


def _pushed_steps(m: FrameMap) -> Iterator[Tuple[int, int]]:
    """Per agent and source point: its successors pushed along the map (the
    OR of their one-bit image rows), and the target row at its image."""
    f = m.fn.rows
    images = image_indices(m)
    for a in m.src.agents:
        steps = m.dst.rel(a).rows
        for row, y in zip(m.src.rel(a).rows, images):
            yield union_of(f, row), steps[y]


def is_monotone(m: FrameMap) -> bool:
    """Steps in the source push forward to steps in the target, per agent.

    Read off the rows, one source point at a time: its successors' images
    lie in the target row at its image.  This is the composite inequality
    ``compose(R, f) <= compose(f, S)`` row by row, with no composite
    built; the ``topological`` suite checks on every case that the two
    forms agree.
    """
    return all(not pushed & ~step for pushed, step in _pushed_steps(m))


def is_bounded(m: FrameMap) -> bool:
    """Monotone and step-reflecting, per agent.

    Read off the rows like ``is_monotone``: each source point's
    successors' images are exactly the target row at its image, which is
    the composite equation ``compose(R, f) == compose(f, S)`` row by row;
    the ``topological`` suite checks on every case that the two agree.
    """
    return all(pushed == step for pushed, step in _pushed_steps(m))


def _lift(
    carrier: FiniteSet,
    cols: Sequence[Sequence[int]],
    codes: Sequence[Tuple[bytes, Tuple[int, ...]]],
    targets: Sequence[KripkeFrame],
    agents: AgentSet,
) -> KripkeFrame:
    """The initial lift, column by column: x steps to y when every coordinate steps.

    ``cols[k][p]`` is the index, in ``targets[k]``'s carrier, of point p's
    k-th coordinate, and ``codes[k]`` is the same column as a
    ``function_code``.  The agent check (by name; the lift keeps the order
    of ``agents``) and each column's image, the target points some point
    lies over, are computed here; each agent's relation is left to
    ``_lift_rel``, which the frame calls on the agent's first read.
    """
    if not all(agents.same_names(t.agents) for t in targets):
        raise AgentMismatch("initial lift: the frames carry different agent sets")
    columns = tuple((t, col, code, set(col)) for t, col, code in zip(targets, cols, codes))
    build = partial(_lift_rel, carrier, columns)
    return _unchecked(KripkeFrame, carrier=carrier, agents=agents, _rels={}, _build=build)


def _lift_rel(carrier: FiniteSet, columns: Sequence[tuple], a: str) -> Rel:
    """One agent's relation of a lift, from ``_lift``'s (target, col, code, image) columns.

    Per column, ``reach[c]`` is the mask of the points over c's successors:
    the preimage of c's row along the column's code, for each c in the
    image.  Successors with no point over them drop out of the preimage.
    A point's row is the AND, across columns, of what its coordinates
    reach.  An empty family relates every pair.
    """
    steps = []
    for t, col, code, image in columns:
        rows = t.rel(a).rows
        reach = {c: preimage(code, rows[c]) for c in image}
        steps.append(map(reach.__getitem__, col))
    rows = reduce(partial(map, and_), steps) if steps else [carrier.full] * len(carrier)
    return _rel(carrier, carrier, rows)


def lift_points(
    name: str,
    targets: Sequence[KripkeFrame],
    labels: Sequence[str],
    cols: Sequence[Sequence[int]],
) -> Tuple[KripkeFrame, Tuple[FrameMap, ...]]:
    """A frame on labelled points over a family of frames, with its legs.

    ``labels`` names the points in carrier order, and ``cols[k][p]`` is the
    index, in ``targets[k]``'s carrier, of point p's k-th coordinate.  The
    carrier is named ``name``; leg k sends each point to its k-th
    coordinate; the relations are the initial lift of the legs.  Products,
    subframes, pullbacks, product updates and fibered powers are all built
    here, from the indices they already hold.  Each leg's function keeps
    the code the lift reads, so a preimage along a leg builds none.  The
    points are the caller's to get right: the legs are functions into
    their targets by construction and are built unchecked.
    """
    if not targets:
        raise InvariantViolation("lift_points: at least one target frame required")
    carrier = FiniteSet(name, tuple(labels))
    fns = []
    for t, col in zip(targets, cols):
        fn = _rel(carrier, t.carrier, [1 << c for c in col])
        fn.__dict__["code"] = function_code(col, len(t.carrier))
        fns.append(fn)
    frame = _lift(carrier, cols, [fn.code for fn in fns], targets, targets[0].agents)
    legs = tuple(
        _unchecked(FrameMap, src=frame, dst=t, fn=fn) for t, fn in zip(targets, fns)
    )
    return frame, legs


def initial_lift(
    targets: Sequence[KripkeFrame],
    fns: Sequence[Rel],
    carrier: Optional[FiniteSet] = None,
    agents: Optional[AgentSet] = None,
) -> KripkeFrame:
    """Coarsest frame on a common domain making every given map monotone.

    Per agent, the relation is the meet over the family of the pullback of
    each target relation along its map: x steps to y exactly when every
    map sends the pair to a step.  An empty family needs the carrier and
    agents spelled out and yields the total relation on each agent.
    """
    if len(targets) != len(fns):
        raise InvariantViolation("initial_lift: one function per target frame required")
    if targets:
        dom = fns[0].dom
        for fn, t in zip(fns, targets):
            if fn.dom != dom:
                raise CarrierMismatch("initial_lift: functions do not share a domain")
            if fn.cod != t.carrier:
                raise CarrierMismatch("initial_lift: function codomain is not its target carrier")
            if not is_function_pointwise(fn):
                raise NotAFunction("initial_lift: family member is not a function")
        if carrier is not None and carrier != dom:
            raise CarrierMismatch("initial_lift: explicit carrier disagrees with functions")
        carrier = dom
        agents = targets[0].agents if agents is None else agents
    elif carrier is None or agents is None:
        raise InvariantViolation("initial_lift: empty family needs explicit carrier and agents")
    # each row of a function has one bit: the index of the image
    cols = [[m.bit_length() - 1 for m in fn.rows] for fn in fns]
    return _lift(carrier, cols, [fn.code for fn in fns], targets, agents)


def largest_preserved_check(
    lift: KripkeFrame,
    targets: Sequence[KripkeFrame],
    fns: Sequence[Rel],
    candidates: Sequence[Rel],
) -> bool:
    """The lifted relation is the largest one every family member preserves.

    For each candidate relation on the lift carrier and each agent: the
    candidate sits below the lifted relation exactly when every map of the
    family carries it into its target relation.
    """
    for cand in candidates:
        if cand.dom != lift.carrier or cand.cod != lift.carrier:
            raise CarrierMismatch("largest_preserved_check: candidate not on the lift carrier")
        for a in lift.agents:
            below = leq(cand, lift.rel(a))
            preserved = all(
                leq(compose(cand, fn), compose(fn, t.rel(a)))
                for fn, t in zip(fns, targets)
            )
            if below != preserved:
                return False
    return True


def common_knowledge_relation(f: KripkeFrame, group: Sequence[str]) -> Rel:
    """Reflexive-transitive closure of the union of the group's relations."""
    if not group:
        raise EmptyGroup("common_knowledge_relation: empty agent group")
    for a in group:
        if a not in f.agents:
            raise UnknownAgent(f"agent {a!r} not in frame")
    union = f.rel(group[0])
    for a in group[1:]:
        union = join(union, f.rel(a))
    return closure_reflexive_transitive(union)


def lift_pairs(
    name: str, f1: KripkeFrame, f2: KripkeFrame, pairs: Sequence[Tuple[int, int]]
) -> Tuple[KripkeFrame, Tuple[FrameMap, ...]]:
    """``lift_points`` on pairs (i, j) of indices into the carriers of f1 and
    f2, in the given order, each labelled "(w,v)" by the names at i and j."""
    names1, names2 = f1.carrier.elements, f2.carrier.elements
    return lift_points(
        name,
        [f1, f2],
        [pair_label(names1[i], names2[j]) for i, j in pairs],
        [[i for i, _ in pairs], [j for _, j in pairs]],
    )


def product(f1: KripkeFrame, f2: KripkeFrame) -> Tuple[KripkeFrame, FrameMap, FrameMap]:
    """Binary product: pair carrier, componentwise relations via initial lift."""
    n1, n2 = len(f1.carrier), len(f2.carrier)
    frame, (proj1, proj2) = lift_pairs(
        f"({f1.carrier.name}x{f2.carrier.name})",
        f1,
        f2,
        [(i, j) for i in range(n1) for j in range(n2)],
    )
    return frame, proj1, proj2


def subframe(f: KripkeFrame, s: Subset, tag: str = "sub") -> Tuple[KripkeFrame, FrameMap]:
    """Full subframe on a subset, with its inclusion.

    The relations are the restrictions, i.e. the initial lift of the
    inclusion, which makes the inclusion a regular mono in the monotone
    category.
    """
    if s.carrier != f.carrier:
        raise CarrierMismatch("subframe: subset carrier is not the frame carrier")
    frame, (incl,) = lift_points(
        f"({f.carrier.name}|{tag})",
        [f],
        f.carrier.names(s.mask),
        [list(compress(range(len(f.carrier)), bit_flags(s.mask)))],
    )
    return frame, incl


def image_indices(fm: FrameMap) -> List[int]:
    """The index, in the target carrier, of each point's image under a frame map."""
    return [m.bit_length() - 1 for m in fm.fn.rows]


def fibered_pairs(f: FrameMap, g: FrameMap) -> List[Tuple[int, int]]:
    """The pairs (i, j) of source indices with f(i) = g(j), i-major."""
    over = g.fn.pred_rows  # the points of g's source over each target point
    js = range(len(g.src.carrier))
    return [
        (i, j) for i, x in enumerate(image_indices(f)) for j in compress(js, bit_flags(over[x]))
    ]


def pullback(f: FrameMap, g: FrameMap) -> Tuple[KripkeFrame, FrameMap, FrameMap]:
    """Pullback of monotone maps f : Y -> X and g : Z -> X.

    Carrier is the fibered product of the two carrier functions, with the
    initial lift of the projections.  The underlying carrier square is an
    honest pullback of sets, so its image equation holds by construction;
    the topological law suite checks it on every case.
    """
    if f.dst != g.dst:
        raise CodomainMismatch("pullback: maps land in different frames")
    if not is_monotone(f) or not is_monotone(g):
        raise NotMonotone("pullback: both maps must be monotone")
    y, z = f.src, g.src
    frame, (proj1, proj2) = lift_pairs(
        f"({y.carrier.name}x[{f.dst.carrier.name}]{z.carrier.name})", y, z, fibered_pairs(f, g)
    )
    return frame, proj1, proj2


def is_bisimulation(f1: KripkeFrame, f2: KripkeFrame, r: Rel) -> bool:
    """A relation between carriers whose tabulation legs are both bounded.

    The tabulation apex is equipped with the initial lift of its two legs;
    the relation is a bisimulation exactly when both legs reflect steps as
    well as preserving them.  The lift rejects mismatched agents or carriers.
    """
    tab = tabulate(r)
    apex_frame = initial_lift([f1, f2], [tab.r1, tab.r2])
    left = FrameMap(apex_frame, f1, tab.r1)
    right = FrameMap(apex_frame, f2, tab.r2)
    return is_bounded(left) and is_bounded(right)
