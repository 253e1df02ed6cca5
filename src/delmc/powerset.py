"""Powerset maps induced by relations, and the duality around them.

A relation X -> Y induces a direct-image map (preserving all joins) and a
universal-image map (preserving all meets) between the powerset algebras.
Both are represented finitely: a join extension by its value on singletons,
a meet extension by its value on co-singletons.  The correspondence between
relations and such maps is exact and is exercised by check functions here.

Modal reading: the box along a relation is the universal image of its
dagger; the diamond is the direct image of its dagger.

``forall_image`` and ``exists_image`` compute the same two images, as
member sets, straight from a relation's cached rows, with no map built:
the rows of r are its predecessor sets for an image along r, and its
successor sets for an image along the dagger of r.  The evaluator reads
every modal image this way; the ``duality`` law suite holds the two
helpers to ``apply`` of the image maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .errors import CapExceeded, CarrierMismatch, InvariantViolation, NotAFunction, NotAPullback
from .rel import (
    FiniteSet,
    Rel,
    _unchecked,
    compose,
    dagger,
    is_function,
    leq,
    require_same_carrier,
)

JOIN = "join"
MEET = "meet"


@dataclass(frozen=True)
class Subset:
    """A subset of a named carrier."""

    carrier: FiniteSet
    members: FrozenSet[str]

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        if self.members <= self.carrier.as_set:
            return
        for m in self.members:  # word the first stray member
            if m not in self.carrier:
                raise InvariantViolation(f"subset member {m!r} not in carrier {self.carrier.name!r}")

    def union(self, other: "Subset") -> "Subset":
        require_same_carrier(self.carrier, other.carrier, "union")
        return _unchecked(Subset, carrier=self.carrier, members=self.members | other.members)

    def intersect(self, other: "Subset") -> "Subset":
        require_same_carrier(self.carrier, other.carrier, "intersect")
        return _unchecked(Subset, carrier=self.carrier, members=self.members & other.members)

    def complement(self) -> "Subset":
        return _unchecked(
            Subset, carrier=self.carrier, members=self.carrier.as_set - self.members
        )

    def leq(self, other: "Subset") -> bool:
        require_same_carrier(self.carrier, other.carrier, "leq")
        return self.members <= other.members

    def __contains__(self, item: object) -> bool:
        return item in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> List[str]:
        return sorted(self.members, key=lambda e: self.carrier.index[e])

    def __repr__(self) -> str:
        return f"Subset({self.carrier.name!r}, {self.sorted_members()!r})"


def full_subset(x: FiniteSet) -> Subset:
    return Subset(x, x.as_set)


def empty_subset(x: FiniteSet) -> Subset:
    return Subset(x, frozenset())


def all_subsets(x: FiniteSet) -> Iterable[Subset]:
    """Every subset of a carrier, in a deterministic order."""
    for k in range(len(x) + 1):
        for combo in itertools.combinations(x.elements, k):
            yield Subset(x, frozenset(combo))


@dataclass(frozen=True)
class PowersetMap:
    """A join or meet extension between powerset algebras.

    kind "join": atom_table[w] is the image of the singleton {w}; the map
    sends S to the union over its members.  kind "meet": atom_table[w] is
    the value on the co-singleton dom minus {w}; the map sends S to the
    intersection over the members missing from S (the whole codomain when
    none are missing).
    """

    dom: FiniteSet
    cod: FiniteSet
    kind: str
    atom_table: Tuple[Tuple[str, FrozenSet[str]], ...]

    def __post_init__(self):
        if self.kind not in (JOIN, MEET):
            raise InvariantViolation(f"unknown powerset-map kind {self.kind!r}")
        keys = tuple(k for k, _ in self.atom_table)
        if keys != self.dom.elements:
            raise InvariantViolation("atom table keys must list the domain in carrier order")
        for k, img in self.atom_table:
            for v in img:
                if v not in self.cod:
                    raise InvariantViolation(f"table value {v!r} at {k!r} not in codomain")

    @cached_property
    def table(self) -> Dict[str, FrozenSet[str]]:
        return dict(self.atom_table)

    def __repr__(self) -> str:
        rows = {k: sorted(v) for k, v in self.atom_table}
        return f"PowersetMap({self.kind}, {self.dom.name!r} -> {self.cod.name!r}, {rows!r})"


def _make_map(dom: FiniteSet, cod: FiniteSet, kind: str, table: Dict[str, FrozenSet[str]]) -> PowersetMap:
    """Built unchecked: the callers' tables give values inside cod."""
    return _unchecked(
        PowersetMap, dom=dom, cod=cod, kind=kind,
        atom_table=tuple((w, frozenset(table[w])) for w in dom),
    )


def exists_map(r: Rel) -> PowersetMap:
    """Direct image along a relation, as a join extension."""
    return _make_map(r.dom, r.cod, JOIN, {w: r.successors[w] for w in r.dom})


def forall_map(r: Rel) -> PowersetMap:
    """Universal image along a relation, as a meet extension.

    On a co-singleton dom minus {w} the universal image is exactly the
    codomain points not reached from w.
    """
    return _make_map(r.dom, r.cod, MEET, {w: r.cod.as_set - r.successors[w] for w in r.dom})


def forall_image(
    rows: Mapping[str, FrozenSet[str]], carrier: FiniteSet, s: AbstractSet[str]
) -> FrozenSet[str]:
    """Universal image from rows: the points of carrier whose row lies in s.

    Pass r.predecessors for the image along r (``apply(forall_map(r), s)``)
    and r.successors for the image along its dagger (the box).
    """
    return frozenset(y for y in carrier if rows[y] <= s)


def exists_image(
    rows: Mapping[str, FrozenSet[str]], carrier: FiniteSet, s: AbstractSet[str]
) -> FrozenSet[str]:
    """Direct image from rows: the points of carrier whose row meets s.

    Pass r.predecessors for the image along r (``apply(exists_map(r), s)``)
    and r.successors for the image along its dagger (the diamond).
    """
    return frozenset(y for y in carrier if not rows[y].isdisjoint(s))


def apply(h: PowersetMap, s: Subset) -> Subset:
    if s.carrier != h.dom:
        raise CarrierMismatch(f"apply: subset carrier {s.carrier.name!r} != map domain {h.dom.name!r}")
    if h.kind == JOIN:
        out: FrozenSet[str] = frozenset()
        for w in s.members:
            out |= h.table[w]
        return _unchecked(Subset, carrier=h.cod, members=out)
    out = h.cod.as_set
    for w in h.dom.as_set - s.members:
        out &= h.table[w]
    return _unchecked(Subset, carrier=h.cod, members=out)


def preimage_map(f: Rel, kind: str = JOIN) -> PowersetMap:
    """Inverse image along a function, in either representation.

    For a function both the direct and universal image of the dagger agree
    with pointwise preimage, so the caller picks the representation.
    """
    if not is_function(f):
        raise NotAFunction("preimage_map: relation is not a function")
    if kind == JOIN:
        return exists_map(dagger(f))
    return forall_map(dagger(f))


def relation_from_join_map(h: PowersetMap) -> Rel:
    if h.kind != JOIN:
        raise InvariantViolation("relation_from_join_map: map is not a join extension")
    return Rel(h.dom, h.cod, frozenset((w, v) for w in h.dom for v in h.table[w]))


def relation_from_meet_map(h: PowersetMap) -> Rel:
    if h.kind != MEET:
        raise InvariantViolation("relation_from_meet_map: map is not a meet extension")
    return Rel(h.dom, h.cod, frozenset((w, v) for w in h.dom for v in h.cod.as_set - h.table[w]))


def map_leq(h1: PowersetMap, h2: PowersetMap) -> bool:
    """Pointwise order, decided on the atom tables.

    Valid for both representations: join extensions compare by singleton
    images, meet extensions by co-singleton values, and in each case the
    tablewise order is equivalent to the pointwise one.
    """
    if h1.kind != h2.kind:
        raise InvariantViolation("map_leq: mixed representations; compare extensionally instead")
    require_same_carrier(h1.dom, h2.dom, "map_leq")
    require_same_carrier(h1.cod, h2.cod, "map_leq")
    return all(h1.table[w] <= h2.table[w] for w in h1.dom)


def compose_maps(h1: PowersetMap, h2: PowersetMap) -> PowersetMap:
    """Composition in application order (h1 first), same representation only."""
    if h1.cod != h2.dom:
        raise CarrierMismatch("compose_maps: middle carriers differ")
    if h1.kind != h2.kind:
        raise InvariantViolation("compose_maps: mixed representations")
    table = {w: apply(h2, Subset(h1.cod, h1.table[w])).members for w in h1.dom}
    return _make_map(h1.dom, h2.cod, h1.kind, table)


def maps_equal(h1: PowersetMap, h2: PowersetMap, cap: int = 12) -> bool:
    """Extensional equality, exhaustively over the domain powerset."""
    require_same_carrier(h1.dom, h2.dom, "maps_equal")
    require_same_carrier(h1.cod, h2.cod, "maps_equal")
    if h1.kind == h2.kind:
        return h1.atom_table == h2.atom_table
    if len(h1.dom) > cap:
        raise CapExceeded(f"maps_equal: domain size {len(h1.dom)} above cap {cap}")
    return find_apply_witness(h1, h2, cap=cap) is None


def find_apply_witness(h1: PowersetMap, h2: PowersetMap, cap: int = 12) -> Optional[Subset]:
    """First subset on which the two maps disagree, if any."""
    require_same_carrier(h1.dom, h2.dom, "find_apply_witness")
    require_same_carrier(h1.cod, h2.cod, "find_apply_witness")
    if len(h1.dom) > cap:
        raise CapExceeded(f"find_apply_witness: domain size {len(h1.dom)} above cap {cap}")
    for s in all_subsets(h1.dom):
        if apply(h1, s) != apply(h2, s):
            return s
    return None


def check_adjunction(r: Rel, cap: int = 16) -> bool:
    """Direct image along r is left adjoint to universal image along its dagger.

    Exhaustive over all pairs of subsets; raises CapExceeded when the two
    carriers together would make that blow up.
    """
    if len(r.dom) + len(r.cod) > cap:
        raise CapExceeded(f"check_adjunction: combined carrier size above cap {cap}")
    lower = exists_map(r)
    upper = forall_map(dagger(r))
    for s1 in all_subsets(r.dom):
        image = apply(lower, s1)
        for s2 in all_subsets(r.cod):
            if image.leq(s2) != s1.leq(apply(upper, s2)):
                return False
    return True


def verify_preserves_all_joins(h: PowersetMap, cap: int = 12) -> bool:
    """Full-table check that h commutes with arbitrary unions."""
    if len(h.dom) > cap:
        raise CapExceeded(f"verify_preserves_all_joins: domain size above cap {cap}")
    for s in all_subsets(h.dom):
        expected: FrozenSet[str] = frozenset()
        for w in s.members:
            expected |= apply(h, Subset(h.dom, frozenset([w]))).members
        if apply(h, s).members != expected:
            return False
    return True


def verify_preserves_all_meets(h: PowersetMap, cap: int = 12) -> bool:
    """Full-table check that h commutes with arbitrary intersections."""
    if len(h.dom) > cap:
        raise CapExceeded(f"verify_preserves_all_meets: domain size above cap {cap}")
    for s in all_subsets(h.dom):
        expected = h.cod.as_set
        for w in h.dom.as_set - s.members:
            expected &= apply(h, Subset(h.dom, h.dom.as_set - frozenset([w]))).members
        if apply(h, s).members != expected:
            return False
    return True


@dataclass(frozen=True)
class BidualityReport:
    """Which of the relation/map order and functoriality laws were checked."""

    checks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failed(self) -> List[str]:
        return [name for name, passed in self.checks if not passed]


def check_biduality_laws(r1: Rel, r2: Rel) -> BidualityReport:
    """Verify the order- and composition-compatibility of image maps.

    For composable arguments: the image maps along the dagger of a composite
    factor through the images of the daggers of the parts.  For parallel
    arguments: inclusion of relations is equivalent to the pointwise order
    of direct images (covariant) and of universal images (contravariant),
    in both the plain and dagger forms.
    """
    checks: List[Tuple[str, bool]] = []
    composable = r1.cod == r2.dom
    parallel = r1.dom == r2.dom and r1.cod == r2.cod
    if not composable and not parallel:
        raise CarrierMismatch("check_biduality_laws: arguments neither composable nor parallel")
    if composable:
        composite = compose(r1, r2)
        lhs_e = exists_map(dagger(composite))
        rhs_e = compose_maps(exists_map(dagger(r2)), exists_map(dagger(r1)))
        checks.append(("exists-dagger-functorial", lhs_e == rhs_e))
        lhs_a = forall_map(dagger(composite))
        rhs_a = compose_maps(forall_map(dagger(r2)), forall_map(dagger(r1)))
        checks.append(("forall-dagger-functorial", lhs_a == rhs_a))
        checks.append(
            ("exists-functorial", exists_map(composite) == compose_maps(exists_map(r1), exists_map(r2)))
        )
        checks.append(
            ("forall-functorial", forall_map(composite) == compose_maps(forall_map(r1), forall_map(r2)))
        )
    if parallel:
        included = leq(r1, r2)
        checks.append(("exists-order-iso", included == map_leq(exists_map(r1), exists_map(r2))))
        checks.append(("forall-order-anti-iso", included == map_leq(forall_map(r2), forall_map(r1))))
        checks.append(
            ("exists-dagger-order-iso", included == map_leq(exists_map(dagger(r1)), exists_map(dagger(r2))))
        )
        checks.append(
            ("forall-dagger-order-anti-iso", included == map_leq(forall_map(dagger(r2)), forall_map(dagger(r1))))
        )
    return BidualityReport(tuple(checks))


def beck_chevalley_equation(p: Rel, q: Rel, f: Rel, g: Rel) -> bool:
    """The raw square equation, with no validation of the square.

    For p : W -> Y, q : W -> Z, f : Y -> X, g : Z -> X it states that
    going dagger(q) then p is the same relation Z -> Y as going g then
    dagger(f).
    """
    return compose(dagger(q), p) == compose(g, dagger(f))


def check_beck_chevalley(p: Rel, q: Rel, f: Rel, g: Rel) -> bool:
    """Validate a pullback square of functions, then check its image law.

    The apex must be, up to the pairing of p and q, exactly the fibered
    product of f and g.  A commuting square that is not a pullback raises
    NotAPullback before any evaluation; use beck_chevalley_equation to
    probe such squares diagnostically.
    """
    for name, h in (("p", p), ("q", q), ("f", f), ("g", g)):
        if not is_function(h):
            raise NotAFunction(f"check_beck_chevalley: {name} is not a function")
    if p.dom != q.dom:
        raise CarrierMismatch("check_beck_chevalley: p and q must share their domain")
    if f.cod != g.cod:
        raise CarrierMismatch("check_beck_chevalley: f and g must share their codomain")
    if p.cod != f.dom or q.cod != g.dom:
        raise CarrierMismatch("check_beck_chevalley: square sides do not line up")
    if compose(p, f) != compose(q, g):
        raise NotAPullback("square does not commute")
    pairing = {w: (next(iter(p.successors[w])), next(iter(q.successors[w]))) for w in p.dom}
    if len(set(pairing.values())) != len(pairing):
        raise NotAPullback("apex does not embed into the fibered product (pairing not injective)")
    fibered = frozenset(
        (y, z) for y in f.dom for z in g.dom if f.successors[y] == g.successors[z]
    )
    if set(pairing.values()) != set(fibered):
        raise NotAPullback("apex image is not the whole fibered product")
    return beck_chevalley_equation(p, q, f, g)
