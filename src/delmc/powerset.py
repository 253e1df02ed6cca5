"""Powerset maps induced by relations, and the duality around them.

A relation X -> Y induces a direct-image map (preserving all joins) and a
universal-image map (preserving all meets) between the powerset algebras.
Both are represented finitely: a join extension by its value on singletons,
a meet extension by its value on co-singletons.  The correspondence between
relations and such maps is exact and is exercised by check functions here.

Modal reading: the box along a relation is the universal image of its
dagger; the diamond is the direct image of its dagger.

What is stored: a ``Subset`` is one int mask over ``carrier.index``, and
a ``PowersetMap`` keeps its table as one mask over the codomain per
domain element, in domain order.  ``apply`` ORs (join) or ANDs (meet)
the masks picked out by a subset's bits.  Names are resolved only at
the boundary: ``Subset(carrier, members)`` takes names and checks them,
``Subset.from_mask(carrier, mask)`` checks a mask given whole, and
``Subset.members``, ``members_in_order()`` and ``PowersetMap.atom_table``
are lazy views built from the masks.

``forall_image`` and ``exists_image`` compute the same two images, as
masks, straight from a relation's rows, with no map built: ``r.pred_rows``
for an image along r, and ``r.rows`` for an image along the dagger of r.
The evaluator reads every modal image this way; the ``duality`` law suite
holds the two helpers to ``apply`` of the image maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import and_
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded, CarrierMismatch, InvariantViolation, NotAFunction, NotAPullback
from .frozen import Frozen
from .rel import (
    FiniteSet,
    Rel,
    _new,
    _rel,
    _unchecked,
    bit_flags,
    compose,
    dagger,
    is_function_pointwise,
    leq,
    require_same_carrier,
    union_of,
)

JOIN = "join"
MEET = "meet"


@dataclass(init=False, repr=False, eq=False)
class Subset(Frozen):
    """A subset of a named carrier, stored as one mask over ``carrier.index``.

    ``Subset(carrier, members)`` checks the named members against the
    carrier and builds the mask, and ``Subset.from_mask`` checks a mask;
    ``members`` and ``members_in_order()`` are boundary views, built from
    the mask.
    """

    carrier: FiniteSet
    mask: int

    def __init__(self, carrier: FiniteSet, members: Iterable[str]):
        if not isinstance(members, frozenset):
            members = frozenset(members)
        if not members <= carrier.as_set:
            for m in members:  # word the first stray member
                if m not in carrier:
                    raise InvariantViolation(f"subset member {m!r} not in carrier {carrier.name!r}")
        self.__dict__.update(carrier=carrier, mask=carrier.mask(members), members=members)

    @classmethod
    def from_mask(cls, carrier: FiniteSet, mask: int) -> "Subset":
        """A subset from its mask, checked: a plain ``int`` within
        ``carrier.full``.  Raises InvariantViolation otherwise; ``members``
        is then a lazy view."""
        if type(mask) is not int or not 0 <= mask <= carrier.full:
            raise InvariantViolation(f"{mask!r} is not a mask over carrier {carrier.name!r}")
        return _subset(carrier, mask)

    @cached_property
    def members(self) -> FrozenSet[str]:
        """Boundary view: the members, by name."""
        return frozenset(compress(self.carrier.elements, bit_flags(self.mask)))

    def union(self, other: "Subset") -> "Subset":
        require_same_carrier(self.carrier, other.carrier, "union")
        return _subset(self.carrier, self.mask | other.mask)

    def intersect(self, other: "Subset") -> "Subset":
        require_same_carrier(self.carrier, other.carrier, "intersect")
        return _subset(self.carrier, self.mask & other.mask)

    def complement(self) -> "Subset":
        return _subset(self.carrier, self.carrier.full ^ self.mask)

    def leq(self, other: "Subset") -> bool:
        require_same_carrier(self.carrier, other.carrier, "leq")
        return self.mask | other.mask == other.mask

    def __contains__(self, item: object) -> bool:
        i = self.carrier.index.get(item)
        return i is not None and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def members_in_order(self) -> List[str]:
        """The members' names in carrier order."""
        return self.carrier.names(self.mask)

    def __repr__(self) -> str:
        return f"Subset({self.carrier.name!r}, {self.members_in_order()!r})"


def _subset(carrier: FiniteSet, mask: int) -> Subset:
    """A trusted subset from its mask, with no check, fields set one by one."""
    s = _new(Subset)
    d = s.__dict__
    d["carrier"] = carrier
    d["mask"] = mask
    return s


def full_subset(x: FiniteSet) -> Subset:
    return _subset(x, x.full)


def empty_subset(x: FiniteSet) -> Subset:
    return _subset(x, 0)


def all_subsets(x: FiniteSet) -> Iterable[Subset]:
    """Every subset of a carrier, in a deterministic order: by size, then
    as ``itertools.combinations`` lists the elements."""
    for k in range(len(x) + 1):
        for combo in itertools.combinations(range(len(x)), k):
            yield _subset(x, sum(1 << i for i in combo))


@dataclass(init=False, repr=False, eq=False)
class PowersetMap(Frozen):
    """A join or meet extension between powerset algebras.

    kind "join": ``masks[i]`` is the image of the singleton of
    ``dom.elements[i]``; the map sends S to the union over its members.
    kind "meet": ``masks[i]`` is the value on the co-singleton dom minus
    that element; the map sends S to the intersection over the members
    missing from S (the whole codomain when none are missing).  The
    masks lie over ``cod.index``; ``atom_table`` is the same table by
    name, a boundary view.
    """

    dom: FiniteSet
    cod: FiniteSet
    kind: str
    masks: Tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (JOIN, MEET):
            raise InvariantViolation(f"unknown powerset-map kind {self.kind!r}")
        if len(self.masks) != len(self.dom):
            raise InvariantViolation("one table mask per domain element required")
        for k, m in zip(self.dom, self.masks):
            if not 0 <= m <= self.cod.full:
                raise InvariantViolation(f"table value at {k!r} not in codomain")

    @cached_property
    def atom_table(self) -> Tuple[Tuple[str, FrozenSet[str]], ...]:
        """Boundary view: each domain element with its value, by name."""
        names = self.cod.elements
        return tuple(
            (w, frozenset(compress(names, bit_flags(m))))
            for w, m in zip(self.dom.elements, self.masks)
        )

    def __repr__(self) -> str:
        rows = {k: sorted(v) for k, v in self.atom_table}
        return f"PowersetMap({self.kind}, {self.dom.name!r} -> {self.cod.name!r}, {rows!r})"


# each relation's (direct image map, universal image map), built once (see image_maps)
ImageMaps = Dict[Rel, Tuple[PowersetMap, PowersetMap]]


def _make_map(dom: FiniteSet, cod: FiniteSet, kind: str, masks: Iterable[int]) -> PowersetMap:
    """Built unchecked: the callers' masks lie inside cod."""
    return _unchecked(PowersetMap, dom=dom, cod=cod, kind=kind, masks=tuple(masks))


def exists_map(r: Rel) -> PowersetMap:
    """Direct image along a relation, as a join extension: its rows."""
    return _make_map(r.dom, r.cod, JOIN, r.rows)


def forall_map(r: Rel) -> PowersetMap:
    """Universal image along a relation, as a meet extension.

    On a co-singleton dom minus {w} the universal image is exactly the
    codomain points not reached from w: the complement of w's row.
    """
    full = r.cod.full
    return _make_map(r.dom, r.cod, MEET, [full ^ m for m in r.rows])


def forall_image(rows: Sequence[int], s: int) -> int:
    """Universal image from rows: the mask of the rows that lie in s.

    Pass ``r.pred_rows`` for the image along r (``apply(forall_map(r), s)``)
    and ``r.rows`` for the image along its dagger (the box).
    """
    outside = ~s
    out, bit = 0, 1
    for m in rows:
        if not m & outside:
            out |= bit
        bit <<= 1
    return out


def exists_image(rows: Sequence[int], s: int) -> int:
    """Direct image from rows: the mask of the rows that meet s.

    Pass ``r.pred_rows`` for the image along r (``apply(exists_map(r), s)``)
    and ``r.rows`` for the image along its dagger (the diamond).
    """
    out, bit = 0, 1
    for m in rows:
        if m & s:
            out |= bit
        bit <<= 1
    return out


def _apply_mask(h: PowersetMap, s: int) -> int:
    if h.kind == JOIN:
        return union_of(h.masks, s)
    return reduce(and_, compress(h.masks, bit_flags(h.dom.full ^ s)), h.cod.full)


def apply(h: PowersetMap, s: Subset) -> Subset:
    if s.carrier != h.dom:
        raise CarrierMismatch(f"apply: subset carrier {s.carrier.name!r} != map domain {h.dom.name!r}")
    return _subset(h.cod, _apply_mask(h, s.mask))


def preimage_map(f: Rel, kind: str = JOIN) -> PowersetMap:
    """Inverse image along a function, in either representation.

    For a function both the direct and universal image of the dagger agree
    with pointwise preimage, so the caller picks the representation.
    """
    if not is_function_pointwise(f):
        raise NotAFunction("preimage_map: relation is not a function")
    if kind == JOIN:
        return exists_map(dagger(f))
    return forall_map(dagger(f))


def relation_from_join_map(h: PowersetMap) -> Rel:
    if h.kind != JOIN:
        raise InvariantViolation("relation_from_join_map: map is not a join extension")
    return _rel(h.dom, h.cod, h.masks)


def relation_from_meet_map(h: PowersetMap) -> Rel:
    if h.kind != MEET:
        raise InvariantViolation("relation_from_meet_map: map is not a meet extension")
    full = h.cod.full
    return _rel(h.dom, h.cod, [full ^ m for m in h.masks])


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
    return all(a | b == b for a, b in zip(h1.masks, h2.masks))


def compose_maps(h1: PowersetMap, h2: PowersetMap) -> PowersetMap:
    """Composition in application order (h1 first), same representation only."""
    if h1.cod != h2.dom:
        raise CarrierMismatch("compose_maps: middle carriers differ")
    if h1.kind != h2.kind:
        raise InvariantViolation("compose_maps: mixed representations")
    return _make_map(h1.dom, h2.cod, h1.kind, [_apply_mask(h2, m) for m in h1.masks])


def maps_equal(h1: PowersetMap, h2: PowersetMap, cap: int = 12) -> bool:
    """Extensional equality, exhaustively over the domain powerset."""
    require_same_carrier(h1.dom, h2.dom, "maps_equal")
    require_same_carrier(h1.cod, h2.cod, "maps_equal")
    if h1.kind == h2.kind:
        return h1.masks == h2.masks
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
        if _apply_mask(h1, s.mask) != _apply_mask(h2, s.mask):
            return s
    return None


def check_adjunction(r: Rel, cap: int = 16, images: Optional[ImageMaps] = None) -> bool:
    """Direct image along r is left adjoint to universal image along its dagger.

    Exhaustive: for every subset S1 of the domain and S2 of the codomain,
    as masks, the image of S1 lies in S2 exactly when S1 lies in the
    universal image of S2.  Each map is applied once per subset, so the
    check costs 2^|dom| + 2^|cod| map applications and 2^(|dom|+|cod|)
    comparisons; it returns False at the first pair that disagrees.
    Raises CapExceeded when |dom| + |cod| is above cap.  The maps are read
    from ``images`` (see ``image_maps``) when the caller passes a dict to share.
    """
    if len(r.dom) + len(r.cod) > cap:
        raise CapExceeded(f"check_adjunction: combined carrier size above cap {cap}")
    if images is None:
        images = {}
    lower = image_maps(r, images)[0]
    upper = image_maps(dagger(r), images)[1]
    targets = range(1 << len(r.cod))
    uppers = [_apply_mask(upper, s2) for s2 in targets]
    for s1 in range(1 << len(r.dom)):
        image = _apply_mask(lower, s1)
        for s2, up in zip(targets, uppers):
            if (image | s2 == s2) != (s1 | up == up):
                return False
    return True


def verify_preserves_all_joins(h: PowersetMap, cap: int = 12) -> bool:
    """Full-table check that h commutes with arbitrary unions.

    Exhaustive over the 2^|dom| subsets of the domain, as masks: h is
    applied once to each subset and once to each singleton, and each
    value is compared with the union of the singleton values below it.
    Raises CapExceeded when |dom| is above cap.
    """
    if len(h.dom) > cap:
        raise CapExceeded(f"verify_preserves_all_joins: domain size above cap {cap}")
    singletons = [_apply_mask(h, 1 << i) for i in range(len(h.dom))]
    return all(
        _apply_mask(h, s) == union_of(singletons, s) for s in range(1 << len(h.dom))
    )


def verify_preserves_all_meets(h: PowersetMap, cap: int = 12) -> bool:
    """Full-table check that h commutes with arbitrary intersections.

    Exhaustive over the 2^|dom| subsets of the domain, as masks: h is
    applied once to each subset and once to each co-singleton, and each
    value is compared with the intersection of the co-singleton values
    above it.  Raises CapExceeded when |dom| is above cap.
    """
    if len(h.dom) > cap:
        raise CapExceeded(f"verify_preserves_all_meets: domain size above cap {cap}")
    full = h.dom.full
    cosingletons = [_apply_mask(h, full ^ 1 << i) for i in range(len(h.dom))]
    return all(
        _apply_mask(h, s)
        == reduce(and_, compress(cosingletons, bit_flags(full ^ s)), h.cod.full)
        for s in range(1 << len(h.dom))
    )


@dataclass(init=False, repr=False, eq=False)
class BidualityReport(Frozen):
    """Which of the relation/map order and functoriality laws were checked."""

    checks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failed(self) -> List[str]:
        return [name for name, passed in self.checks if not passed]


def image_maps(r: Rel, images: ImageMaps) -> Tuple[PowersetMap, PowersetMap]:
    """The direct and universal image maps along r, built once and kept in images."""
    hit = images.get(r)
    if hit is None:
        hit = images[r] = (exists_map(r), forall_map(r))
    return hit


def check_biduality_laws(r1: Rel, r2: Rel, images: Optional[ImageMaps] = None) -> BidualityReport:
    """Verify the order- and composition-compatibility of image maps.

    For composable arguments: the image maps along the dagger of a composite
    factor through the images of the daggers of the parts.  For parallel
    arguments: inclusion of relations is equivalent to the pointwise order
    of direct images (covariant) and of universal images (contravariant),
    in both the plain and dagger forms.  Each relation's two image maps are
    built once, in ``images`` when the caller passes a dict to share.
    """
    if images is None:
        images = {}
    checks: List[Tuple[str, bool]] = []
    composable = r1.cod == r2.dom
    parallel = r1.dom == r2.dom and r1.cod == r2.cod
    if not composable and not parallel:
        raise CarrierMismatch("check_biduality_laws: arguments neither composable nor parallel")
    exists1, forall1 = image_maps(r1, images)
    exists2, forall2 = image_maps(r2, images)
    back_exists1, back_forall1 = image_maps(dagger(r1), images)
    back_exists2, back_forall2 = image_maps(dagger(r2), images)
    if composable:
        composite = compose(r1, r2)
        exists_c, forall_c = image_maps(composite, images)
        back_exists_c, back_forall_c = image_maps(dagger(composite), images)
        checks.append(
            ("exists-dagger-functorial", back_exists_c == compose_maps(back_exists2, back_exists1))
        )
        checks.append(
            ("forall-dagger-functorial", back_forall_c == compose_maps(back_forall2, back_forall1))
        )
        checks.append(("exists-functorial", exists_c == compose_maps(exists1, exists2)))
        checks.append(("forall-functorial", forall_c == compose_maps(forall1, forall2)))
    if parallel:
        included = leq(r1, r2)
        checks.append(("exists-order-iso", included == map_leq(exists1, exists2)))
        checks.append(("forall-order-anti-iso", included == map_leq(forall2, forall1)))
        checks.append(("exists-dagger-order-iso", included == map_leq(back_exists1, back_exists2)))
        checks.append(
            ("forall-dagger-order-anti-iso", included == map_leq(back_forall2, back_forall1))
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
        if not is_function_pointwise(h):
            raise NotAFunction(f"check_beck_chevalley: {name} is not a function")
    if p.dom != q.dom:
        raise CarrierMismatch("check_beck_chevalley: p and q must share their domain")
    if f.cod != g.cod:
        raise CarrierMismatch("check_beck_chevalley: f and g must share their codomain")
    if p.cod != f.dom or q.cod != g.dom:
        raise CarrierMismatch("check_beck_chevalley: square sides do not line up")
    if compose(p, f) != compose(q, g):
        raise NotAPullback("square does not commute")
    # the apex's points as (row of p, row of q): one bit each, since p and q are functions
    pairing = list(zip(p.rows, q.rows))
    if len(set(pairing)) != len(pairing):
        raise NotAPullback("apex does not embed into the fibered product (pairing not injective)")
    fibered = {
        (1 << y, 1 << z)
        for y, fy in enumerate(f.rows)
        for z, gz in enumerate(g.rows)
        if fy == gz
    }
    if set(pairing) != fibered:
        raise NotAPullback("apex image is not the whole fibered product")
    return beck_chevalley_equation(p, q, f, g)
