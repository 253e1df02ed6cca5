"""Finite sets and binary relations with dagger structure.

A relation X -> Y between two named finite carriers is a |X| x |Y|
Boolean matrix, stored as its rows: ``rows[i]`` is an int mask over
``cod.index`` with bit j set when ``dom.elements[i]`` is related to
``cod.elements[j]``.  Composition ORs rows together, the dagger
transposes, and meet and join act row by row.  The predecessor masks
(``pred_rows``, the rows of the dagger) are built on first use and kept.

So, for a function, is its byte code (``code``, see ``function_code``):
one byte per point, the index of its image, last point first.  From it
``preimage`` reads the inverse image of a target mask with one
``bytes.translate`` and one ``int(..., 2)`` per 256 target points, and
walks no set bit.  It is the one inverse image along a function: the
lift (in ``frames``), updated valuations and predicates, the dump's
name order, and the sheaf layer's weakening, predicate leaves and
function-table checks read it; ``union_of`` is the OR of rows.

Everything is immutable and hashable: equality and the hash read the
carriers and the rows, and the hash is computed once per value.  Binary
operations demand exact carrier equality (same name, same element
order); nothing is coerced.

Names are resolved at the boundary only.  ``Rel(dom, cod, pairs)`` takes
pairs of names, from any iterable; ``.pairs`` and the name-keyed
``successors`` / ``predecessors`` are lazy views, built on first use
for the loader's dump, the CLI, the tests and the label-based sheaf code.
The kernel itself never builds them.

Data is checked where it enters.  The public constructors (``Rel(...)``,
``function_from_mapping``, ``Subset(...)``, ``FrameMap(...)``,
``initial_lift``) test every pair and member against its carriers, and
functionality where a function is asked for; ``Rel.from_rows`` and
``Subset.from_mask`` test rows and masks, for producers such as the
generators that draw straight into them; the JSON loader tests each
document relation whole.  After that point values are trusted: the
kernel's own results (``identity``, ``compose``, ``dagger``, ``meet``,
``join``, lifted frames and their legs, the evaluator's images) lie in
their carriers by construction, and the private constructors build
them with no check: ``_rel`` for relations, ``powerset._subset`` for
subsets, and ``_unchecked`` for the other value classes.

Composition is written in application order: ``compose(r1, r2)`` relates
``w`` to ``u`` when some ``v`` has ``w r1 v`` and ``v r2 u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import and_, eq, or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import CarrierMismatch, InvariantViolation, NotAFunction
from .frozen import Frozen

_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_CHUNK = 256  # target points per translation: one byte per point
_CHUNK_FULL = (1 << _CHUNK) - 1


def bit_flags(mask: int) -> bytes:
    """One byte per bit of the mask, lowest bit first: 1 where set, else 0.

    Made for ``itertools.compress``: ``compress(seq, bit_flags(mask))``
    picks the items of seq at the set bits, in order.
    """
    return bin(mask)[:1:-1].encode().translate(_FLAG)


def flags_mask(flags: Iterable[bool]) -> int:
    """The mask with bit i set where ``flags[i]`` is true: the inverse of
    ``bit_flags``.  The flags are bools or 0/1 ints, lowest bit first."""
    return int(b"0" + bytes(flags).translate(_DIGIT)[::-1], 2)


def function_code(col: Sequence[int], width: int) -> Tuple[bytes, Tuple[int, ...]]:
    """The byte code of a function, from its index column: the view that
    ``preimage`` reads.

    ``col[p]`` is the index of point p's image in a target of ``width``
    points.  The code is one byte per point, the image index modulo 256,
    last point first; with it comes, per 256-point chunk of the target,
    the mask of the points whose image lies in that chunk.
    """
    if width <= _CHUNK:
        return bytes(col[::-1]), ((1 << len(col)) - 1,)
    over = [0] * -(-width // _CHUNK)
    for p, c in enumerate(col):
        over[c >> 8] |= 1 << p
    return bytes([c & 255 for c in reversed(col)]), tuple(over)


def preimage(code: Tuple[bytes, Tuple[int, ...]], mask: int) -> int:
    """The inverse image of a target mask along a function, given its
    ``function_code``: the mask of the points whose image is in mask.

    Per chunk of the target, one translation maps each point's byte to
    the digit of its image in that chunk of the mask, and ``int(..., 2)``
    reads the digits back as a mask, last point first; the chunk's own
    points are then kept.  No set bit is walked.
    """
    low, over = code
    acc = 0
    for points in over:
        part = mask & _CHUNK_FULL
        if part and points:
            acc |= int(low.translate(bin(part)[:1:-1].encode().ljust(_CHUNK, b"0")), 2) & points
        mask >>= _CHUNK
    return acc


def preimage_flags(code: Tuple[bytes, Tuple[int, ...]], mask: int) -> bytes:
    """The preimage as flags for ``itertools.compress``, as ``bit_flags``
    would give them.

    Over a target of at most 256 points the translation's digits, reversed
    and turned into bytes 0 and 1, are the flags, so no mask is read back;
    a wider target's chunks are joined through ``preimage``.
    """
    low, over = code
    if len(over) > 1:
        return bit_flags(preimage(code, mask))
    return low.translate(bin(mask)[:1:-1].encode().ljust(_CHUNK, b"0"))[::-1].translate(_FLAG)


def union_of(masks: Sequence[int], mask: int) -> int:
    """The OR of the masks at the set bits of mask (0 when none is set)."""
    acc = 0
    while mask:  # take the lowest set bit at a time
        low = mask & -mask
        acc |= masks[low.bit_length() - 1]
        mask ^= low
    return acc


def transpose(rows: Sequence[int], width: int) -> Tuple[int, ...]:
    """The columns of a Boolean matrix given by its rows of ``width`` bits."""
    cols = [0] * width
    bit = 1
    for m in rows:
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
        bit <<= 1
    return tuple(cols)


@dataclass(init=False, repr=False, eq=False)
class FiniteSet(Frozen):
    """A named finite carrier with a fixed element order.

    The order is part of the value: it pins down iteration, printing and
    the layout of derived structures (bit i of a mask is ``elements[i]``),
    so runs are deterministic.
    """

    name: str
    elements: Tuple[str, ...]

    def __init__(self, name: str, elements: Iterable[str]):
        # its own, not Frozen's generic binding: a laws run builds tens of thousands
        if not isinstance(elements, tuple):
            elements = tuple(elements)
        d = self.__dict__
        d["name"] = name
        d["elements"] = elements
        if len(set(elements)) != len(elements):
            seen = set()
            for e in elements:  # word the first duplicate
                if e in seen:
                    raise InvariantViolation(f"duplicate element {e!r} in carrier {name!r}")
                seen.add(e)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # every binary operation compares carriers, and they are mostly the same object
        if self is other:
            return True
        if type(other) is not FiniteSet:
            return NotImplemented
        return self.name == other.name and self.elements == other.elements

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.elements))

    @cached_property
    def as_set(self) -> FrozenSet[str]:
        return frozenset(self.elements)

    @cached_property
    def index(self) -> Dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def bit(self) -> Dict[str, int]:
        """Each element's singleton mask, by name."""
        return {e: 1 << i for i, e in enumerate(self.elements)}

    @cached_property
    def full(self) -> int:
        """The mask of every element."""
        return (1 << len(self.elements)) - 1

    def names(self, mask: int) -> List[str]:
        """The elements at the set bits of a mask, in carrier order."""
        return list(compress(self.elements, bit_flags(mask)))

    def mask(self, names: Iterable[str]) -> int:
        """The mask of some elements, named; KeyError on a stranger."""
        return reduce(or_, map(self.bit.__getitem__, names), 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item: object) -> bool:
        return item in self.as_set

    def __repr__(self) -> str:
        return f"FiniteSet({self.name!r}, {list(self.elements)!r})"


def require_same_carrier(a: FiniteSet, b: FiniteSet, where: str) -> None:
    if a is not b and a != b:
        raise CarrierMismatch(f"{where}: carrier {a.name!r} != carrier {b.name!r}")


@dataclass(init=False, repr=False, eq=False)
class Rel(Frozen):
    """A binary relation between two finite carriers, stored as successor masks.

    ``Rel(dom, cod, pairs)`` checks the pairs against the carriers and
    builds the rows, and ``Rel.from_rows(dom, cod, rows)`` checks rows
    given whole; ``rows[i]`` is the mask of the successors of
    ``dom.elements[i]``.
    """

    dom: FiniteSet
    cod: FiniteSet
    rows: Tuple[int, ...]

    def __init__(self, dom: FiniteSet, cod: FiniteSet, pairs: Iterable[Tuple[str, str]]):
        if not isinstance(pairs, frozenset):
            pairs = frozenset(pairs)
        if not _within(pairs, dom.as_set, cod.as_set):
            for w, v in pairs:  # word the first stray or malformed pair
                if w not in dom:
                    raise InvariantViolation(f"pair ({w!r}, {v!r}): {w!r} not in domain {dom.name!r}")
                if v not in cod:
                    raise InvariantViolation(f"pair ({w!r}, {v!r}): {v!r} not in codomain {cod.name!r}")
        di, ci = dom.index, cod.index
        rows = [0] * len(dom)
        for w, v in pairs:
            rows[di[w]] |= 1 << ci[v]
        self.__dict__.update(dom=dom, cod=cod, rows=tuple(rows), pairs=pairs)

    @classmethod
    def from_rows(cls, dom: FiniteSet, cod: FiniteSet, rows: Iterable[int]) -> "Rel":
        """A relation from its rows, checked: one plain ``int`` per domain
        point, in domain order, each a mask within ``cod.full``.

        Raises InvariantViolation otherwise.  The check is linear in the
        rows and never reads a name; ``.pairs`` is then a lazy view.
        """
        rows = tuple(rows)
        if len(rows) != len(dom) or rows and (
            set(map(type, rows)) != {int} or min(rows) < 0 or max(rows) > cod.full
        ):
            where = f"relation {dom.name!r} -> {cod.name!r}"
            if len(rows) != len(dom):
                raise InvariantViolation(f"{where}: {len(rows)} rows for {len(dom)} domain points")
            for w, m in zip(dom.elements, rows):  # word the first bad row
                if type(m) is not int:
                    raise InvariantViolation(f"{where}: row of {w!r} is a {type(m).__name__}, not an int")
                if not 0 <= m <= cod.full:
                    raise InvariantViolation(f"{where}: row of {w!r} is not a mask over {cod.name!r}")
        return _rel(dom, cod, rows)

    @cached_property
    def pred_rows(self) -> Tuple[int, ...]:
        """The predecessor masks, over ``dom.index``, in codomain order."""
        return transpose(self.rows, len(self.cod))

    @cached_property
    def code(self) -> Tuple[bytes, Tuple[int, ...]]:
        """For a function: its ``function_code``, which ``preimage`` reads."""
        return function_code([m.bit_length() - 1 for m in self.rows], len(self.cod))

    @cached_property
    def pairs(self) -> FrozenSet[Tuple[str, str]]:
        """Boundary view: the related pairs of names."""
        cod = self.cod.elements
        return frozenset(
            (w, v)
            for w, m in zip(self.dom.elements, self.rows) if m
            for v in compress(cod, bit_flags(m))
        )

    @cached_property
    def successors(self) -> Dict[str, FrozenSet[str]]:
        """Boundary view: each domain point's successors, by name."""
        cod = self.cod.elements
        return {
            w: frozenset(compress(cod, bit_flags(m))) for w, m in zip(self.dom.elements, self.rows)
        }

    @cached_property
    def predecessors(self) -> Dict[str, FrozenSet[str]]:
        """Boundary view: each codomain point's predecessors, by name."""
        dom = self.dom.elements
        return {
            v: frozenset(compress(dom, bit_flags(m)))
            for v, m in zip(self.cod.elements, self.pred_rows)
        }

    @cached_property
    def _hash(self) -> int:
        return hash((self.dom, self.cod, self.rows))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, pair: object) -> bool:
        return pair in self.pairs

    def __repr__(self) -> str:
        return f"Rel({self.dom.name!r} -> {self.cod.name!r}, {sorted(self.pairs)!r})"


def _within(pairs: FrozenSet[Tuple[str, str]], dom: FrozenSet[str], cod: FrozenSet[str]) -> bool:
    """Every pair lies in dom x cod, tested in bulk; False on a malformed pair."""
    try:
        return {w for w, _ in pairs} <= dom and {v for _, v in pairs} <= cod
    except (TypeError, ValueError):
        return False


def _unchecked(cls, **fields):
    """An instance of a frozen value class with its fields set and no check run.

    The path for trusted values of the classes that have no trusted
    constructor of their own (``_rel`` and ``powerset._subset`` build
    relations and subsets): kernel results and data the loader has
    already checked.  Every field is passed by name.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


_new = object.__new__  # one global read per trusted value instead of two lookups


def _rel(dom: FiniteSet, cod: FiniteSet, rows: Iterable[int]) -> Rel:
    """A trusted relation from its rows, with no check: the kernel's results
    and rows already checked.  Sets the fields one by one, since the kernel
    builds many small relations and a keyword dict per call shows."""
    r = _new(Rel)
    d = r.__dict__
    d["dom"] = dom
    d["cod"] = cod
    d["rows"] = tuple(rows)
    return r


def identity(x: FiniteSet) -> Rel:
    return _rel(x, x, [1 << i for i in range(len(x))])


def empty(dom: FiniteSet, cod: FiniteSet) -> Rel:
    return _rel(dom, cod, (0,) * len(dom))


def total(dom: FiniteSet, cod: FiniteSet) -> Rel:
    return _rel(dom, cod, (cod.full,) * len(dom))


def compose(r1: Rel, r2: Rel) -> Rel:
    """Relational composition, r1 first: w (r1;r2) u iff exists v. w r1 v r2 u."""
    if r1.cod != r2.dom:
        raise CarrierMismatch(
            f"compose: middle carriers differ ({r1.cod.name!r} vs {r2.dom.name!r})"
        )
    rows2 = r2.rows
    return _rel(r1.dom, r2.cod, [union_of(rows2, m) if m else 0 for m in r1.rows])


def dagger(r: Rel) -> Rel:
    """The converse relation: the transpose, sharing the cached columns."""
    back = _rel(r.cod, r.dom, r.pred_rows)
    back.__dict__["pred_rows"] = r.rows
    return back


def leq(r1: Rel, r2: Rel) -> bool:
    """Inclusion order on a homset."""
    require_same_carrier(r1.dom, r2.dom, "leq")
    require_same_carrier(r1.cod, r2.cod, "leq")
    rows2 = r2.rows
    return all(map(eq, map(or_, r1.rows, rows2), rows2))


def meet(r1: Rel, r2: Rel) -> Rel:
    require_same_carrier(r1.dom, r2.dom, "meet")
    require_same_carrier(r1.cod, r2.cod, "meet")
    return _rel(r1.dom, r1.cod, map(and_, r1.rows, r2.rows))


def join(r1: Rel, r2: Rel) -> Rel:
    require_same_carrier(r1.dom, r2.dom, "join")
    require_same_carrier(r1.cod, r2.cod, "join")
    return _rel(r1.dom, r1.cod, map(or_, r1.rows, r2.rows))


def check_modularity(r1: Rel, r2: Rel, r3: Rel) -> bool:
    """Law of modularity for r1 : X -> Y, r2 : Y -> Z, r3 : X -> Z.

    Composing r1 then r2, meeting with r3, must stay below composing
    (r1 meet (r3 then dagger r2)) with r2.
    """
    lhs = meet(compose(r1, r2), r3)
    rhs = compose(meet(r1, compose(r3, dagger(r2))), r2)
    return leq(lhs, rhs)


def is_function(r: Rel) -> bool:
    """Total and single-valued, phrased by the dagger inequalities.

    Totality is identity below dagger-then-r; single-valuedness is
    r-then-dagger below identity.
    """
    return leq(identity(r.dom), compose(r, dagger(r))) and leq(
        compose(dagger(r), r), identity(r.cod)
    )


def is_function_pointwise(r: Rel) -> bool:
    """Total and single-valued, read off the rows: one bit per row.

    Agrees with ``is_function`` (the ``rel-laws`` suite checks that it
    does) in time linear in the domain, with no composite built.
    """
    return all(m and not m & (m - 1) for m in r.rows)


def is_injective(r: Rel) -> bool:
    """For functions: dagger-then-r equals the identity on the domain."""
    return compose(r, dagger(r)) == identity(r.dom)


def is_surjective(r: Rel) -> bool:
    """For functions: r-then-dagger equals the identity on the codomain."""
    return compose(dagger(r), r) == identity(r.cod)


def is_jointly_monic(f: Rel, g: Rel) -> bool:
    """A pair of functions out of a common carrier separates its points.

    Holds exactly when the meet of the two kernel relations is the identity.
    """
    if not is_function(f):
        raise NotAFunction("is_jointly_monic: first argument is not a function")
    if not is_function(g):
        raise NotAFunction("is_jointly_monic: second argument is not a function")
    require_same_carrier(f.dom, g.dom, "is_jointly_monic")
    kernel_f = compose(f, dagger(f))
    kernel_g = compose(g, dagger(g))
    return meet(kernel_f, kernel_g) == identity(f.dom)


def function_from_mapping(dom: FiniteSet, cod: FiniteSet, mapping: Mapping[str, str]) -> Rel:
    """Build the graph of a total function given pointwise."""
    missing = [w for w in dom if w not in mapping]
    if missing:
        raise NotAFunction(f"no value for {missing[0]!r} in mapping")
    index = cod.index
    rows = []
    for w in dom:
        v = mapping[w]
        j = index.get(v)
        if j is None:
            raise InvariantViolation(f"mapping sends {w!r} to {v!r}, not in {cod.name!r}")
        rows.append(1 << j)
    return _rel(dom, cod, rows)


def apply_function(f: Rel, w: str) -> str:
    """Evaluate a function relation at a point."""
    i = f.dom.index.get(w)
    m = 0 if i is None else f.rows[i]
    if not m or m & (m - 1):
        raise NotAFunction(f"relation is not a function at {w!r}")
    return f.cod.elements[m.bit_length() - 1]


def pair_label(a: str, b: str) -> str:
    """Canonical label for an element of a binary product carrier."""
    return f"({a},{b})"


@dataclass(init=False, repr=False, eq=False)
class Tabulation(Frozen):
    """A span of functions presenting a relation as pairs.

    The apex carrier is literally the pair set of the relation, in
    domain-major order, with elements labelled "(w,v)".  The two legs are
    the coordinate projections; the relation is recovered as dagger of the
    first leg followed by the second.
    """

    apex: FiniteSet
    r1: Rel
    r2: Rel

    def recompose(self) -> Rel:
        return compose(dagger(self.r1), self.r2)


def tabulate(r: Rel) -> Tabulation:
    cod = r.cod.elements
    ordered = [
        (i, j)
        for i, m in enumerate(r.rows)
        for j in compress(range(len(cod)), bit_flags(m))
    ]
    dom = r.dom.elements
    apex = FiniteSet(
        f"tab({r.dom.name},{r.cod.name})", tuple(pair_label(dom[i], cod[j]) for i, j in ordered)
    )
    leg1 = _rel(apex, r.dom, [1 << i for i, _ in ordered])
    leg2 = _rel(apex, r.cod, [1 << j for _, j in ordered])
    return Tabulation(apex, leg1, leg2)


def closure_reflexive_transitive(r: Rel) -> Rel:
    """Least preorder containing r, by fixpoint iteration."""
    require_same_carrier(r.dom, r.cod, "closure_reflexive_transitive")
    current = join(r, identity(r.dom))
    while True:
        step = join(current, compose(current, current))
        if step == current:
            return current
        current = step


def is_reflexive(r: Rel) -> bool:
    require_same_carrier(r.dom, r.cod, "is_reflexive")
    return leq(identity(r.dom), r)


def is_transitive(r: Rel) -> bool:
    require_same_carrier(r.dom, r.cod, "is_transitive")
    return leq(compose(r, r), r)


def is_symmetric(r: Rel) -> bool:
    require_same_carrier(r.dom, r.cod, "is_symmetric")
    return leq(dagger(r), r)
