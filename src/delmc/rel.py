"""Finite sets and binary relations with dagger structure.

A relation is an explicit set of pairs between two named finite carriers.
Everything is immutable and hashable, so relations can key caches and sit
inside frozen dataclasses.  Binary operations demand exact carrier equality
(same name, same element order); nothing is coerced.

Data is checked where it enters.  The public constructors (``Rel(...)``,
``rel()``, ``function_from_mapping``, ``Subset(...)``, ``FrameMap(...)``,
``initial_lift``) test every pair and member against its carriers, and
functionality where a function is asked for; the JSON loader tests each
document relation whole.  After that point values are trusted: the
kernel's own results (``identity``, ``compose``, ``dagger``, ``meet``,
``join``, lifted frames and their legs, the evaluator's images) lie in
their carriers by construction, and the one private constructor
``_unchecked`` builds them with no check.

Composition is written in application order: ``compose(r1, r2)`` relates
``w`` to ``u`` when some ``v`` has ``w r1 v`` and ``v r2 u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

from .errors import CarrierMismatch, InvariantViolation, NotAFunction


@dataclass(frozen=True)
class FiniteSet:
    """A named finite carrier with a fixed element order.

    The order is part of the value: it pins down iteration, printing and
    the layout of derived structures, so runs are deterministic.
    """

    name: str
    elements: Tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        seen = set()
        for e in self.elements:
            if e in seen:
                raise InvariantViolation(f"duplicate element {e!r} in carrier {self.name!r}")
            seen.add(e)

    @cached_property
    def as_set(self) -> FrozenSet[str]:
        return frozenset(self.elements)

    @cached_property
    def index(self) -> Dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item: object) -> bool:
        return item in self.as_set

    def __repr__(self) -> str:
        return f"FiniteSet({self.name!r}, {list(self.elements)!r})"


def require_same_carrier(a: FiniteSet, b: FiniteSet, where: str) -> None:
    if a != b:
        raise CarrierMismatch(f"{where}: carrier {a.name!r} != carrier {b.name!r}")


@dataclass(frozen=True)
class Rel:
    """A binary relation between two finite carriers, stored as a pair set."""

    dom: FiniteSet
    cod: FiniteSet
    pairs: FrozenSet[Tuple[str, str]]

    def __post_init__(self):
        if not isinstance(self.pairs, frozenset):
            object.__setattr__(self, "pairs", frozenset(self.pairs))
        if _within(self.pairs, self.dom.as_set, self.cod.as_set):
            return
        for w, v in self.pairs:  # word the first stray or malformed pair
            if w not in self.dom:
                raise InvariantViolation(f"pair ({w!r}, {v!r}): {w!r} not in domain {self.dom.name!r}")
            if v not in self.cod:
                raise InvariantViolation(f"pair ({w!r}, {v!r}): {v!r} not in codomain {self.cod.name!r}")

    @cached_property
    def successors(self) -> Dict[str, FrozenSet[str]]:
        # lists, not sets: the pairs are distinct, so no row repeats a point
        succ: Dict[str, list] = {w: [] for w in self.dom}
        for w, v in self.pairs:
            succ[w].append(v)
        return {w: frozenset(vs) for w, vs in succ.items()}

    @cached_property
    def predecessors(self) -> Dict[str, FrozenSet[str]]:
        pred: Dict[str, list] = {v: [] for v in self.cod}
        for w, v in self.pairs:
            pred[v].append(w)
        return {v: frozenset(ws) for v, ws in pred.items()}

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
    """An instance of a frozen dataclass with its fields set and no check run.

    The one path for trusted values: kernel results and data the loader
    has already checked.  Every field is passed by name.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def rel(dom: FiniteSet, cod: FiniteSet, pairs: Iterable[Tuple[str, str]]) -> Rel:
    """Build a relation from any iterable of pairs."""
    return Rel(dom, cod, frozenset(pairs))


def identity(x: FiniteSet) -> Rel:
    return _unchecked(Rel, dom=x, cod=x, pairs=frozenset((e, e) for e in x))


def empty(dom: FiniteSet, cod: FiniteSet) -> Rel:
    return _unchecked(Rel, dom=dom, cod=cod, pairs=frozenset())


def total(dom: FiniteSet, cod: FiniteSet) -> Rel:
    return _unchecked(Rel, dom=dom, cod=cod, pairs=frozenset((w, v) for w in dom for v in cod))


def compose(r1: Rel, r2: Rel) -> Rel:
    """Relational composition, r1 first: w (r1;r2) u iff exists v. w r1 v r2 u."""
    if r1.cod != r2.dom:
        raise CarrierMismatch(
            f"compose: middle carriers differ ({r1.cod.name!r} vs {r2.dom.name!r})"
        )
    succ2 = r2.successors
    out = set()
    for w, v in r1.pairs:
        for u in succ2[v]:
            out.add((w, u))
    return _unchecked(Rel, dom=r1.dom, cod=r2.cod, pairs=frozenset(out))


def dagger(r: Rel) -> Rel:
    """The converse relation."""
    return _unchecked(Rel, dom=r.cod, cod=r.dom, pairs=frozenset((v, w) for w, v in r.pairs))


def leq(r1: Rel, r2: Rel) -> bool:
    """Inclusion order on a homset."""
    require_same_carrier(r1.dom, r2.dom, "leq")
    require_same_carrier(r1.cod, r2.cod, "leq")
    return r1.pairs <= r2.pairs


def meet(r1: Rel, r2: Rel) -> Rel:
    require_same_carrier(r1.dom, r2.dom, "meet")
    require_same_carrier(r1.cod, r2.cod, "meet")
    return _unchecked(Rel, dom=r1.dom, cod=r1.cod, pairs=r1.pairs & r2.pairs)


def join(r1: Rel, r2: Rel) -> Rel:
    require_same_carrier(r1.dom, r2.dom, "join")
    require_same_carrier(r1.cod, r2.cod, "join")
    return _unchecked(Rel, dom=r1.dom, cod=r1.cod, pairs=r1.pairs | r2.pairs)


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
    """Total and single-valued, read off the rows: one successor per point.

    Agrees with ``is_function`` (the ``rel-laws`` suite checks that it
    does) in time linear in the pairs, with no composite built.
    """
    return all(len(vs) == 1 for vs in r.successors.values())


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
    pairs = set()
    for w in dom:
        v = mapping[w]
        if v not in cod:
            raise InvariantViolation(f"mapping sends {w!r} to {v!r}, not in {cod.name!r}")
        pairs.add((w, v))
    return _unchecked(Rel, dom=dom, cod=cod, pairs=frozenset(pairs))


def apply_function(f: Rel, w: str) -> str:
    """Evaluate a function relation at a point."""
    image = f.successors.get(w, frozenset())
    if len(image) != 1:
        raise NotAFunction(f"relation is not a function at {w!r}")
    return next(iter(image))


def pair_label(a: str, b: str) -> str:
    """Canonical label for an element of a binary product carrier."""
    return f"({a},{b})"


def tuple_label(items: Tuple[str, ...]) -> str:
    """Canonical label for an n-tuple element, n >= 2 in practice."""
    return "(" + ",".join(items) + ")"


@dataclass(frozen=True)
class Tabulation:
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
    ordered = sorted(r.pairs, key=lambda p: (r.dom.index[p[0]], r.cod.index[p[1]]))
    labels = tuple(pair_label(w, v) for w, v in ordered)
    apex = FiniteSet(f"tab({r.dom.name},{r.cod.name})", labels)
    leg1 = _unchecked(
        Rel, dom=apex, cod=r.dom, pairs=frozenset((pair_label(w, v), w) for w, v in ordered)
    )
    leg2 = _unchecked(
        Rel, dom=apex, cod=r.cod, pairs=frozenset((pair_label(w, v), v) for w, v in ordered)
    )
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
