"""Randomized law suites over batches of generated finite structures.

Each suite draws structures from a seeded generator, runs the library's
own verification entry points on them, and records every violated law as
a (label, witness) pair.  A suite passes when no case fails.

One driver, ``_Collector``, runs every suite.  It owns the suite's single
``random.Random(seed)``, and ``for rng in col.cases(n)`` hands it out
once per case, so case i depends on every draw before it.  A failure
inside the loop is labelled ``case <i>: <law>``; one outside it (the
exhaustive sweeps of ``rel-laws`` and ``topological``, and the
suite-level thresholds) keeps its bare law name.  A witness is a plain
string, named values, or both: ``col.expect("modularity", ok, r1=r1,
r2=r2, r3=r3)`` records ``r1=<dom>-><cod>:<sorted pairs> r2=... r3=...``
on failure; named values are formatted only then.

Two suite-level checks are set for the default case counts in
``DEFAULT_CASES``: beck-chevalley asks for at least 5 commuting
non-pullback squares that break the image law, and del-reduction for at
least 10 unbounded updates with a learning witness.  Much smaller runs
(``delmc laws --cases 5``) can fail them without any law failing.

The relation laws that ``rel-laws`` checks both exhaustively and on
random relations (units, associativity, the dagger laws, modularity and
whiskering) are stated once, in ``_REL_LAWS``, as rows of ``(law,
argument shape, predicate)``.  The sweep enumerates each row's shape
over every relation on carriers of at most 2 points; each random case
applies the same predicate to the relations it drew.

The self test plants a deliberately wrong inequality in place of the
modularity law and passes only when the random search refutes it, so a
vacuous harness cannot pass silently.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, NotAPullback, NotReducible, OutOfRange, UnknownSuite
from .formulas import (
    FormulaInContext,
    Fun,
    TermInContext,
    Var,
)
from .frames import (
    FrameMap,
    KripkeFrame,
    common_knowledge_relation,
    initial_lift,
    is_bisimulation,
    is_bounded,
    is_monotone,
    largest_preserved_check,
    product,
    pullback,
    subframe,
)
from .frozen import Frozen
from .generators import (
    plant_non_sheaf,
    random_agents,
    random_bounded_map,
    random_carrier,
    random_event_model,
    random_fo_event_model,
    random_fo_formula,
    random_fo_term,
    random_formula,
    random_frame,
    random_function,
    random_model,
    random_monotone_map,
    random_relation,
    random_sheaf,
    random_sheaf_model,
    random_subset,
    random_surjection,
)
from .models import (
    LawReport,
    check_update_routes,
    no_learning_check,
    product_update,
    static_precondition_modalities,
)
from .powerset import (
    ImageMaps,
    Subset,
    apply,
    beck_chevalley_equation,
    check_adjunction,
    check_beck_chevalley,
    check_biduality_laws,
    empty_subset,
    exists_image,
    forall_image,
    full_subset,
    image_maps,
    map_leq,
    relation_from_join_map,
    relation_from_meet_map,
    verify_preserves_all_joins,
    verify_preserves_all_meets,
)
from .reduction import (
    is_static,
    reduce_formula,
    verify_del_reductions,
    verify_pal_reductions,
    verify_quantifier_reduction,
)
from .rel import (
    FiniteSet,
    Rel,
    check_modularity,
    closure_reflexive_transitive,
    compose,
    dagger,
    function_from_mapping,
    identity,
    is_function,
    is_function_pointwise,
    is_injective,
    is_jointly_monic,
    is_reflexive,
    is_surjective,
    is_symmetric,
    is_transitive,
    join,
    leq,
    meet,
    pair_label,
    tabulate,
)
from .sheaves import (
    check_diagonal_characterization,
    check_pullback_update,
    check_substitution_box_commutation,
    check_substitution_functoriality,
    check_transition_commutation,
    is_kripke_sheaf,
    pullback_update,
)


@dataclass(init=False, repr=False, eq=False)
class Report(Frozen):
    """Outcome of one suite: case count, failures, and wall time."""

    suite: str
    cases: int
    failures: Tuple[Tuple[str, str], ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One line ``<suite>: <cases> cases in <s>s: <verdict>``.

        The verdict is ``ok`` when no case failed, and
        ``FAILED (<n> failure(s))`` otherwise.
        """
        verdict = "ok" if self.ok else f"FAILED ({len(self.failures)} failure(s))"
        return f"{self.suite}: {self.cases} cases in {self.seconds:.2f}s: {verdict}"


class _Collector:
    """The case driver and bookkeeping of one suite run."""

    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.rng = random.Random(seed)
        self.case: Optional[int] = None
        self.failures: List[Tuple[str, str]] = []
        self.started = time.perf_counter()

    def cases(self, n: int) -> Iterator[random.Random]:
        """Yield the suite's generator once per case, numbering the cases."""
        for self.case in range(n):
            yield self.rng
        self.case = None

    def expect(self, law: str, ok: bool, witness: str = "", /, **named: object) -> None:
        """Record a failure when not ok, labelled with the current case.

        The witness text is built only on failure, by ``_witness``.
        """
        if not ok:
            label = law if self.case is None else f"case {self.case}: {law}"
            self.failures.append((label, _witness(witness, **named)))

    def expect_checks(self, rep: LawReport, prefix: str = "", with_name: bool = True) -> None:
        """Record each failed check of a report, labelled prefix + check name."""
        for check in rep.failures():
            self.expect(prefix + check.name if with_name else prefix, False, check.witness or "")

    def report(self, cases: int) -> Report:
        return Report(
            self.suite, cases, tuple(self.failures), time.perf_counter() - self.started
        )


def _witness(plain: str = "", /, **named: object) -> str:
    """A plain witness, then ``name=value`` for each named one; a relation
    is written as its carriers and sorted pairs, ``dom->cod:[...]``, and a
    carrier as its name."""
    parts = [plain] if plain else []
    for name, value in named.items():
        if isinstance(value, Rel):
            value = f"{value.dom.name}->{value.cod.name}:{sorted(value.pairs)}"
        elif isinstance(value, FiniteSet):
            value = value.name
        parts.append(f"{name}={value}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Relation algebra

_SMALL_CARRIERS = (
    FiniteSet("v0", ()),
    FiniteSet("v1", ("v1x",)),
    FiniteSet("v2", ("v2x", "v2y")),
)

# Argument shape -> (witness names, the (dom, cod) of each relation as
# indices into a row of carriers, whether the first must lie below the
# second).  The carrier shape takes one carrier and no relation.
_SHAPES: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[int, int], ...], bool]] = {
    "carrier": (("a",), (), False),
    "relation": (("r",), ((0, 1),), False),
    "pair": (("r1", "r2"), ((0, 1), (1, 2)), False),
    "triple": (("r1", "r2", "r3"), ((0, 1), (1, 2), (2, 3)), False),
    "modular": (("r1", "r2", "r3"), ((0, 1), (1, 2), (0, 2)), False),
    "right leg": (("r", "s", "t"), ((0, 1), (0, 1), (1, 2)), True),
    "left leg": (("r", "s", "u"), ((0, 1), (0, 1), (2, 0)), True),
}

# The relation laws, each stated once as (law, argument shape, predicate).
_REL_LAWS: Tuple[Tuple[str, str, Callable[..., bool]], ...] = (
    ("dagger fixes identities", "carrier", lambda a: dagger(identity(a)) == identity(a)),
    (
        "units",
        "relation",
        lambda r: compose(identity(r.dom), r) == r and compose(r, identity(r.cod)) == r,
    ),
    ("dagger involution", "relation", lambda r: dagger(dagger(r)) == r),
    (
        "dagger contravariance",
        "pair",
        lambda r1, r2: dagger(compose(r1, r2)) == compose(dagger(r2), dagger(r1)),
    ),
    ("modularity", "modular", check_modularity),
    ("right whiskering", "right leg", lambda r, s, t: leq(compose(r, t), compose(s, t))),
    ("left whiskering", "left leg", lambda r, s, u: leq(compose(u, r), compose(u, s))),
    (
        "associativity",
        "triple",
        lambda r1, r2, r3: compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3)),
    ),
)


def _expect_law(
    col: _Collector, label: str, shape: str, holds: Callable[..., bool], args: tuple
) -> None:
    """Record a failure of one law on one argument tuple of its shape."""
    if not holds(*args):
        col.expect(label, False, **dict(zip(_SHAPES[shape][0], args)))


def _all_relations(a: FiniteSet, b: FiniteSet) -> List[Rel]:
    """Every relation between two carriers, in a fixed enumeration order."""
    cells = [(x, y) for x in a.elements for y in b.elements]
    return [
        Rel(a, b, frozenset(c for i, c in enumerate(cells) if bits >> i & 1))
        for bits in range(1 << len(cells))
    ]


def _small_arguments(
    shape: str, hom: Dict[Tuple[FiniteSet, FiniteSet], List[Rel]]
) -> Iterator[tuple]:
    """Every argument tuple of a shape over the small carriers."""
    _, edges, ordered = _SHAPES[shape]
    if not edges:
        yield from ((x,) for x in _SMALL_CARRIERS)
        return
    width = 1 + max(i for edge in edges for i in edge)
    for xs in itertools.product(_SMALL_CARRIERS, repeat=width):
        for args in itertools.product(*(hom[xs[i], xs[j]] for i, j in edges)):
            if not ordered or leq(args[0], args[1]):
                yield args


def _sweep_small_relations(col: _Collector) -> Dict[str, int]:
    """Every law of the table on every argument of its shape over carriers
    of at most 2 points, labelled "exhaustive <law>"; returns the number
    of instances checked per law."""
    hom = {(x, y): _all_relations(x, y) for x in _SMALL_CARRIERS for y in _SMALL_CARRIERS}
    counts: Dict[str, int] = {}
    for law, shape, holds in _REL_LAWS:
        counts[law] = 0
        for args in _small_arguments(shape, hom):
            counts[law] += 1
            _expect_law(col, "exhaustive " + law, shape, holds, args)
    return counts


def run_rel_laws(seed: int, cases: int, max_size: int = 5) -> Report:
    """The relation laws of ``_REL_LAWS`` on every relation over carriers of
    at most 2 points, then on each case's drawn relations, with dagger
    monotonicity, meets and joins, function predicates and tabulation
    stated for the random cases alone."""
    col = _Collector("rel-laws", seed)
    swept = sum(_sweep_small_relations(col).values())
    for rng in col.cases(cases):
        a = random_carrier(rng, rng.randrange(1, max_size + 1), "a")
        b = random_carrier(rng, rng.randrange(1, max_size + 1), "b")
        c = random_carrier(rng, rng.randrange(1, max_size + 1), "c")
        d = random_carrier(rng, rng.randrange(1, max_size + 1), "d")
        r1 = random_relation(rng, a, b)
        r2 = random_relation(rng, b, c)
        r3 = random_relation(rng, a, c)
        s = random_relation(rng, c, d)
        bigger = join(r1, random_relation(rng, a, b))
        smaller = meet(r1, random_relation(rng, a, b))
        left_leg = random_relation(rng, d, a)
        drawn = {
            "carrier": (a,),
            "relation": (r1,),
            "pair": (r1, r2),
            "triple": (r1, r2, s),
            "modular": (r1, r2, r3),
            "right leg": (smaller, r1, r2),
            "left leg": (smaller, r1, left_leg),
        }
        for law, shape, holds in _REL_LAWS:
            _expect_law(col, law, shape, holds, drawn[shape])
        col.expect("dagger is monotone", leq(dagger(r1), dagger(bigger)), r1=r1, bigger=bigger)
        col.expect(
            "meet below",
            leq(meet(r1, bigger), r1) and leq(r1, join(r1, bigger)),
            r1=r1, other=bigger,
        )

        f = random_function(rng, a, b)
        f_is_function = is_function(f)
        col.expect("generated map is a function", f_is_function, f=f)
        big = a if len(a.elements) >= len(b.elements) else random_carrier(rng, len(b.elements), "a")
        surj = random_surjection(rng, big, b)
        col.expect("generated surjection is surjective", is_surjective(surj), surj=surj)
        targets = list(b.elements)
        rng.shuffle(targets)
        inj_size = rng.randrange(1, len(b.elements) + 1)
        inj_dom = random_carrier(rng, inj_size, "i")
        inj = Rel(inj_dom, b, frozenset(zip(inj_dom.elements, targets)))
        col.expect("distinct-valued map is injective", is_injective(inj), inj=inj)
        # (name, relation, its functionality by the dagger definition)
        pointwise_cases = [("f", f, f_is_function), ("r1", r1, is_function(r1))]
        if len(a.elements) >= 2 and len(b.elements) >= 1:
            tgt = b.elements[0]
            collapse = Rel(a, b, frozenset((w, tgt) for w in a.elements))
            col.expect(
                "collapsing map is not injective", not is_injective(collapse), collapse=collapse
            )
            pointwise_cases.append(("collapse", collapse, is_function(collapse)))
        for name, g, by_dagger in pointwise_cases:
            if is_function_pointwise(g) != by_dagger:
                col.expect(f"pointwise functionality agrees on {name}", False, g=g)

        tab = tabulate(r1)
        col.expect("tabulation recomposes", tab.recompose() == r1, r1=r1, apex=tab.apex.name)
        col.expect(
            "tabulation legs are functions",
            is_function(tab.r1) and is_function(tab.r2),
            tab.apex.name,
        )
        col.expect(
            "tabulation legs jointly monic", is_jointly_monic(tab.r1, tab.r2), tab.apex.name
        )
    return col.report(cases + swept)


# ---------------------------------------------------------------------------
# Relation / powerset-map duality


def _fixed_subsets(x: FiniteSet) -> List[Subset]:
    """Empty, full and every other element, in carrier order: no draws."""
    return [empty_subset(x), full_subset(x), Subset(x, frozenset(x.elements[::2]))]


def run_duality(seed: int, cases: int, max_size: int = 4) -> Report:
    """Round trips, adjunctions, join/meet preservation, functoriality, order."""
    col = _Collector("duality", seed)
    for rng in col.cases(cases):
        a = random_carrier(rng, rng.randrange(1, max_size + 1), "a")
        b = random_carrier(rng, rng.randrange(1, max_size + 1), "b")
        c = random_carrier(rng, rng.randrange(1, max_size + 1), "c")
        r = random_relation(rng, a, b)
        r2 = random_relation(rng, b, c)

        images: ImageMaps = {}  # each relation's image maps, built once per case
        em, fm = image_maps(r, images)
        back = dagger(r)
        back_em, back_fm = image_maps(back, images)
        for name, along, rows, univ, direct in (
            ("r", r, r.pred_rows, fm, em),
            ("dagger(r)", back, r.rows, back_fm, back_em),
        ):
            for sub in _fixed_subsets(along.dom):
                agree = forall_image(rows, sub.mask) == apply(univ, sub).mask
                agree = agree and exists_image(rows, sub.mask) == apply(direct, sub).mask
                if not agree:
                    col.expect(
                        f"row images along {name} match the image maps",
                        False,
                        r=r, s=sub.members_in_order(),
                    )
        col.expect("join-map round trip", relation_from_join_map(em) == r, r=r)
        col.expect("meet-map round trip", relation_from_meet_map(fm) == r, r=r)
        col.expect("join extension preserves joins", verify_preserves_all_joins(em), r=r)
        col.expect("meet extension preserves meets", verify_preserves_all_meets(fm), r=r)
        col.expect("direct image adjoint to universal image", check_adjunction(r, images=images), r=r)
        bid = check_biduality_laws(r, r2, images)
        col.expect("biduality laws", bid.ok, failed=bid.failed(), r=r, r2=r2)
        bigger = join(r, random_relation(rng, a, b))
        big_em, big_fm = image_maps(bigger, images)
        col.expect("order preserved covariantly", map_leq(em, big_em), r=r, bigger=bigger)
        col.expect("order reflected contravariantly", map_leq(big_fm, fm), r=r, bigger=bigger)
        if bigger != r:
            col.expect(
                "strict order not inverted covariantly",
                not map_leq(big_em, em),
                r=r, bigger=bigger,
            )
            col.expect(
                "strict order not inverted contravariantly",
                not map_leq(fm, big_fm),
                r=r, bigger=bigger,
            )
        other = random_relation(rng, a, b)
        bid = check_biduality_laws(r, other, images)
        col.expect("biduality order laws", bid.ok, failed=bid.failed(), r=r, other=other)
    return col.report(cases)


# ---------------------------------------------------------------------------
# Image squares over pullbacks


def run_beck_chevalley(seed: int, cases: int, max_size: int = 4) -> Report:
    """Canonical pullback squares satisfy the image law; fakes are rejected
    and enough of them are caught actually breaking the equation."""
    col = _Collector("beck-chevalley", seed)
    broken = 0
    for rng in col.cases(cases):
        x = random_carrier(rng, rng.randrange(1, max(2, max_size - 1)), "x")
        y = random_carrier(rng, rng.randrange(1, max_size + 1), "y")
        z = random_carrier(rng, rng.randrange(1, max_size + 1), "z")
        f = random_function(rng, y, x)
        g = random_function(rng, z, x)
        pairs = [
            (w, v)
            for w in y.elements
            for v in z.elements
            if f.successors[w] == g.successors[v]
        ]
        apex = FiniteSet(
            f"({y.name}x[{x.name}]{z.name})", tuple(pair_label(w, v) for w, v in pairs)
        )
        p = Rel(apex, y, frozenset((pair_label(w, v), w) for w, v in pairs))
        q = Rel(apex, z, frozenset((pair_label(w, v), v) for w, v in pairs))
        try:
            ok = check_beck_chevalley(p, q, f, g)
        except Exception as exc:  # a raise on the honest square is itself a failure
            col.expect("image law over pullback", False, f"raised {exc!r}")
        else:
            col.expect("image law over pullback", ok, f=f, g=g)

        if pairs:
            dropped = pairs[rng.randrange(len(pairs))]
            kept = [pv for pv in pairs if pv != dropped]
            apex2 = FiniteSet(
                f"({apex.name}-1)", tuple(pair_label(w, v) for w, v in kept)
            )
            p2 = Rel(apex2, y, frozenset((pair_label(w, v), w) for w, v in kept))
            q2 = Rel(apex2, z, frozenset((pair_label(w, v), v) for w, v in kept))
            try:
                check_beck_chevalley(p2, q2, f, g)
                col.expect(
                    "strict sub-square rejected",
                    False,
                    f"dropped {dropped}, no NotAPullback raised",
                )
            except NotAPullback:
                pass
            commutes = compose(p2, f) == compose(q2, g)
            if commutes and not beck_chevalley_equation(p2, q2, f, g):
                broken += 1

            w0, v0 = pairs[0]
            apex3 = FiniteSet(f"({apex.name}+dup)", apex.elements + ("dup",))
            p3 = Rel(apex3, y, p.pairs | {("dup", w0)})
            q3 = Rel(apex3, z, q.pairs | {("dup", v0)})
            try:
                check_beck_chevalley(p3, q3, f, g)
                col.expect(
                    "non-monic pairing rejected",
                    False,
                    f"duplicated {(w0, v0)}, no NotAPullback raised",
                )
            except NotAPullback:
                pass
    col.expect(
        "at least 5 commuting non-pullback squares break the image law",
        broken >= 5,
        f"found {broken}",
    )
    return col.report(cases)


# ---------------------------------------------------------------------------
# Frame constructions


def _candidate_rels(rng: random.Random, frame_rel: Rel, extra: int = 3) -> List[Rel]:
    """The lifted relation itself plus random neighbours on its carrier."""
    carrier = frame_rel.dom
    out = [frame_rel]
    for _ in range(extra):
        noise = random_relation(rng, carrier, carrier)
        pick = rng.randrange(3)
        if pick == 0:
            out.append(noise)
        elif pick == 1:
            out.append(meet(frame_rel, noise))
        else:
            out.append(join(frame_rel, noise))
    return out


def _is_monotone_composite(m: FrameMap) -> bool:
    """Monotone by definition: ``compose(R, f) <= compose(f, S)`` per
    agent, the composites that ``is_monotone`` reads off the rows."""
    return all(
        leq(compose(m.src.rel(a), m.fn), compose(m.fn, m.dst.rel(a))) for a in m.src.agents
    )


def _is_bounded_composite(m: FrameMap) -> bool:
    """Bounded by definition: ``compose(R, f) == compose(f, S)`` per agent."""
    return all(
        compose(m.src.rel(a), m.fn) == compose(m.fn, m.dst.rel(a)) for a in m.src.agents
    )


def _lift_biconditional(
    zframe: KripkeFrame,
    gfn: Rel,
    lift: KripkeFrame,
    targets: Sequence[KripkeFrame],
    fns: Sequence[Rel],
) -> bool:
    """A map lands monotonically in the lift exactly when every composite
    with the lifted family is monotone into its target."""
    into_lift = is_monotone(FrameMap(zframe, lift, gfn))
    through = all(
        is_monotone(FrameMap(zframe, t, compose(gfn, fn)))
        for t, fn in zip(targets, fns)
    )
    return into_lift == through


def _exhaustive_lift_property(col: _Collector) -> int:
    """The lift biconditional over every candidate map and relation family
    on sources of size up to two, for a couple of generated lift setups
    drawn from the suite's generator."""
    rng = col.rng
    checked = 0
    for n_agents, n_targets in ((1, 1), (2, 2)):
        agents = random_agents(rng, n_agents)
        targets = [
            random_frame(rng, random_carrier(rng, rng.randrange(1, 4), f"t{k}"), agents)
            for k in range(n_targets)
        ]
        dom = random_carrier(rng, 3, "x")
        fns = [random_function(rng, dom, t.carrier) for t in targets]
        lift = initial_lift(targets, fns)
        for z_size in (0, 1, 2):
            z = FiniteSet(f"z{z_size}", tuple(f"z{k}" for k in range(z_size)))
            z_rels = _all_relations(z, z)
            for images in itertools.product(dom.elements, repeat=z_size):
                gfn = Rel(z, dom, frozenset(zip(z.elements, images)))
                for combo in itertools.product(z_rels, repeat=n_agents):
                    zframe = KripkeFrame.make(z, agents, dict(zip(agents.agents, combo)))
                    checked += 1
                    if not _lift_biconditional(zframe, gfn, lift, targets, fns):
                        col.expect(
                            "exhaustive lift property",
                            False,
                            g=gfn, z=[sorted(r.pairs) for r in combo],
                        )
    return checked


def _close_frame(f: KripkeFrame, mode: str) -> KripkeFrame:
    """The frame with every agent relation closed under one property."""
    rels = {}
    for a in f.agents:
        r = f.rel(a)
        if mode == "reflexive":
            rels[a] = join(r, identity(f.carrier))
        elif mode == "symmetric":
            rels[a] = join(r, dagger(r))
        elif mode == "transitive":
            rels[a] = compose(r, closure_reflexive_transitive(r))
        else:
            raise InvariantViolation(f"unknown closure mode {mode!r}")
    return KripkeFrame.make(f.carrier, f.agents, rels)


_PROPERTY_PREDICATES = {
    "reflexive": is_reflexive,
    "transitive": is_transitive,
    "symmetric": is_symmetric,
}


def run_topological(seed: int, cases: int, max_size: int = 5) -> Report:
    """Initial lifts, products, subframes, pullbacks, bisimulations, closure."""
    col = _Collector("topological", seed)
    swept = _exhaustive_lift_property(col)
    for rng in col.cases(cases):
        agents = random_agents(rng, rng.randrange(1, 3))
        dst = random_frame(rng, random_carrier(rng, rng.randrange(2, max_size), "t"), agents)

        m = random_monotone_map(rng, rng.randrange(2, max_size + 1), dst)
        col.expect("generated map is monotone", is_monotone(m), m.src.carrier.name)
        bnd = random_bounded_map(rng, rng.randrange(2, max_size + 1), dst)
        col.expect(
            "generated bounded map is bounded",
            is_monotone(bnd) and is_bounded(bnd),
            bnd.src.carrier.name,
        )

        dom = random_carrier(rng, rng.randrange(1, max_size + 1), "u")
        fn = random_function(rng, dom, dst.carrier)
        lift = initial_lift([dst], [fn])
        cands = _candidate_rels(rng, lift.rel(agents.agents[0]))
        col.expect(
            "initial lift is the largest preserved structure",
            largest_preserved_check(lift, [dst], [fn], cands),
            fn=fn,
        )
        z = random_carrier(rng, rng.randrange(1, 4), "z")
        zframe = KripkeFrame.make(
            z, agents, {a: random_relation(rng, z, z) for a in agents}
        )
        gfn = random_function(rng, z, lift.carrier)
        col.expect(
            "maps into the lift are monotone exactly componentwise",
            _lift_biconditional(zframe, gfn, lift, [dst], [fn]),
            g=gfn,
        )
        # the pointwise map properties against their composite definitions,
        # on a monotone, a bounded and a random map
        for name, fm in (("m", m), ("bnd", bnd), ("g", FrameMap(zframe, lift, gfn))):
            col.expect(
                f"pointwise monotonicity agrees on {name}",
                is_monotone(fm) == _is_monotone_composite(fm),
                f=fm.fn,
            )
            col.expect(
                f"pointwise boundedness agrees on {name}",
                is_bounded(fm) == _is_bounded_composite(fm),
                f=fm.fn,
            )

        other = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), "s"), agents)
        fn2 = random_function(rng, dom, other.carrier)
        for mode, pred in _PROPERTY_PREDICATES.items():
            closed_lift = initial_lift(
                [_close_frame(dst, mode), _close_frame(other, mode)], [fn, fn2]
            )
            col.expect(
                f"lift of {mode} targets is {mode}",
                all(pred(closed_lift.rel(a)) for a in closed_lift.agents),
                fn=fn, fn2=fn2,
            )
        prod, p1, p2 = product(dst, other)
        col.expect(
            "product projections monotone",
            is_monotone(p1) and is_monotone(p2),
            prod.carrier.name,
        )
        col.expect(
            "product carries the largest componentwise structure",
            largest_preserved_check(
                prod,
                [dst, other],
                [p1.fn, p2.fn],
                _candidate_rels(rng, prod.rel(agents.agents[0]), extra=2),
            ),
            prod.carrier.name,
        )

        keep = random_subset(rng, dst.carrier, density=0.7)
        if keep.members:
            sub, incl = subframe(dst, keep)
            col.expect(
                "subframe inclusion monotone and injective",
                is_monotone(incl) and is_injective(incl.fn),
                sub.carrier.name,
            )
            col.expect(
                "subframe carries the restricted structure",
                largest_preserved_check(
                    sub, [dst], [incl.fn], _candidate_rels(rng, sub.rel(agents.agents[0]), extra=2)
                ),
                sub.carrier.name,
            )

        _, p, q = pullback(m, bnd)
        col.expect(
            "pullback of a bounded map along a monotone map is bounded",
            is_bounded(p),
            f"{m.src.carrier.name} vs {bnd.src.carrier.name}",
        )
        col.expect(
            "pullback square satisfies the image law",
            beck_chevalley_equation(p.fn, q.fn, m.fn, bnd.fn),
            f"{m.src.carrier.name} vs {bnd.src.carrier.name}",
        )

        col.expect(
            "graph of a bounded map is a bisimulation",
            is_bisimulation(bnd.src, bnd.dst, bnd.fn),
            bnd.src.carrier.name,
        )
        col.expect(
            "identity relation is a bisimulation",
            is_bisimulation(dst, dst, identity(dst.carrier)),
            dst.carrier.name,
        )

        group = list(agents.agents)
        ck = common_knowledge_relation(dst, group)
        union = dst.rel(group[0])
        for ag in group[1:]:
            union = join(union, dst.rel(ag))
        basics = (
            is_reflexive(ck)
            and is_transitive(ck)
            and all(leq(dst.rel(ag), ck) for ag in group)
        )
        col.expect("shared-knowledge closure properties", basics, dst.carrier.name)
        bigger = closure_reflexive_transitive(join(union, random_relation(rng, dst.carrier, dst.carrier)))
        col.expect("shared-knowledge closure is least", leq(ck, bigger), bigger=bigger)
    return col.report(cases + swept)


# ---------------------------------------------------------------------------
# Announcement reduction laws


def run_pal_reduction(seed: int, cases: int, max_size: int = 4) -> Report:
    """Announcement reduction equivalences plus the precondition-modality check."""
    col = _Collector("pal-reduction", seed)
    atoms = ("p", "q")
    for rng in col.cases(cases):
        agents = random_agents(rng, rng.randrange(1, 3))
        model = random_model(rng, rng.randrange(2, max_size + 1), agents, atoms)
        ag = tuple(agents)
        sigma = random_formula(rng, atoms, ag, rng.randrange(0, 3), allow_dynamic=False)
        phi = random_formula(rng, atoms, ag, rng.randrange(0, 3), allow_dynamic=False)
        psi = random_formula(rng, atoms, ag, rng.randrange(0, 2), allow_dynamic=False)
        col.expect_checks(verify_pal_reductions(model, sigma, phi, psi))
        try:
            static_precondition_modalities(model, sigma)
        except InvariantViolation as exc:
            col.expect("precondition modalities", False, str(exc))
    return col.report(cases)


# ---------------------------------------------------------------------------
# Event-update reduction laws


def run_del_reduction(seed: int, cases: int, max_size: int = 4) -> Report:
    """Event reduction equivalences, rewriting, and the no-learning criterion."""
    col = _Collector("del-reduction", seed)
    atoms = ("p", "q")
    learning = 0
    for rng in col.cases(cases):
        agents = random_agents(rng, rng.randrange(1, 3))
        model = random_model(rng, rng.randrange(2, max_size + 1), agents, atoms)
        ev_model = random_event_model(rng, rng.randrange(1, 4), agents, atoms)
        events = list(ev_model.events)
        event = rng.choice(events)
        ag = tuple(agents)
        refs = [("_update", e) for e in events] if rng.random() < 0.3 else []
        phi = random_formula(rng, atoms, ag, rng.randrange(0, 3), event_refs=refs)
        psi = random_formula(rng, atoms, ag, rng.randrange(0, 2), allow_dynamic=False)
        col.expect_checks(verify_del_reductions(model, ev_model, event, phi, psi))
        col.expect_checks(check_update_routes(product_update(model, ev_model)))

        nl = no_learning_check(model, ev_model, depth=2)
        col.expect(
            "event box of a bounded update never teaches",
            (not nl.bounded) or nl.holds,
            nl.witness or "",
        )
        if not nl.bounded and not nl.holds:
            learning += 1

        dyn = random_formula(
            rng, atoms, ag, rng.randrange(1, 3), event_refs=[("_update", e) for e in events]
        )
        try:
            res = reduce_formula(dyn, model=model, registry={"_update": ev_model})
        except (NotReducible, InvariantViolation) as exc:
            col.expect("rewriting stays extension-true", False, str(exc))
        else:
            col.expect(
                "rewriting reaches a static formula", is_static(res.result), steps=res.step_count
            )
    col.expect(
        "at least 10 unbounded updates exhibit a learning witness",
        learning >= 10,
        f"found {learning}",
    )
    return col.report(cases)


# ---------------------------------------------------------------------------
# Sheaf conditions and updates


_PLANT_FLAG = {
    "extra-successor": "unique_lift",
    "missing-successor": "bounded",
    "empty-fiber": "surjective",
}


def run_sheaf(seed: int, cases: int, max_size: int = 3) -> Report:
    """Sheaf recognition, planted violations, updates, substitution laws."""
    col = _Collector("sheaf", seed)
    for rng in col.cases(cases):
        agents = random_agents(rng, rng.randrange(1, 3))
        base = random_frame(rng, random_carrier(rng, rng.randrange(2, max_size + 1), "w"), agents)
        sheaf = random_sheaf(rng, base, max_fiber=3)
        chk = is_kripke_sheaf(sheaf.total, sheaf.base, sheaf.proj)
        col.expect("generated sheaf recognized", chk.is_sheaf, chk.failure or "")
        diag = check_diagonal_characterization(sheaf.total, sheaf.base, sheaf.proj)
        col.expect(
            "diagonal characterization agrees",
            diag.agrees,
            delta_bounded=diag.delta_bounded, unique_lift=chk.unique_lift,
        )

        for mode, flag in _PLANT_FLAG.items():
            try:
                total_b, base_b, proj_b = plant_non_sheaf(rng, sheaf, mode)
            except InvariantViolation:
                continue
            chk2 = is_kripke_sheaf(total_b, base_b, proj_b)
            col.expect(
                f"planted {mode} detected",
                not chk2.is_sheaf and not getattr(chk2, flag),
                check=chk2,
            )
            diag2 = check_diagonal_characterization(total_b, base_b, proj_b)
            col.expect(
                f"characterization agrees on planted {mode}",
                diag2.agrees,
                delta_bounded=diag2.delta_bounded, unique_lift=chk2.unique_lift,
            )

        model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=2))
        for n_pow in range(4):
            pw = model.power(n_pow)
            chk_p = is_kripke_sheaf(pw.frame, model.sheaf.base, pw.proj_to_base)
            col.expect(
                f"power {n_pow} projection is again a sheaf",
                chk_p.is_sheaf and check_diagonal_characterization(
                    pw.frame, model.sheaf.base, pw.proj_to_base
                ).agrees,
                chk_p.failure or "",
            )

        ev = random_fo_event_model(rng, model, rng.randrange(1, 3))
        upd = pullback_update(model, ev)
        col.expect_checks(check_pullback_update(upd), "update: ")
        upd_sheaf = upd.updated.sheaf
        chk3 = is_kripke_sheaf(upd_sheaf.total, upd_sheaf.base, upd_sheaf.proj)
        col.expect(
            "updated structure is again a sheaf",
            chk3.is_sheaf and check_diagonal_characterization(
                upd_sheaf.total, upd_sheaf.base, upd_sheaf.proj
            ).agrees,
            chk3.failure or "",
        )

        power1 = model.power(1)
        power2 = model.power(2)
        total = model.sheaf.total
        diag = FrameMap(
            power1.frame,
            power2.frame,
            function_from_mapping(
                total.carrier,
                power2.carrier,
                {
                    a: power2.carrier.elements[power2.point_of[(i, i)]]
                    for i, a in enumerate(total.carrier)
                },
            ),
        )
        power_maps = [
            ("projection to base", power1.proj_to_base, 1, 0),
            ("component projection", power2.component_projections[0], 2, 1),
            ("unary function interpretation", model.fn_interp_map["f"], 1, 1),
            ("diagonal", diag, 1, 2),
        ]
        for label, fmap, m_pow, n_pow in power_maps:
            rep_t = check_transition_commutation(upd, fmap, m_pow, n_pow)
            col.expect_checks(rep_t, f"{label}: ")

        event = rng.choice(list(ev.events))
        phi = FormulaInContext(
            ("x",), random_fo_formula(rng, model, ("x",), rng.randrange(1, 3))
        )
        terms = [TermInContext(("u",), rng.choice(
            (Var("u"), Fun("f", (Var("u"),)))
        ))]
        rep = check_substitution_box_commutation(model, phi, terms, ev=ev, event=event)
        col.expect_checks(rep, "substitution commutes with ")
    return col.report(cases)


# ---------------------------------------------------------------------------
# Quantifier reduction laws


def run_fo_reduction(seed: int, cases: int, max_size: int = 3) -> Report:
    """Quantifier/event commutation and verified rewriting over sheaf models."""
    col = _Collector("fo-reduction", seed)
    for rng in col.cases(cases):
        agents = random_agents(rng, rng.randrange(1, 3))
        base = random_frame(rng, random_carrier(rng, rng.randrange(2, max_size + 1), "w"), agents)
        sheaf = random_sheaf(rng, base, max_fiber=3)
        model = random_sheaf_model(rng, sheaf)
        ev = random_fo_event_model(rng, model, rng.randrange(1, 3))
        event = rng.choice(list(ev.events))

        context = ("x",) if rng.random() < 0.5 else ("x", "y")
        body = random_fo_formula(rng, model, context, rng.randrange(1, 3))
        col.expect_checks(
            verify_quantifier_reduction(model, ev, event, FormulaInContext(context, body))
        )

        out_context = ("z1",) if rng.random() < 0.5 else ("z1", "z2")
        phi = FormulaInContext(context, body)
        terms = [
            TermInContext(out_context, random_fo_term(rng, model, out_context, depth=1))
            for _ in context
        ]
        rep_s = check_substitution_functoriality(model, phi, terms)
        col.expect_checks(rep_s, "substitution functoriality", with_name=False)
        rep_b = check_substitution_box_commutation(model, phi, terms, ev=ev, event=event)
        col.expect_checks(rep_b, "substitution commutes with ")

        refs = [("E", e) for e in ev.events]
        dyn = random_fo_formula(
            rng, model, context, rng.randrange(1, 3), event_refs=refs, fresh=1
        )
        try:
            res = reduce_formula(
                FormulaInContext(context, dyn), model=model, registry={"E": ev}
            )
        except (NotReducible, InvariantViolation) as exc:
            col.expect("rewriting stays extension-true", False, str(exc))
        else:
            col.expect(
                "rewriting reaches a static formula", is_static(res.result), steps=res.step_count
            )
    return col.report(cases)


# ---------------------------------------------------------------------------
# Registry and drivers


SUITES: Dict[str, Callable[..., Report]] = {
    "rel-laws": run_rel_laws,
    "duality": run_duality,
    "beck-chevalley": run_beck_chevalley,
    "topological": run_topological,
    "pal-reduction": run_pal_reduction,
    "del-reduction": run_del_reduction,
    "sheaf": run_sheaf,
    "fo-reduction": run_fo_reduction,
}

DEFAULT_CASES: Dict[str, int] = {
    "rel-laws": 1000,
    "duality": 1000,
    "beck-chevalley": 500,
    "topological": 500,
    "pal-reduction": 500,
    "del-reduction": 500,
    "sheaf": 200,
    "fo-reduction": 200,
}

# The least max_size each suite can draw at: topological draws a carrier
# size from randrange(2, max_size), and the model and sheaf suites draw at
# least two worlds.
_MIN_SIZE: Dict[str, int] = {
    "topological": 3,
    "pal-reduction": 2,
    "del-reduction": 2,
    "sheaf": 2,
    "fo-reduction": 2,
}


def _check_suite(name: str, cases: Optional[int], max_size: Optional[int]) -> None:
    """Raise as run_suite would for these arguments, before anything runs."""
    if name not in SUITES:
        known = ", ".join(SUITES)
        raise UnknownSuite(f"unknown suite {name!r}; known suites: {known}")
    if cases is not None and cases < 1:
        raise OutOfRange(f"{name}: cases must be at least 1, not {cases}")
    floor = _MIN_SIZE.get(name, 1)
    if max_size is not None and max_size < floor:
        raise OutOfRange(f"{name}: max_size must be at least {floor}, not {max_size}")


def run_suite(
    name: str,
    seed: int = 0,
    cases: Optional[int] = None,
    max_size: Optional[int] = None,
) -> Report:
    """Run one suite by name with its default sizes unless overridden.

    Raises UnknownSuite for a name not in SUITES, and OutOfRange for
    fewer than one case, or for a max_size below the least one the suite
    can draw at.
    """
    _check_suite(name, cases, max_size)
    kwargs = {"seed": seed, "cases": cases if cases is not None else DEFAULT_CASES[name]}
    if max_size is not None:
        kwargs["max_size"] = max_size
    return SUITES[name](**kwargs)


def run_all(
    seed: int = 0,
    cases: Optional[int] = None,
    max_size: Optional[int] = None,
    suites: Optional[Sequence[str]] = None,
) -> List[Report]:
    """Run the named suites in the order given, or every suite in SUITES order.

    Each suite is seeded by the base seed plus its position in SUITES, so
    a suite run by name repeats its cases of the full run at the same
    seed.  Every suite's arguments are checked before the first one runs,
    so a bad name or size is refused at once rather than after the suites
    before it.
    """
    names = list(suites or SUITES)
    for name in names:
        _check_suite(name, cases, max_size)
    order = list(SUITES)
    return [
        run_suite(name, seed=seed + order.index(name), cases=cases, max_size=max_size)
        for name in names
    ]


@dataclass(init=False, repr=False, eq=False)
class SelfTestReport(Frozen):
    """Whether the random search refuted a deliberately false inequality."""

    caught: bool
    tried: int
    witness: Optional[str]

    @property
    def ok(self) -> bool:
        return self.caught


def _wrong_modularity(r1: Rel, r2: Rel, r3: Rel) -> bool:
    """A false variant of the modularity inequality, for self testing.

    The converse in the middle term is dropped, which makes the claimed
    inequality fail on easy triples.  The search below must find one.
    """
    lhs = meet(compose(r1, r2), r3)
    rhs = compose(meet(r1, compose(r3, r2)), r2)
    return leq(lhs, rhs)


def self_test(seed: int = 0, cases: int = 400, max_size: int = 4) -> SelfTestReport:
    """Plant a wrong law and confirm the random search refutes it.

    Every triple must satisfy the true modularity law; the test passes
    only when some triple violates the planted variant.  All three
    relations live on one carrier so both variants are well-typed.
    Raises OutOfRange for fewer than one case, or for a max_size below 2,
    the least carrier size drawn.
    """
    if cases < 1:
        raise OutOfRange(f"self-test: cases must be at least 1, not {cases}")
    if max_size < 2:
        raise OutOfRange(f"self-test: max_size must be at least 2, not {max_size}")
    rng = random.Random(seed)
    witness = None
    for i in range(cases):
        a = random_carrier(rng, rng.randrange(2, max_size + 1), "a")
        r1 = random_relation(rng, a, a)
        r2 = random_relation(rng, a, a)
        r3 = random_relation(rng, a, a)
        if not check_modularity(r1, r2, r3):
            return SelfTestReport(False, i + 1, _witness("true law failed:", r1=r1, r2=r2, r3=r3))
        if witness is None and not _wrong_modularity(r1, r2, r3):
            witness = _witness(r1=r1, r2=r2, r3=r3)
    return SelfTestReport(witness is not None, cases, witness)
