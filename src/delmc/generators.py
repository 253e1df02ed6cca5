"""Seeded random generation of every object the law suites quantify over.

All functions draw from a caller-supplied random.Random, so one seed
fixes the whole run.  Structured objects are built so that the property
of interest holds by construction — monotone maps draw their source
relations from inside the pullback of the target's, bounded maps pair a
surjection with the full pullback, Kripke sheaves pick exactly one
successor per individual and reachable world — while the planted
counterexamples break exactly one condition.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvariantViolation
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
    Fun,
    Imp,
    Not,
    Or,
    PalBox,
    PalDia,
    Pred,
    Term,
    Top,
    Var,
)
from .frames import AgentSet, FrameMap, KripkeFrame, frame_map, initial_lift, is_monotone
from .models import EventModel, KripkeModel
from .powerset import Subset
from .rel import FiniteSet, Rel
from .sheaves import KripkeSheaf, SheafModel, Signature


def random_carrier(rng: random.Random, size: int, prefix: str = "w") -> FiniteSet:
    if size < 1:
        raise InvariantViolation("carriers must be nonempty")
    return FiniteSet(f"{prefix}{size}", tuple(f"{prefix}{i + 1}" for i in range(size)))


def random_relation(
    rng: random.Random,
    dom: FiniteSet,
    cod: FiniteSet,
    density: Optional[float] = None,
) -> Rel:
    d = rng.uniform(0.15, 0.6) if density is None else density
    pairs = {
        (a, b) for a in dom for b in cod if rng.random() < d
    }
    return Rel(dom, cod, frozenset(pairs))


def random_subset(
    rng: random.Random, carrier: FiniteSet, density: float = 0.5
) -> Subset:
    return Subset(carrier, frozenset(x for x in carrier if rng.random() < density))


def random_function(rng: random.Random, dom: FiniteSet, cod: FiniteSet) -> Rel:
    choices = tuple(cod.elements)
    return Rel(dom, cod, frozenset((a, rng.choice(choices)) for a in dom))


def random_surjection(rng: random.Random, dom: FiniteSet, cod: FiniteSet) -> Rel:
    if len(dom.elements) < len(cod.elements):
        raise InvariantViolation("a surjection needs at least as many sources as targets")
    sources = list(dom.elements)
    rng.shuffle(sources)
    pairs = []
    for i, b in enumerate(cod.elements):
        pairs.append((sources[i], b))
    choices = tuple(cod.elements)
    for a in sources[len(cod.elements):]:
        pairs.append((a, rng.choice(choices)))
    return Rel(dom, cod, frozenset(pairs))


def random_agents(rng: random.Random, count: int) -> AgentSet:
    names = "abcdefgh"
    if count <= len(names):
        return AgentSet(tuple(names[:count]))
    return AgentSet(tuple(f"a{i + 1}" for i in range(count)))


def random_frame(
    rng: random.Random,
    carrier: FiniteSet,
    agents: AgentSet,
    density: Optional[float] = None,
) -> KripkeFrame:
    return KripkeFrame.make(
        carrier,
        agents,
        {a: random_relation(rng, carrier, carrier, density) for a in agents},
    )


def random_model(
    rng: random.Random,
    size: int,
    agents: AgentSet,
    atoms: Sequence[str] = ("p", "q"),
) -> KripkeModel:
    carrier = random_carrier(rng, size)
    frame = random_frame(rng, carrier, agents)
    val = {a: random_subset(rng, carrier) for a in atoms}
    return KripkeModel.make(frame, val)


def random_formula(
    rng: random.Random,
    atoms: Sequence[str],
    agents: Sequence[str],
    depth: int,
    event_refs: Sequence[Tuple[str, str]] = (),
    allow_pal: bool = True,
    allow_dynamic: bool = True,
) -> Formula:
    """A random propositional modal formula, optionally with dynamic operators.

    event_refs lists (model name, event name) pairs eligible for event
    operators.  Announcement bodies stay shallow so reduction traces stay
    readable.
    """
    if depth <= 0:
        roll = rng.random()
        if roll < 0.1:
            return Top()
        if roll < 0.2:
            return Bot()
        return Atom(rng.choice(tuple(atoms)))
    kinds = ["atom", "not", "and", "or", "imp", "box", "dia"]
    if allow_dynamic and allow_pal:
        kinds += ["pal", "pal-dia"]
    if allow_dynamic and event_refs:
        kinds += ["event", "event-dia"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return random_formula(rng, atoms, agents, 0)
    if kind == "not":
        return Not(random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic))
    if kind in ("and", "or", "imp"):
        left = random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic)
        right = random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic)
        return {"and": And, "or": Or, "imp": Imp}[kind](left, right)
    if kind == "box":
        return Box(rng.choice(tuple(agents)), random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic))
    if kind == "dia":
        return Dia(rng.choice(tuple(agents)), random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic))
    if kind in ("pal", "pal-dia"):
        sigma = random_formula(rng, atoms, agents, min(depth - 1, 1), (), allow_pal=False, allow_dynamic=False)
        body = random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic)
        return (PalBox if kind == "pal" else PalDia)(sigma, body)
    ref, event = rng.choice(tuple(event_refs))
    body = random_formula(rng, atoms, agents, depth - 1, event_refs, allow_pal, allow_dynamic)
    return (DelBox if kind == "event" else DelDia)(ref, event, body)


def random_event_model(
    rng: random.Random,
    n_events: int,
    agents: AgentSet,
    atoms: Sequence[str],
    static_pre: bool = True,
) -> EventModel:
    carrier = random_carrier(rng, n_events, prefix="e")
    frame = random_frame(rng, carrier, agents)
    pre = {
        e: random_formula(rng, atoms, tuple(agents), rng.randrange(0, 2), allow_dynamic=not static_pre)
        for e in carrier
    }
    return EventModel.make(frame, pre)


def random_monotone_map(
    rng: random.Random, src_size: int, dst: KripkeFrame, prefix: str = "z"
) -> FrameMap:
    """A frame map that is monotone by construction: the source relations
    are random subrelations of each target relation's pullback.  Pairs are
    drawn in carrier order, so the map depends on the seed alone."""
    carrier = random_carrier(rng, src_size, prefix)
    fn = random_function(rng, carrier, dst.carrier)
    lifted = initial_lift([dst], [fn])
    rels = {}
    for a in dst.agents:
        succ = lifted.rel(a).successors
        keep = frozenset(
            (x, y) for x in carrier for y in carrier if y in succ[x] and rng.random() < 0.7
        )
        rels[a] = Rel(carrier, carrier, keep)
    src = KripkeFrame.make(carrier, dst.agents, rels)
    return FrameMap(src, dst, fn)


def random_bounded_map(
    rng: random.Random, src_size: int, dst: KripkeFrame, prefix: str = "z"
) -> FrameMap:
    """A bounded morphism by construction: a surjection whose source
    carries the full pullback of every target relation."""
    if src_size < len(dst.carrier.elements):
        src_size = len(dst.carrier.elements)
    carrier = random_carrier(rng, src_size, prefix)
    fn = random_surjection(rng, carrier, dst.carrier)
    src = initial_lift([dst], [fn])
    return FrameMap(src, dst, fn)


def random_sheaf(
    rng: random.Random,
    base: KripkeFrame,
    max_fiber: int = 3,
    prefix: str = "d",
) -> KripkeSheaf:
    """A sheaf over the given base, built from transport choices.

    Every world gets a nonempty fiber; then for each agent, each
    individual and each world reachable from its own, exactly one
    successor is chosen in the target fiber.  The three sheaf conditions
    hold by construction.
    """
    fibers: Dict[str, List[str]] = {}
    names: List[str] = []
    for i, w in enumerate(base.carrier):
        size = rng.randrange(1, max_fiber + 1)
        fibers[w] = [f"{prefix}{i + 1}_{j + 1}" for j in range(size)]
        names.extend(fibers[w])
    carrier = FiniteSet(f"{prefix}({base.carrier.name})", tuple(names))
    projection = {a: w for w, fib in fibers.items() for a in fib}
    rels = {}
    for ag in base.agents:
        succ = base.rel(ag).successors
        pairs = set()
        for w in base.carrier:
            for a in fibers[w]:
                for w2 in base.carrier:
                    if w2 in succ[w]:
                        pairs.add((a, rng.choice(fibers[w2])))
        rels[ag] = Rel(carrier, carrier, frozenset(pairs))
    total = KripkeFrame.make(carrier, base.agents, rels)
    proj = frame_map(total, base, projection)
    return KripkeSheaf(total, base, proj)


def plant_non_sheaf(
    rng: random.Random, sheaf: KripkeSheaf, mode: str
) -> Tuple[KripkeFrame, KripkeFrame, FrameMap]:
    """Break exactly one sheaf condition; returns the raw triple.

    Modes: "extra-successor" adds a second step into one fiber (unique
    lifts fail), "missing-successor" deletes every step from one
    individual into one reachable fiber (boundedness fails),
    "empty-fiber" removes a whole fiber (surjectivity fails).  Raises
    InvariantViolation when the sheaf offers no room for the requested
    break.
    """
    base = sheaf.base
    total = sheaf.total
    if mode == "extra-successor":
        options = []
        for ag in total.agents:
            succ = total.rel(ag).successors
            for a in total.carrier:
                for b in sorted(succ[a], key=total.carrier.index.__getitem__):
                    fiber = sheaf.fiber(sheaf.proj(b))
                    others = [c for c in fiber if c != b]
                    if others:
                        options.append((ag, a, others))
        if not options:
            raise InvariantViolation("no fiber with room for a second successor")
        ag, a, others = options[rng.randrange(len(options))]
        extra = rng.choice(others)
        rels = {
            g: total.rel(g) if g != ag else Rel(
                total.carrier, total.carrier, total.rel(g).pairs | {(a, extra)}
            )
            for g in total.agents
        }
        broken = KripkeFrame.make(total.carrier, total.agents, rels)
        return broken, base, FrameMap(broken, base, sheaf.proj.fn)
    if mode == "missing-successor":
        options = []
        for ag in total.agents:
            succ = total.rel(ag).successors
            for a in total.carrier:
                if succ[a]:
                    worlds = sorted({sheaf.proj(b) for b in succ[a]})
                    options.append((ag, a, worlds))
        if not options:
            raise InvariantViolation("no step available to delete")
        ag, a, worlds = options[rng.randrange(len(options))]
        w2 = rng.choice(worlds)
        drop = {(a, b) for b in sheaf.fiber(w2)}
        rels = {
            g: total.rel(g) if g != ag else Rel(
                total.carrier, total.carrier, total.rel(g).pairs - drop
            )
            for g in total.agents
        }
        broken = KripkeFrame.make(total.carrier, total.agents, rels)
        return broken, base, FrameMap(broken, base, sheaf.proj.fn)
    if mode == "empty-fiber":
        candidates = [
            w for w in base.carrier if len(sheaf.fiber(w)) < len(total.carrier.elements)
        ]
        if not candidates:
            raise InvariantViolation("removing any fiber would empty the domain")
        w = rng.choice(candidates)
        doomed = set(sheaf.fiber(w))
        keep = tuple(a for a in total.carrier if a not in doomed)
        carrier = FiniteSet(f"{total.carrier.name}-{w}", keep)
        rels = {
            g: Rel(
                carrier,
                carrier,
                frozenset(
                    (x, y) for x, y in total.rel(g).pairs if x not in doomed and y not in doomed
                ),
            )
            for g in total.agents
        }
        broken = KripkeFrame.make(carrier, total.agents, rels)
        fn = Rel(
            carrier,
            base.carrier,
            frozenset((a, sheaf.proj(a)) for a in keep),
        )
        return broken, base, FrameMap(broken, base, fn)
    raise InvariantViolation(f"unknown planting mode {mode!r}")


def _monotone_unary(rng: random.Random, sheaf: KripkeSheaf, tries: int = 24) -> Rel:
    """A fiber-preserving endomap of the domain, monotone if luck allows,
    the identity otherwise."""
    total = sheaf.total
    for _ in range(tries):
        mapping = {}
        for w in sheaf.base.carrier:
            fib = sheaf.fiber(w)
            for a in fib:
                mapping[a] = rng.choice(fib)
        fn = Rel(total.carrier, total.carrier, frozenset(mapping.items()))
        if is_monotone(FrameMap(total, total, fn)):
            return fn
    return Rel(total.carrier, total.carrier, frozenset((a, a) for a in total.carrier))


def _monotone_section(rng: random.Random, sheaf: KripkeSheaf, tries: int = 24) -> Optional[Rel]:
    """A monotone section of the projection, or None if sampling fails."""
    base = sheaf.base
    for _ in range(tries):
        mapping = {w: rng.choice(sheaf.fiber(w)) for w in base.carrier}
        fn = Rel(base.carrier, sheaf.total.carrier, frozenset(mapping.items()))
        candidate = FrameMap(base, sheaf.total, fn)
        if is_monotone(candidate):
            return fn
    return None


def random_sheaf_model(rng: random.Random, sheaf: KripkeSheaf) -> SheafModel:
    """Interpretation tables over a sheaf: a unary function f, a binary
    projection g, a constant c when a monotone section exists, and the
    predicates Q (arity 0), P1 and P2 (arity 1) and R2 (arity 2)."""
    functions: Dict[str, int] = {"f": 1}
    fn_interp: Dict[str, FrameMap] = {}
    power1 = sheaf.power(1)
    fn_interp["f"] = FrameMap(power1.frame, sheaf.total, _monotone_unary(rng, sheaf))
    section = _monotone_section(rng, sheaf)
    if section is not None:
        functions["c"] = 0
        power0 = sheaf.power(0)
        fn_interp["c"] = FrameMap(power0.frame, sheaf.total, section)
    functions["g"] = 2
    power2 = sheaf.power(2)
    names = sheaf.total.carrier.elements
    first = {lbl: names[c[0]] for lbl, c in zip(power2.carrier, power2.coords)}
    fn_interp["g"] = FrameMap(
        power2.frame,
        sheaf.total,
        Rel(power2.carrier, sheaf.total.carrier, frozenset(first.items())),
    )
    relations = {"Q": 0, "P1": 1, "P2": 1, "R2": 2}
    rel_interp: Dict[str, Subset] = {
        "Q": random_subset(rng, sheaf.base.carrier),
        "P1": random_subset(rng, sheaf.total.carrier),
        "P2": random_subset(rng, sheaf.total.carrier),
        "R2": random_subset(rng, power2.carrier),
    }
    signature = Signature.make(functions, relations)
    return SheafModel(sheaf, signature, fn_interp, rel_interp)


def random_fo_formula(
    rng: random.Random,
    model: SheafModel,
    context: Tuple[str, ...],
    depth: int,
    event_refs: Sequence[Tuple[str, str]] = (),
    fresh: int = 0,
) -> Formula:
    """A random formula in the given context over the model's signature."""
    agents = tuple(model.sheaf.base.agents)
    return _fo_formula(rng, model.signature, agents, event_refs, context, depth, [fresh])


def _fo_term(rng: random.Random, sig: Signature, ctx: Tuple[str, ...], d: int) -> Term:
    unary = [n for n, k in sig.function_symbols if k == 1]
    nullary = [n for n, k in sig.function_symbols if k == 0]
    if ctx and (d <= 0 or rng.random() < 0.6):
        return Var(rng.choice(ctx))
    if nullary and (not ctx or rng.random() < 0.4):
        return Fun(rng.choice(nullary), ())
    if unary and ctx:
        return Fun(rng.choice(unary), (_fo_term(rng, sig, ctx, d - 1),))
    if nullary:
        return Fun(rng.choice(nullary), ())
    return Var(rng.choice(ctx))


def _fo_atom(rng: random.Random, sig: Signature, ctx: Tuple[str, ...]) -> Formula:
    has_const = any(k == 0 for _, k in sig.function_symbols)
    usable = [
        (n, k) for n, k in sig.relation_symbols if k == 0 or ctx or has_const
    ]
    if not usable:
        return Top()
    name, arity = rng.choice(usable)
    if arity == 0:
        return Pred(name, ())
    return Pred(name, tuple(_fo_term(rng, sig, ctx, 1) for _ in range(arity)))


def _fo_formula(
    rng: random.Random,
    sig: Signature,
    agents: Tuple[str, ...],
    event_refs: Sequence[Tuple[str, str]],
    ctx: Tuple[str, ...],
    d: int,
    counter: List[int],
) -> Formula:
    """random_fo_formula's recursion; counter[0] numbers the bound variables."""

    def sub(inner: Tuple[str, ...] = ctx) -> Formula:
        return _fo_formula(rng, sig, agents, event_refs, inner, d - 1, counter)

    if d <= 0:
        roll = rng.random()
        if roll < 0.08:
            return Top()
        if roll < 0.16:
            return Bot()
        return _fo_atom(rng, sig, ctx)
    kinds = ["atom", "not", "and", "or", "imp", "box", "dia", "forall", "exists"]
    if event_refs:
        kinds += ["event", "event-dia"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return _fo_atom(rng, sig, ctx)
    if kind == "not":
        return Not(sub())
    if kind in ("and", "or", "imp"):
        return {"and": And, "or": Or, "imp": Imp}[kind](sub(), sub())
    if kind == "box":
        return Box(rng.choice(agents), sub())
    if kind == "dia":
        return Dia(rng.choice(agents), sub())
    if kind in ("forall", "exists"):
        counter[0] += 1
        v = f"u{counter[0]}"
        while v in ctx:
            counter[0] += 1
            v = f"u{counter[0]}"
        return (Forall if kind == "forall" else Exists)(v, sub(ctx + (v,)))
    ref, event = rng.choice(tuple(event_refs))
    return (DelBox if kind == "event" else DelDia)(ref, event, sub())


def random_fo_term(
    rng: random.Random,
    model: SheafModel,
    context: Tuple[str, ...],
    depth: int = 1,
) -> Term:
    """A random term over the model's signature, valid in the context."""
    sig = model.signature
    unary = [n for n, k in sig.function_symbols if k == 1]
    nullary = [n for n, k in sig.function_symbols if k == 0]
    binary = [n for n, k in sig.function_symbols if k == 2]
    if not context and not nullary:
        raise InvariantViolation(
            "random_fo_term: empty context and no constant symbols"
        )
    if context and (depth <= 0 or rng.random() < 0.5):
        return Var(rng.choice(context))
    if not context or (nullary and rng.random() < 0.3):
        return Fun(rng.choice(nullary), ())
    if binary and rng.random() < 0.3:
        return Fun(
            rng.choice(binary),
            (
                random_fo_term(rng, model, context, depth - 1),
                random_fo_term(rng, model, context, depth - 1),
            ),
        )
    if unary:
        return Fun(rng.choice(unary), (random_fo_term(rng, model, context, depth - 1),))
    return Var(rng.choice(context))


def random_fo_event_model(
    rng: random.Random,
    model: SheafModel,
    n_events: int,
) -> EventModel:
    """An event model whose preconditions are sentences over the model's
    signature (closed, quantifier-bounded)."""
    carrier = random_carrier(rng, n_events, prefix="e")
    frame = random_frame(rng, carrier, model.sheaf.base.agents)
    pre = {}
    for e in carrier:
        if rng.random() < 0.3:
            pre[e] = Top()
        else:
            pre[e] = random_fo_formula(rng, model, (), rng.randrange(1, 3))
    return EventModel.make(frame, pre)
