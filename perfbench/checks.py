"""Reference answers for the benchmark's output checks.

Everything here reads the JSON documents the workloads were built from,
never the library's loaded objects.  Static propositional formulas are
evaluated with world bitmasks, which stays fast at 400 worlds; dynamic
and first-order formulas go to the pointwise oracles in ``tests/``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import fo_oracle
import oracle
from delmc.formulas import (
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


def children(phi: Formula):
    return [v for v in (getattr(phi, f.name) for f in dataclasses.fields(phi)) if isinstance(v, Formula)]


def subformulas(phi: Formula):
    """Every node of a formula tree."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def height(phi: Formula) -> int:
    kids = children(phi)
    return 1 + max(map(height, kids)) if kids else 0


@dataclasses.dataclass(frozen=True)
class Shape:
    height: int
    nodes: int
    boxes: int
    dias: int
    pal: int
    events: int
    quantifiers: int


def shape(phi: Formula) -> Shape:
    """Syntactic size counts of a formula tree."""
    kinds = {"boxes": Box, "dias": Dia, "pal": (PalBox, PalDia),
             "events": (DelBox, DelDia), "quantifiers": (Forall, Exists)}
    nodes = list(subformulas(phi))
    counts = {k: sum(isinstance(n, t) for n in nodes) for k, t in kinds.items()}
    return Shape(height=height(phi), nodes=len(nodes), **counts)


class BitModel:
    """A kripke-model document with worlds as bits, for static formulas."""

    def __init__(self, doc: dict):
        self.worlds = list(doc["worlds"])
        index = {w: i for i, w in enumerate(self.worlds)}
        self.full = (1 << len(self.worlds)) - 1
        self.succ: Dict[str, list] = {}
        for agent, pairs in doc["relations"].items():
            rows = [0] * len(self.worlds)
            for w, v in pairs:
                rows[index[w]] |= 1 << index[v]
            self.succ[agent] = rows
        for agent in doc["agents"]:
            self.succ.setdefault(agent, [0] * len(self.worlds))
        self.val = {
            atom: sum(1 << index[w] for w in ws) for atom, ws in doc["valuation"].items()
        }

    def mask(self, phi: Formula, memo: Dict[Formula, int]) -> int:
        if phi in memo:
            return memo[phi]
        if isinstance(phi, Top):
            out = self.full
        elif isinstance(phi, Bot):
            out = 0
        elif isinstance(phi, Atom):
            out = self.val[phi.name]
        elif isinstance(phi, Not):
            out = self.full & ~self.mask(phi.body, memo)
        elif isinstance(phi, (And, Or, Imp)):
            left, right = self.mask(phi.left, memo), self.mask(phi.right, memo)
            if isinstance(phi, And):
                out = left & right
            elif isinstance(phi, Or):
                out = left | right
            else:
                out = (self.full & ~left) | right
        elif isinstance(phi, Box):
            body = self.mask(phi.body, memo)
            out = sum(1 << i for i, row in enumerate(self.succ[phi.agent]) if row & ~body == 0)
        elif isinstance(phi, Dia):
            body = self.mask(phi.body, memo)
            out = sum(1 << i for i, row in enumerate(self.succ[phi.agent]) if row & body)
        else:
            raise TypeError(f"not a static propositional formula: {type(phi).__name__}")
        memo[phi] = out
        return out

    def extension(self, phi: Formula) -> frozenset:
        bits = self.mask(phi, {})
        return frozenset(w for i, w in enumerate(self.worlds) if bits >> i & 1)


def _pairs(doc_rel: Dict[str, list]) -> Dict[str, set]:
    return {agent: {tuple(p) for p in pairs} for agent, pairs in doc_rel.items()}


def kripke_oracle(doc: dict) -> dict:
    """tests/oracle.py form of a kripke-model document."""
    return oracle.omodel(doc["worlds"], _pairs(doc["relations"]), doc["valuation"])


def label(parts) -> str:
    """The library's label for a pair (or tuple) element."""
    return "(" + ",".join(parts) + ")"


def product_document_matches(doc_out: dict, source: dict, ev, registry: dict) -> str:
    """Compare an updated kripke-model document with the oracle's product."""
    expected = oracle.product(source, ev, registry)
    worlds = {label(w) for w in expected["worlds"]}
    if set(doc_out["worlds"]) != worlds:
        return "updated worlds differ from the oracle product"
    for agent, pairs in expected["rel"].items():
        want = {(label(a), label(b)) for a, b in pairs}
        if {tuple(p) for p in doc_out["relations"].get(agent, [])} != want:
            return f"updated relation of agent {agent!r} differs from the oracle product"
    for atom, ws in expected["val"].items():
        if set(doc_out["valuation"][atom]) != {label(w) for w in ws}:
            return f"updated valuation of {atom!r} differs from the oracle product"
    return ""


def sheaf_oracle(doc: dict) -> dict:
    """tests/fo_oracle.py form of a sheaf-model document."""
    pi = {a: w for w, fib in doc["fibers"].items() for a in fib}
    fun, arity, rel_interp = {}, {}, {}
    for name, spec in doc["functions"].items():
        arity[name] = spec["arity"]
        if spec["arity"] == 0:
            fun[name] = dict(spec["section"])
        else:
            fun[name] = {tuple(args): value for args, value in spec["map"]}
    for name, spec in doc["predicates"].items():
        arity[name] = spec["arity"]
        if spec["arity"] == 0:
            rel_interp[name] = set(spec["extension"])
        else:
            rel_interp[name] = {tuple(t) for t in spec["extension"]}
    return {
        "base_worlds": list(doc["worlds"]),
        "base_rel": _pairs(doc["relations"]),
        "individuals": [a for w in doc["worlds"] for a in doc["fibers"][w]],
        "pi": pi,
        "dom_rel": _pairs(doc["domain_relation"]),
        "fun": fun,
        "rel_interp": rel_interp,
        "arity": arity,
    }


def fo_extension(o: dict, context: Tuple[str, ...], phi: Formula, registry: dict) -> frozenset:
    """Oracle extension over a one-variable context, as individual names."""
    if len(context) != 1:
        raise ValueError("the benchmark queries in a one-variable context")
    return frozenset(t[0] for _, t in fo_oracle.tuple_extension(o, context, phi, registry))


def pullback_document_matches(doc_out: dict, source: dict, ev, registry: dict) -> str:
    """Compare an updated sheaf-model document with the oracle's update."""
    expected = fo_oracle.update(source, ev, registry)
    if set(doc_out["worlds"]) != {label(w) for w in expected["base_worlds"]}:
        return "updated worlds differ from the oracle update"
    doc_pi = {a: w for w, fib in doc_out["fibers"].items() for a in fib}
    if doc_pi != {label(a): label(w) for a, w in expected["pi"].items()}:
        return "updated individuals or their worlds differ from the oracle update"
    for key, doc_key in (("base_rel", "relations"), ("dom_rel", "domain_relation")):
        for agent, pairs in expected[key].items():
            want = {(label(a), label(b)) for a, b in pairs}
            if {tuple(p) for p in doc_out[doc_key].get(agent, [])} != want:
                return f"updated {doc_key} of agent {agent!r} differs from the oracle update"
    return ""

