"""JSON documents for models: loading with validation, and dumping back.

Every document carries ``"format_version": 1`` and a ``"kind"`` of
``"kripke-model"``, ``"event-model"`` or ``"sheaf-model"``, plus an
optional ``"name"``.  Malformed shapes and references to undeclared
names raise SchemaError with the offending path; well-formed documents
that violate a semantic invariant (a projection that is not a sheaf, a
function table that is not monotone) raise the library's usual typed
errors.

Kripke models list worlds, agents, per-agent relations and a valuation:

    {"format_version": 1, "kind": "kripke-model",
     "worlds": ["w1", "w2"], "agents": ["a"],
     "relations": {"a": [["w1", "w2"]]},
     "valuation": {"p": ["w1"]}}

Event models replace worlds/valuation by events/preconditions, the
latter written in formula syntax.  Sheaf models add the domain side:
``"fibers"`` maps each world to the individuals over it (their
concatenation, in world order, is the domain), ``"domain_relation"``
gives the per-agent relations on individuals, ``"functions"`` the
function-symbol tables (arity 0 uses a world-indexed ``"section"``,
positive arity a ``"map"`` of argument-tuple/value entries covering
every tuple over a common world), and ``"predicates"`` the
relation-symbol extensions (worlds for arity 0, argument tuples
otherwise).

The loader is where document data is checked, once, and where names
are resolved.  A relation is stored as successor masks over its
carrier's index (see ``rel``), and the loader builds them straight from
the JSON pair lists: one test that every entry is a plain list, then
one run of equal sources at a time, each target's bit ORed into the
run's mask and the source looked up once, for one row update.  A dump
holds one run per source; a source that comes back ORs into its row
again.  A stray name, a bad length or an unhashable name falls back to
the entry-by-entry walk, which words the first bad entry.  The rows
then go into the relation through the private trusted constructor, with
no second check; no set of name pairs is built.  A valuation becomes one
mask per atom.  In a sheaf model, each fibered power that a table needs
gets one dict from its individuals' names to its points, built from the
power's coordinates (``FiberedPower.coords``).  Each argument list of a
function map or a predicate extension is then one lookup in it: a list
of declared names over one world is exactly a key, since the power
holds every such tuple.  On a miss, ``_entry_point`` words the entry's
first fault (not a list of the arity's names, an undeclared individual,
or names over two worlds).  Function tables become rows and extensions
masks over the power's points, and no point label is built or looked
up.  What a document can get wrong beyond names and shapes (the sheaf
conditions, monotone and fiber-preserving interpretations) is checked
by the constructors the loader calls.

A kripke-model may list no world, and a sheaf-model no world and no
individual: that is what an update whose preconditions hold nowhere
writes.  Agents and events may not be empty.

Dumping goes the other way: each relation's pairs are read off its
rows in name order.  A carrier's names are sorted once, into a
permutation from name rank to carrier index; the sources are walked in
that order, and a row's successors in name order are its preimage
along the permutation (``rel.preimage_flags``), picked with one
``compress``.  So a dump is byte for byte what it was when relations
were sorted pair sets, and neither a pair nor a row is sorted; each
point of a power is written as its individuals, read off its
coordinates.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import compress
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from .errors import ParseError, SchemaError
from .formulas import Formula, FormulaInContext, as_sentence, first_order_node
from .frames import AgentSet, KripkeFrame, FrameMap, frame_map
from .models import EventModel, KripkeModel
from .parser import parse_formula, print_formula
from .powerset import Subset, _subset
from .rel import FiniteSet, _rel, function_code, preimage_flags
from .sheaves import FiberedPower, KripkeSheaf, SheafModel, Signature

FORMAT_VERSION = 1

LoadedModel = Union[KripkeModel, EventModel, SheafModel]


def _require(doc: Mapping[str, Any], key: str, kind: type, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{where}: {key!r} must be a number")
        return value
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where}: {key!r} must be a {kind.__name__}")
    return value


def _string_list(value: Any, where: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where}: expected a list of strings")
    return value


def _pair_rows(value: Any, carrier: FiniteSet, where: str) -> Tuple[int, ...]:
    """The successor masks of a relation on carrier given as a JSON pair
    list, one source lookup and row update per run of equal sources."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of pairs")
    index, bit = carrier.index, carrier.bit
    rows = [0] * len(carrier)
    if list(map(type, value)).count(list) == len(value):
        try:  # plain lists of two declared names, one row update per run of equal sources
            prev, acc = None, 0
            for w, v in value:
                if w != prev:
                    if acc:
                        rows[index[prev]] |= acc
                    prev, acc = w, 0
                acc |= bit[v]
            if acc:
                rows[index[prev]] |= acc
            return tuple(rows)
        except (KeyError, ValueError, TypeError):  # a stray, a bad length, an unhashable name
            rows = [0] * len(carrier)
    for entry in value:  # word the first bad entry; list subclasses pass
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise SchemaError(f"{where}: each entry must be a two-element list of strings")
        for x in entry:
            if x not in index:
                raise SchemaError(f"{where}: undeclared name {x!r}")
        w, v = entry
        rows[index[w]] |= bit[v]
    return tuple(rows)


def _carrier(doc: Mapping[str, Any], key: str, name: str, where: str) -> FiniteSet:
    elems = _string_list(_require(doc, key, list, where), f"{where}.{key}")
    if len(set(elems)) != len(elems):
        counts = Counter(elems)
        dup = next(x for x in elems if counts[x] > 1)
        raise SchemaError(f"{where}.{key}: duplicate name {dup!r}")
    return FiniteSet(name, tuple(elems))


def _frame(
    doc: Mapping[str, Any],
    carrier: FiniteSet,
    agents: AgentSet,
    rel_key: str,
    where: str,
) -> KripkeFrame:
    table = _require(doc, rel_key, dict, where)
    missing = [a for a in agents if a not in table]
    if missing:
        raise SchemaError(f"{where}.{rel_key}: no relation for agent {missing[0]!r}")
    extra = [a for a in table if a not in agents.agents]
    if extra:
        raise SchemaError(f"{where}.{rel_key}: unknown agent {extra[0]!r}")
    rels = {
        a: _rel(carrier, carrier, _pair_rows(table[a], carrier, f"{where}.{rel_key}.{a}"))
        for a in agents
    }
    return KripkeFrame.make(carrier, agents, rels)


def _agents(doc: Mapping[str, Any], where: str) -> AgentSet:
    names = _string_list(_require(doc, "agents", list, where), f"{where}.agents")
    if len(set(names)) != len(names):
        raise SchemaError(f"{where}.agents: duplicate agent")
    if not names:
        raise SchemaError(f"{where}.agents: must not be empty")
    return AgentSet(tuple(names))


def _load_kripke(doc: Mapping[str, Any]) -> KripkeModel:
    where = "kripke-model"
    carrier = _carrier(doc, "worlds", "W", where)
    agents = _agents(doc, where)
    frame = _frame(doc, carrier, agents, "relations", where)
    val_doc = _require(doc, "valuation", dict, where)
    val = {}
    for atom, worlds in val_doc.items():
        members = _string_list(worlds, f"{where}.valuation.{atom}")
        for w in members:
            if w not in carrier.as_set:
                raise SchemaError(f"{where}.valuation.{atom}: undeclared world {w!r}")
        val[atom] = _subset(carrier, carrier.mask(members))
    return KripkeModel.make(frame, val)


def _parse_precondition(text: Any, where: str) -> Formula:
    if not isinstance(text, str):
        raise SchemaError(f"{where}: precondition must be a formula string")
    try:
        parsed = parse_formula(text)
    except ParseError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    if isinstance(parsed, FormulaInContext):
        if parsed.context:
            raise SchemaError(f"{where}: precondition must be a sentence, not open in {parsed.context}")
        return parsed.body
    return parsed


def _load_event(doc: Mapping[str, Any]) -> EventModel:
    where = "event-model"
    carrier = _carrier(doc, "events", "E", where)
    if not carrier:
        raise SchemaError(f"{where}.events: must not be empty")
    agents = _agents(doc, where)
    frame = _frame(doc, carrier, agents, "relations", where)
    pre_doc = _require(doc, "preconditions", dict, where)
    missing = [e for e in carrier if e not in pre_doc]
    if missing:
        raise SchemaError(f"{where}.preconditions: no precondition for event {missing[0]!r}")
    extra = [e for e in pre_doc if e not in carrier.as_set]
    if extra:
        raise SchemaError(f"{where}.preconditions: unknown event {extra[0]!r}")
    pre = {
        e: _parse_precondition(pre_doc[e], f"{where}.preconditions.{e}")
        for e in carrier
    }
    return EventModel.make(frame, pre)


def _entry_point(
    points: Mapping[Tuple[str, ...], int],
    args: Any,
    arity: int,
    domain: Mapping[str, int],
    where: str,
    i: int,
) -> int:
    """The point whose individuals entry i's arguments name, by one lookup
    in points; on a miss, the entry's first fault, worded."""
    if isinstance(args, list):  # a string would name the tuple of its characters
        try:
            return points[tuple(args)]
        except (KeyError, TypeError):  # a stray, a bad length, an unhashable name
            pass
    where = f"{where}[{i}]"
    if (
        not isinstance(args, list)
        or len(args) != arity
        or not all(isinstance(x, str) for x in args)
    ):
        raise SchemaError(f"{where}: expected a list of {arity} individuals")
    for x in args:
        if x not in domain:
            raise SchemaError(f"{where}: undeclared individual {x!r}")
    # every tuple over one world is a point, since the power holds them all
    raise SchemaError(f"{where}: arguments {list(args)} do not share a world")


def load_sheaf_frames(doc: Mapping[str, Any]) -> Tuple[KripkeFrame, KripkeFrame, FrameMap]:
    """The raw (total, base, projection) triple of a sheaf-model document.

    Unlike the full loader this does not require the triple to satisfy the
    sheaf conditions, so diagnostics can be run on documents that fail
    them.  Schema problems still raise.
    """
    where = "sheaf-model"
    if doc.get("kind") != "sheaf-model":
        raise SchemaError(f"document: expected kind 'sheaf-model', got {doc.get('kind')!r}")
    base_carrier = _carrier(doc, "worlds", "W", where)
    agents = _agents(doc, where)
    base = _frame(doc, base_carrier, agents, "relations", where)

    fibers_doc = _require(doc, "fibers", dict, where)
    missing = [w for w in base_carrier if w not in fibers_doc]
    if missing:
        raise SchemaError(f"{where}.fibers: no fiber for world {missing[0]!r}")
    extra = [w for w in fibers_doc if w not in base_carrier.as_set]
    if extra:
        raise SchemaError(f"{where}.fibers: unknown world {extra[0]!r}")
    individuals: List[str] = []
    projection: Dict[str, str] = {}
    for w in base_carrier:
        fib = _string_list(fibers_doc[w], f"{where}.fibers.{w}")
        for a in fib:
            if a in projection:
                raise SchemaError(f"{where}.fibers: individual {a!r} listed twice")
            projection[a] = w
            individuals.append(a)
    total_carrier = FiniteSet("D", tuple(individuals))
    total = _frame(doc, total_carrier, agents, "domain_relation", where)
    proj = frame_map(total, base, projection)
    return total, base, proj


def _load_sheaf(doc: Mapping[str, Any]) -> SheafModel:
    where = "sheaf-model"
    total, base, proj = load_sheaf_frames(doc)
    base_carrier = base.carrier
    total_carrier = total.carrier
    sheaf = KripkeSheaf(total, base, proj)

    fn_doc = _require(doc, "functions", dict, where)
    rel_doc = _require(doc, "predicates", dict, where)
    functions: Dict[str, int] = {}
    relations: Dict[str, int] = {}
    for name, entry in fn_doc.items():
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}.functions.{name}: expected an object")
        functions[name] = _require(entry, "arity", int, f"{where}.functions.{name}")
    for name, entry in rel_doc.items():
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}.predicates.{name}: expected an object")
        relations[name] = _require(entry, "arity", int, f"{where}.predicates.{name}")
    signature = Signature.make(functions, relations)

    names = total_carrier.elements
    domain, bits = total_carrier.index, total_carrier.bit
    tables: Dict[int, Dict[Tuple[str, ...], int]] = {}

    def points_of(pw: FiberedPower) -> Dict[Tuple[str, ...], int]:
        # each point of a positive power by its individuals' names, one
        # table per power, built on the power's first use
        if pw.n not in tables:
            tables[pw.n] = {tuple(map(names.__getitem__, c)): p for p, c in enumerate(pw.coords)}
        return tables[pw.n]

    fn_interp: Dict[str, FrameMap] = {}
    for name in sorted(fn_doc):
        entry = fn_doc[name]
        arity = functions[name]
        pw = sheaf.power(arity)
        here = f"{where}.functions.{name}"
        rows = [0] * len(pw.carrier)
        if arity == 0:
            section = _require(entry, "section", dict, here)
            for w, a in section.items():
                if w not in base_carrier.as_set:
                    raise SchemaError(f"{here}.section: unknown world {w!r}")
                if not isinstance(a, str) or a not in total_carrier.as_set:
                    raise SchemaError(f"{here}.section: undeclared individual {a!r}")
                rows[base_carrier.index[w]] = 1 << total_carrier.index[a]
        else:
            points = points_of(pw)
            table = _require(entry, "map", list, here)
            for i, row in enumerate(table):
                if not isinstance(row, list) or len(row) != 2:
                    raise SchemaError(f"{here}.map[{i}]: expected [arguments, value]")
                args, value = row
                point = _entry_point(points, args, arity, domain, f"{here}.map", i)
                bit = bits.get(value) if isinstance(value, str) else None
                if bit is None:
                    raise SchemaError(f"{here}.map[{i}]: undeclared individual {value!r}")
                if rows[point]:
                    raise SchemaError(f"{here}.map[{i}]: duplicate entry for {args}")
                rows[point] = bit
        if not all(rows):
            raise SchemaError(f"{here}: no value for {pw.carrier.elements[rows.index(0)]!r}")
        fn_interp[name] = FrameMap(
            pw.frame, total, _rel(pw.carrier, total_carrier, rows)
        )

    rel_interp: Dict[str, Subset] = {}
    for name in sorted(rel_doc):
        entry = rel_doc[name]
        arity = relations[name]
        pw = sheaf.power(arity)
        here = f"{where}.predicates.{name}"
        ext = _require(entry, "extension", list, here)
        mask = 0
        if arity == 0:
            for i, row in enumerate(ext):
                if not isinstance(row, str) or row not in base_carrier.as_set:
                    raise SchemaError(f"{here}.extension[{i}]: undeclared world {row!r}")
                mask |= 1 << base_carrier.index[row]
        else:
            points = points_of(pw)
            at = f"{here}.extension"
            for i, row in enumerate(ext):
                mask |= 1 << _entry_point(points, row, arity, domain, at, i)
        rel_interp[name] = _subset(pw.carrier, mask)

    return SheafModel(sheaf, signature, fn_interp, rel_interp)


_LOADERS = {
    "kripke-model": _load_kripke,
    "event-model": _load_event,
    "sheaf-model": _load_sheaf,
}


def load_model(doc: Mapping[str, Any]) -> LoadedModel:
    """Build a model from a parsed JSON document, validating as it goes."""
    if not isinstance(doc, Mapping):
        raise SchemaError("document: expected a JSON object")
    version = _require(doc, "format_version", int, "document")
    if version != FORMAT_VERSION:
        raise SchemaError(f"document: unsupported format_version {version!r}")
    kind = _require(doc, "kind", str, "document")
    loader = _LOADERS.get(kind)
    if loader is None:
        raise SchemaError(
            f"document: unknown kind {kind!r}; expected one of {sorted(_LOADERS)}"
        )
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("document: 'name' must be a string")
    return loader(doc)


def load_file(path: str) -> Tuple[Optional[str], LoadedModel]:
    """Read one JSON file; returns its declared name (if any) and the model."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    model = load_model(doc)
    return doc.get("name"), model


def _print_precondition(pre: Formula) -> str:
    """Plain syntax, or the empty-context form when the precondition is
    first-order, which is the only form the loader reads quantifiers in."""
    if first_order_node(pre):
        return print_formula(as_sentence(pre))
    return print_formula(pre)


def _dump_frame(frame: KripkeFrame) -> Dict[str, Any]:
    """Each agent's pairs in name order, read off the rows with no pair sort.

    The names are sorted once: ``order[r]`` is the carrier index of the
    r-th name.  The sources are walked in that order, and a row's
    successors in name order are its preimage along ``order``, read off
    with one ``compress``.  Names are unique, so this is the order
    ``sorted()`` gives the ``[w, v]`` pairs.
    """
    names = frame.carrier.elements
    order = sorted(range(len(names)), key=names.__getitem__)
    ranked = [names[i] for i in order]
    by_name = function_code(order, len(names))
    out = {}
    for a in frame.agents:
        rows = frame.rel(a).rows
        out[a] = [
            [w, v]
            for w, m in zip(ranked, map(rows.__getitem__, order)) if m
            for v in compress(ranked, preimage_flags(by_name, m))
        ]
    return out


def dump_model(model: LoadedModel, name: Optional[str] = None) -> Dict[str, Any]:
    """Render a model as a JSON-ready document; inverse of load_model."""
    doc: Dict[str, Any] = {"format_version": FORMAT_VERSION}
    if name is not None:
        doc["name"] = name
    if isinstance(model, KripkeModel):
        doc["kind"] = "kripke-model"
        doc["worlds"] = list(model.frame.carrier.elements)
        doc["agents"] = list(model.frame.agents.agents)
        doc["relations"] = _dump_frame(model.frame)
        doc["valuation"] = {a: model.val(a).members_in_order() for a in model.atoms}
        return doc
    if isinstance(model, EventModel):
        doc["kind"] = "event-model"
        doc["events"] = list(model.frame.carrier.elements)
        doc["agents"] = list(model.frame.agents.agents)
        doc["relations"] = _dump_frame(model.frame)
        doc["preconditions"] = {e: _print_precondition(model.pre(e)) for e in model.events}
        return doc
    if isinstance(model, SheafModel):
        sheaf = model.sheaf
        doc["kind"] = "sheaf-model"
        doc["worlds"] = list(sheaf.base.carrier.elements)
        doc["agents"] = list(sheaf.base.agents.agents)
        doc["relations"] = _dump_frame(sheaf.base)
        doc["fibers"] = {w: list(sheaf.fiber(w)) for w in sheaf.base.carrier}
        doc["domain_relation"] = _dump_frame(sheaf.total)

        names = sheaf.total.carrier.elements
        points: Dict[int, List[Tuple[int, Tuple[str, ...]]]] = {}

        def by_world(pw: FiberedPower) -> List[Tuple[int, Tuple[str, ...]]]:
            # each point's individuals, world by world: the order the loader
            # rebuilds from "fibers"; read once per power and document
            if pw.n not in points:
                order = sorted(range(len(pw.carrier)), key=pw.worlds.__getitem__)
                points[pw.n] = [(p, tuple(names[c] for c in pw.coords[p])) for p in order]
            return points[pw.n]

        functions: Dict[str, Any] = {}
        for fname, arity in model.signature.function_symbols:
            fm = model.fn_interp_map[fname]
            pw = model.power(arity)
            if arity == 0:
                functions[fname] = {
                    "arity": 0,
                    "section": {w: fm(w) for w in pw.carrier},
                }
            else:
                values = fm.fn.rows
                functions[fname] = {
                    "arity": arity,
                    "map": [
                        [list(args), names[values[p].bit_length() - 1]] for p, args in by_world(pw)
                    ],
                }
        doc["functions"] = functions
        predicates: Dict[str, Any] = {}
        for rname, arity in model.signature.relation_symbols:
            sub = model.rel_interp_map[rname]
            pw = model.power(arity)
            if arity == 0:
                ext: List[Any] = sub.members_in_order()
            else:
                mask = sub.mask
                ext = [list(args) for p, args in by_world(pw) if mask >> p & 1]
            predicates[rname] = {"arity": arity, "extension": ext}
        doc["predicates"] = predicates
        return doc
    raise SchemaError(f"cannot dump a {type(model).__name__}")

