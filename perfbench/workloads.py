"""The four workloads: seeded inputs, one pass of operations, checks, probes.

Operation kinds mirror the command line: a *query* is ``delmc eval``
(parse, then evaluate on a model that is already loaded), an *update* is
``delmc update --out`` (update, then dump the result), a *reduce* is
``delmc reduce --model`` (reduce with every step verified), and a *suite*
is ``delmc laws --suite S`` at its default case count.  Each pass loads
its models from their JSON documents, as each command does.

Sizes are fixed per workload and spread over a range; the seed picks the
random structures.  Everything comes from ``delmc.generators`` and is
kept only when it matches a fixed schedule (formula shapes, literal
preconditions, sheaf sizes), so every seed gives the same mix of work.
The choice never depends on run time.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import Callable, Dict

import fo_oracle
import oracle
from delmc import (
    Atom,
    DEFAULT_CASES,
    DelBox,
    DelDia,
    EventModel,
    Exists,
    Forall,
    FormulaInContext,
    KripkeModel,
    KripkeSheaf,
    Not,
    PalBox,
    PalDia,
    Pred,
    SUITES,
    SheafModel,
    compose,
    dagger,
    dump_model,
    exists_map,
    extension,
    fibered_power,
    forall_map,
    initial_lift,
    interp_formula,
    is_kripke_sheaf,
    is_static,
    load_model,
    parse_formula,
    print_formula,
    product,
    product_update,
    pullback,
    pullback_update,
    reduce_formula,
    run_suite,
)
from delmc import apply as apply_map
from delmc import generators as gen

import checks

ATOMS = ("p", "q")


# Modal operator mixes (boxes, diamonds) cycled through by the query
# schedules.  A box costs the evaluator about twice a diamond, so the mix
# is fixed rather than left to the generator.
MODAL_MIXES = ((1, 0), (0, 1), (1, 1), (0, 2))
EVENT_DENSITY = 0.4


def pick(make: Callable, accept: Callable, tries: int = 100000):
    """First generated object that is accepted."""
    for _ in range(tries):
        item = make()
        if accept(item):
            return item
    raise RuntimeError("the generator gave nothing of the requested shape")


def has_shape(phi, height: int, boxes: int, dias: int, pal=0, events=0, quantifiers=0) -> bool:
    s = checks.shape(phi)
    want = (height, boxes, dias, pal, events, quantifiers)
    return (s.height, s.boxes, s.dias, s.pal, s.events, s.quantifiers) == want


SCOPES = ("event over quantifier", "quantifier over event", "apart")


def event_scope(phi) -> str:
    """Whether the event operators sit above, below or beside the quantifiers."""
    quantifiers = (Forall, Exists)
    events = (DelBox, DelDia)
    for node in checks.subformulas(phi):
        below = list(checks.subformulas(node))[1:]
        if isinstance(node, events) and any(isinstance(n, quantifiers) for n in below):
            return SCOPES[0]
        if isinstance(node, quantifiers) and any(isinstance(n, events) for n in below):
            return SCOPES[1]
    return SCOPES[2]


def is_literal(phi) -> bool:
    """An atom or a negated atom: its extent is about half the worlds."""
    atom = phi.body if isinstance(phi, Not) else phi
    return isinstance(atom, (Atom, Pred))


def load(tr, text: str):
    """Decode a JSON document and load it, as ``delmc`` does with a model file."""
    doc = json.loads(text)
    with tr.span("modelio.load_model"):
        return load_model(doc)


def event_model(rng: random.Random, n_events: int, agents, precondition: Callable) -> EventModel:
    """An event model built as the generators build one, but with each
    agent relating a fixed share of the event pairs, since updated
    relations scale with it, and with literal preconditions drawn from
    `precondition`."""
    carrier = gen.random_carrier(rng, n_events, prefix="e")
    pairs = round(EVENT_DENSITY * n_events * n_events)
    frame = pick(
        lambda: gen.random_frame(rng, carrier, agents, EVENT_DENSITY),
        lambda f: all(len(f.rel(a).pairs) == pairs for a in f.agents),
    )
    return EventModel.make(frame, {e: pick(precondition, is_literal) for e in carrier})


def kernel_probes(tr, relations, subset_of) -> None:
    """Dagger, image maps and their application on the workload's relations."""
    for r in relations:
        with tr.span("rel.dagger"):
            back = dagger(r)
        with tr.span("powerset.forall_map"):
            box = forall_map(back)
        with tr.span("powerset.exists_map"):
            dia = exists_map(back)
        s = subset_of(r)
        with tr.span("powerset.apply"):
            apply_map(box, s)
            apply_map(dia, s)


class KripkeEval:
    """Read path: static modal queries on propositional models of 250-400 worlds."""

    name = "kripke-eval"
    sizes = (250, 287, 325, 362, 400)
    densities = (0.4, 0.32, 0.26, 0.21, 0.18)
    queries_per_model = 4

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        agents = gen.random_agents(rng, 2)
        blocks = []
        for i, (size, density) in enumerate(zip(self.sizes, self.densities)):
            carrier = gen.random_carrier(rng, size)
            frame = gen.random_frame(rng, carrier, agents, density)
            model = KripkeModel.make(frame, {a: gen.random_subset(rng, carrier) for a in ATOMS})
            formulas = []
            for j in range(i * self.queries_per_model, (i + 1) * self.queries_per_model):
                depth, (boxes, dias) = 2 + j % 5, MODAL_MIXES[j % len(MODAL_MIXES)]
                formulas.append(pick(
                    lambda: gen.random_formula(rng, ATOMS, tuple(agents), depth, allow_dynamic=False),
                    lambda f: has_shape(f, depth, boxes, dias),
                ))
            blocks.append({
                "doc": json.dumps(dump_model(model)),
                "formulas": formulas,
                "texts": [print_formula(f) for f in formulas],
            })
        return {"blocks": blocks, "refs": {}}

    def run_pass(self, inp: dict, rec) -> None:
        tr = rec.tr
        for i, block in enumerate(inp["blocks"]):
            model = rec.op("load", (i, "model"), lambda: load(tr, block["doc"]), units=0, checked=False)
            for j, text in enumerate(block["texts"]):
                def query(text=text):
                    with tr.span("parser.parse_formula"):
                        phi = parse_formula(text)
                    with tr.span("models.extension"):
                        return extension(model, phi).members
                rec.op("query", (i, j), query)

    def check(self, inp: dict, op) -> str:
        i, j = op.key
        refs = inp["refs"]
        if (i, j) not in refs:
            if i not in refs:
                refs[i] = checks.BitModel(json.loads(inp["blocks"][i]["doc"]))
            refs[(i, j)] = refs[i].extension(inp["blocks"][i]["formulas"][j])
        return "" if op.output == refs[(i, j)] else "extension differs from the reference"

    def counts(self, ops) -> Dict[str, float]:
        return {}

    def probes(self, inp: dict, tr) -> Dict[str, float]:
        models = [load_model(json.loads(b["doc"])) for b in inp["blocks"]]
        for m in models:
            kernel_probes(tr, [m.frame.rel(a) for a in m.frame.agents], lambda r, m=m: m.val("p"))
        smallest = min(models, key=lambda m: len(m.frame.carrier.elements))
        with tr.span("rel.compose"):
            compose(smallest.frame.rel("a"), smallest.frame.rel("b"))
        return reference_extension(tr)


class KripkeUpdate:
    """Write path: product updates, PAL/DEL queries and reductions on 40-80 worlds."""

    name = "kripke-update"
    sizes = (40, 50, 60, 70, 80)
    densities = (0.45, 0.39, 0.34, 0.3, 0.27)
    events = (2, 3, 4)
    queries_per_model = 6
    reduces_per_model = 2

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        agents = gen.random_agents(rng, 2)
        blocks = []
        for i, (size, density) in enumerate(zip(self.sizes, self.densities)):
            carrier = gen.random_carrier(rng, size)
            frame = gen.random_frame(rng, carrier, agents, density)
            model = KripkeModel.make(frame, {a: gen.random_subset(rng, carrier) for a in ATOMS})
            evs = {}
            for k in range(2):
                n_events = self.events[(i + k) % len(self.events)]
                evs[f"E{k + 1}"] = event_model(
                    rng, n_events, agents,
                    lambda: gen.random_formula(rng, ATOMS, tuple(agents), 1, allow_dynamic=False))
            formulas = []
            for j in range(self.queries_per_model + self.reduces_per_model):
                depth, (boxes, dias) = 2 + j % 3, MODAL_MIXES[j // 2 % 2]
                if j % 2:
                    ref = f"E{1 + j // 4 % 2}"
                    refs = [(ref, e) for e in evs[ref].events]
                    accept = lambda f: has_shape(f, depth, boxes, dias, events=1)
                else:
                    refs = []
                    accept = lambda f: has_shape(f, depth, boxes, dias, pal=1) and all(
                        is_literal(n.announcement)
                        for n in checks.subformulas(f) if isinstance(n, (PalBox, PalDia)))
                formulas.append(pick(
                    lambda: gen.random_formula(rng, ATOMS, tuple(agents), depth, event_refs=refs),
                    accept,
                ))
            blocks.append({
                "doc": json.dumps(dump_model(model)),
                "events": {name: json.dumps(dump_model(ev)) for name, ev in evs.items()},
                "event_models": evs,
                "formulas": formulas,
                "texts": [print_formula(f) for f in formulas],
            })
        return {"blocks": blocks, "refs": {}}

    def run_pass(self, inp: dict, rec) -> None:
        tr = rec.tr
        nq = self.queries_per_model
        for i, block in enumerate(inp["blocks"]):
            model, registry = rec.op("load", (i, "models"), lambda: (
                load(tr, block["doc"]),
                {name: load(tr, text) for name, text in block["events"].items()},
            ), units=0, checked=False) or (None, {})
            for name, ev in registry.items():
                def update(ev=ev):
                    with tr.span("models.product_update"):
                        upd = product_update(model, ev, registry)
                    with tr.span("modelio.dump_model"):
                        doc = dump_model(upd.updated)
                    return doc, sum(len(s.members) for _, s in upd.pre_extents)
                rec.op("update", (i, name), update)
            for j, text in enumerate(block["texts"][:nq]):
                def query(text=text):
                    with tr.span("parser.parse_formula"):
                        phi = parse_formula(text, event_models=registry)
                    with tr.span("models.extension"):
                        return extension(model, phi, registry).members
                rec.op("query", (i, j), query)
            with tr.span("parser.parse_formula"):
                phis = [parse_formula(t, event_models=registry) for t in block["texts"][nq:]]
            for j, phi in enumerate(phis, start=nq):
                def reduce(phi=phi):
                    with tr.span("reduction.reduce_formula"):
                        return reduce_formula(phi, model, registry)
                rec.op("reduce", (i, j), reduce)

    def _oracle(self, inp: dict, i: int):
        refs = inp["refs"]
        if i not in refs:
            block = inp["blocks"][i]
            doc = json.loads(block["doc"])
            oreg = {n: oracle.from_event_model(ev) for n, ev in block["event_models"].items()}
            refs[i] = (checks.kripke_oracle(doc), oreg, checks.BitModel(doc))
        return refs[i]

    def _expected(self, inp: dict, i: int, j: int) -> frozenset:
        refs = inp["refs"]
        if (i, j) not in refs:
            om, oreg, _ = self._oracle(inp, i)
            refs[(i, j)] = frozenset(
                oracle.extension(om, inp["blocks"][i]["formulas"][j], oreg))
        return refs[(i, j)]

    def check(self, inp: dict, op) -> str:
        i, j = op.key
        om, oreg, bits = self._oracle(inp, i)
        if op.kind == "update":
            doc, extent_total = op.output
            if len(doc["worlds"]) != extent_total:
                return "updated world count is not the sum of the precondition extents"
            return checks.product_document_matches(doc, om, oreg[j], oreg)
        want = self._expected(inp, i, j)
        if op.kind == "query":
            return "" if op.output == want else "extension differs from the oracle"
        if not is_static(op.output.result):
            return "reduction result is not static"
        if bits.extension(op.output.result) != want:
            return "reduced formula's extension differs from the oracle"
        return ""

    def counts(self, ops) -> Dict[str, float]:
        return {
            "models.updated_worlds": sum(len(op.output[0]["worlds"]) for op in ops if op.kind == "update"),
            **reduction_counts(ops),
        }

    def probes(self, inp: dict, tr) -> Dict[str, float]:
        for block in inp["blocks"]:
            model = load_model(json.loads(block["doc"]))
            registry = {n: load_model(json.loads(t)) for n, t in block["events"].items()}
            kernel_probes(tr, [model.frame.rel(a) for a in model.frame.agents], lambda r: model.val("p"))
            for ev in registry.values():
                upd = product_update(model, ev, registry)
                with tr.span("frames.initial_lift"):
                    initial_lift([model.frame, ev.frame], [upd.p_x.fn, upd.p_e.fn])
                with tr.span("frames.product"):
                    product(model.frame, ev.frame)
        return reference_product_update(tr)


class SheafFO:
    """First-order layer: sheaves over 8-12 base worlds with fibers of 1-4 individuals."""

    name = "sheaf-fo"
    # Each block's queries and reduces all contain its event operator and
    # cost about the same, so blocks, not queries, average out the seed.
    bases = (8, 9, 10, 11, 12) * 2
    base_density = 0.3
    max_fiber = 4
    individuals_per_world = 2.5
    queries_per_model = 4
    reduces_per_model = 2
    context = ("x",)

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        agents = gen.random_agents(rng, 2)
        blocks = []
        for size in self.bases:
            pairs = self.base_density * size * size
            base = pick(
                lambda: gen.random_frame(rng, gen.random_carrier(rng, size), agents, self.base_density),
                lambda f: all(abs(len(f.rel(a).pairs) - pairs) <= 1 for a in f.agents),
            )
            sheaf = pick(
                lambda: self.draw_sheaf(rng, base),
                lambda sh: sh is not None and self.usual_fibers([len(sh.fiber(w)) for w in sh.base.carrier]),
            )
            drawn = gen.random_sheaf_model(rng, sheaf)
            q = pick(lambda: gen.random_subset(rng, base.carrier), lambda s: self.halves(sheaf, s))
            model = SheafModel(sheaf, drawn.signature, drawn.fn_interp_map,
                               {**drawn.rel_interp_map, "Q": q})
            ev = event_model(rng, 3, agents, lambda: gen.random_fo_formula(rng, model, (), 1))
            refs = [("E", e) for e in ev.events]
            formulas = []
            for j in range(self.queries_per_model + self.reduces_per_model):
                (boxes, dias), scope = MODAL_MIXES[j % 2], SCOPES[j % len(SCOPES)]
                formulas.append(pick(
                    lambda: gen.random_fo_formula(rng, model, self.context, 3, event_refs=refs),
                    lambda f: (has_shape(f, 3, boxes, dias, events=1, quantifiers=1)
                               and event_scope(f) == scope),
                ))
            blocks.append({
                "doc": json.dumps(dump_model(model)),
                "event": json.dumps(fo_event_document(ev)),
                "event_model": ev,
                "formulas": formulas,
                "texts": [print_formula(FormulaInContext(self.context, f)) for f in formulas],
            })
        return {"blocks": blocks, "refs": {}}

    def draw_sheaf(self, rng: random.Random, base):
        """random_sheaf from a generator of its own, or None when the fiber
        sizes it would draw first miss the schedule.  Building a sheaf costs
        far more than reading its sizes ahead from a copy of that generator;
        the caller still checks the sizes of the sheaf that is built."""
        own = random.Random(rng.getrandbits(64))
        ahead = random.Random()
        ahead.setstate(own.getstate())
        sizes = [ahead.randrange(1, self.max_fiber + 1) for _ in base.carrier]
        return gen.random_sheaf(own, base, self.max_fiber) if self.usual_fibers(sizes) else None

    def usual_fibers(self, sizes) -> bool:
        """About the average number of individuals and the average sum of
        cubes of the fiber sizes, which sets the third fibered power's size."""
        n = len(sizes)
        mean_cube = sum(k ** 3 for k in range(1, self.max_fiber + 1)) / self.max_fiber
        return (abs(sum(sizes) - self.individuals_per_world * n) <= 1
                and abs(sum(k ** 3 for k in sizes) - mean_cube * n) <= 0.05 * mean_cube * n)

    @staticmethod
    def halves(sheaf, q) -> bool:
        """Q holds at about half the base worlds, which carry about half the
        individuals.  Event preconditions are literals, which over this
        signature have come out as Q or its negation, so every update
        keeps about half the individuals per event; the updated
        sheaf's size sets the cost of the update and of every query and
        reduce that contains the event operator."""
        worlds, total = len(sheaf.base.carrier.elements), len(sheaf.total.carrier.elements)
        inside = sum(len(sheaf.fiber(w)) for w in q.members)
        return abs(2 * len(q.members) - worlds) <= 2 and abs(2 * inside - total) <= 2

    def run_pass(self, inp: dict, rec) -> None:
        tr = rec.tr
        nq = self.queries_per_model
        for i, block in enumerate(inp["blocks"]):
            model, registry = rec.op("load", (i, "models"), lambda: (
                load(tr, block["doc"]), {"E": load(tr, block["event"])},
            ), units=0, checked=False) or (None, {})
            sheaf = model.sheaf if model else None

            def build():
                with tr.span("sheaves.kripke_sheaf"):
                    return KripkeSheaf(sheaf.total, sheaf.base, sheaf.proj)
            rec.op("sheaf", (i, "sheaf"), build)

            def sheaf_check():
                with tr.span("sheaves.is_kripke_sheaf"):
                    return is_kripke_sheaf(sheaf.total, sheaf.base, sheaf.proj).is_sheaf
            rec.op("sheaf-check", (i, "check"), sheaf_check)
            for n in (2, 3):
                def power(n=n):
                    with tr.span("sheaves.fibered_power"):
                        return len(fibered_power(sheaf, n).carrier.elements)
                rec.op("power", (i, n), power)

            def update():
                with tr.span("sheaves.pullback_update"):
                    upd = pullback_update(model, registry["E"], registry)
                with tr.span("modelio.dump_model"):
                    doc = dump_model(upd.updated)
                return doc, sum(len(s.members) for s in upd.extents.values())
            rec.op("update", (i, "E"), update)
            for j, text in enumerate(block["texts"][:nq]):
                def query(text=text):
                    with tr.span("parser.parse_formula"):
                        phi = parse_formula(text, event_models=registry)
                    with tr.span("sheaves.interp_formula"):
                        return interp_formula(model, phi, registry).members
                rec.op("query", (i, j), query)
            with tr.span("parser.parse_formula"):
                phis = [parse_formula(t, event_models=registry) for t in block["texts"][nq:]]
            for j, phi in enumerate(phis, start=nq):
                def reduce(phi=phi):
                    with tr.span("reduction.reduce_formula"):
                        return reduce_formula(phi, model, registry)
                rec.op("reduce", (i, j), reduce)

    def _oracle(self, inp: dict, i: int):
        refs = inp["refs"]
        if i not in refs:
            block = inp["blocks"][i]
            doc = json.loads(block["doc"])
            refs[i] = (doc, checks.sheaf_oracle(doc), {"E": fo_oracle.from_event_model(block["event_model"])})
        return refs[i]

    def _expected(self, inp: dict, i: int, j: int) -> frozenset:
        refs = inp["refs"]
        if (i, j) not in refs:
            _, o, oreg = self._oracle(inp, i)
            refs[(i, j)] = checks.fo_extension(o, self.context, inp["blocks"][i]["formulas"][j], oreg)
        return refs[(i, j)]

    def check(self, inp: dict, op) -> str:
        i, j = op.key
        doc, o, oreg = self._oracle(inp, i)
        fibers = doc["fibers"]
        if op.kind == "sheaf":
            same = {w: list(op.output.fiber(w)) for w in op.output.base.carrier} == fibers
            return "" if same else "constructed sheaf has other fibers than its document"
        if op.kind == "sheaf-check":
            return "" if op.output else "a generated sheaf failed the sheaf check"
        if op.kind == "power":
            want = sum(len(f) ** j for f in fibers.values())
            return "" if op.output == want else f"fibered power {j} has {op.output} tuples, not {want}"
        if op.kind == "update":
            doc_out, extent_total = op.output
            if len(doc_out["worlds"]) != extent_total:
                return "updated world count is not the sum of the precondition extents"
            return checks.pullback_document_matches(doc_out, o, oreg["E"], oreg)
        want = self._expected(inp, i, j)
        if op.kind == "query":
            return "" if op.output == want else "extension differs from the first-order oracle"
        if not is_static(op.output.result):
            return "reduction result is not static"
        got = checks.fo_extension(o, op.output.context, op.output.result, oreg)
        return "" if got == want else "reduced formula's extension differs from the oracle"

    def counts(self, ops) -> Dict[str, float]:
        return {
            "sheaves.power_tuples": sum(op.output for op in ops if op.kind == "power"),
            "sheaves.updated_individuals": sum(
                len(f) for op in ops if op.kind == "update" for f in op.output[0]["fibers"].values()),
            **reduction_counts(ops),
        }

    def probes(self, inp: dict, tr) -> Dict[str, float]:
        for block in inp["blocks"]:
            model = load_model(json.loads(block["doc"]))
            sheaf = model.sheaf
            rels = [f.rel(a) for f in (sheaf.base, sheaf.total) for a in f.agents]
            preds = {sheaf.base.carrier: model.rel_interp_map["Q"],
                     sheaf.total.carrier: model.rel_interp_map["P1"]}
            kernel_probes(tr, rels, lambda r: preds[r.dom])
            with tr.span("frames.pullback"):
                pullback(sheaf.proj, sheaf.proj)
        return {}


def fo_event_document(ev) -> dict:
    """An event-model document whose preconditions carry the ``ctx |`` header.

    dump_model writes a first-order precondition without the header, and
    load_model then rejects its quantifiers, so the preconditions are
    written here in the documented sentence form instead.
    """
    doc = dump_model(ev)
    doc["preconditions"] = {
        e: print_formula(FormulaInContext((), ev.pre(e))) for e in ev.events
    }
    return doc


class LawsDefault:
    """The default ``delmc laws`` run: every suite at its default case count
    and the command's default base seed 0, whatever the workload seed.

    A suite draws its own instances from its seed, and their sizes are not
    the benchmark's to fix: across base seeds the slowest suite alone took
    3.8 to 7.8 s.  The ROADMAP's targets are stated on this exact run.
    """

    name = "laws-default"
    base_seed = 0

    def setup(self, seed: int) -> dict:
        return {"seed": self.base_seed}

    def run_pass(self, inp: dict, rec) -> None:
        for idx, name in enumerate(SUITES):
            def suite(name=name, seed=inp["seed"] + idx):
                with rec.tr.span(f"laws.{name}"):
                    return run_suite(name, seed=seed)
            rec.op("suite", name, suite, units=lambda report: report.cases)

    def check(self, inp: dict, op) -> str:
        report = op.output
        if report.suite != op.key:
            return f"report names suite {report.suite!r}"
        if report.cases < DEFAULT_CASES[op.key]:
            return f"ran {report.cases} cases, fewer than the default {DEFAULT_CASES[op.key]}"
        return "" if report.ok else f"{len(report.failures)} law failure(s): {report.failures[:2]}"

    def counts(self, ops) -> Dict[str, float]:
        return {"laws.cases": sum(op.output.cases for op in ops)}

    def probes(self, inp: dict, tr) -> Dict[str, float]:
        return {}


def reduction_counts(ops) -> Dict[str, float]:
    results = [op.output for op in ops if op.kind == "reduce"]
    return {
        "reduction.steps": sum(r.step_count for r in results),
        "reduction.result_nodes": sum(checks.shape(r.result).nodes for r in results),
    }


# ROADMAP reference instances.  They use fixed generator seeds, not the
# workload seed, so that every run and every commit times the same instance.
REFERENCE_SEED = 0


def _median_ms(tr, name: str, calls) -> float:
    times = []
    for call in calls:
        with tr.span(name):
            start = time.perf_counter()
            call()
            times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def reference_product_update(tr) -> Dict[str, float]:
    """product_update on 80 worlds x 3 events: random_model(Random(0), 80, 2 agents),
    then random_event_model(same rng, 3 events); median of 5 calls."""
    rng = random.Random(REFERENCE_SEED)
    agents = gen.random_agents(rng, 2)
    model = gen.random_model(rng, 80, agents)
    ev = gen.random_event_model(rng, 3, agents, ATOMS)
    worlds = len(product_update(model, ev).updated.frame.carrier.elements)
    return {
        "ref.product_update_80x3_ms": _median_ms(
            tr, "ref.product_update_80x3", [lambda: product_update(model, ev)] * 5),
        "ref.product_update_80x3_worlds": worlds,
    }


def reference_extension(tr) -> Dict[str, float]:
    """extension of depth-6 static formulas on 400 worlds, 2 agents:
    random_model(Random(0), 400, 2 agents), then ten random_formula(same rng,
    depth 6, static); median over the ten."""
    rng = random.Random(REFERENCE_SEED)
    agents = gen.random_agents(rng, 2)
    model = gen.random_model(rng, 400, agents)
    formulas = [
        gen.random_formula(rng, ATOMS, tuple(agents), 6, allow_dynamic=False) for _ in range(10)
    ]
    return {
        "ref.extension_d6_400w_ms": _median_ms(
            tr, "ref.extension_d6_400w", [lambda f=f: extension(model, f) for f in formulas]),
    }


WORKLOADS = {w.name: w for w in (KripkeEval(), KripkeUpdate(), SheafFO(), LawsDefault())}
