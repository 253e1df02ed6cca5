"""JSON serialization: loading, dumping, schema diagnostics."""

import copy
import json
import random
import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import ACROSS_WORLDS
from delmc import (
    AgentSet,
    EventModel,
    FiniteSet,
    KripkeModel,
    Rel,
    SchemaError,
    SheafModel,
    dump_model,
    is_kripke_sheaf,
    load_file,
    load_model,
    load_sheaf_frames,
    product_update,
    pullback_update,
)
from delmc.generators import (
    random_carrier,
    random_event_model,
    random_fo_event_model,
    random_frame,
    random_model,
    random_sheaf,
    random_sheaf_model,
)
from delmc.modelio import _dump_frame, _pair_rows

AB = AgentSet(("a", "b"))


def kripke_doc():
    _, m = load_file("tests/data/two_worlds.json")
    return dump_model(m, "two-worlds")


def event_doc():
    _, ev = load_file("tests/data/private_announcement.json")
    return dump_model(ev, "F")


def sheaf_doc():
    _, m = load_file("tests/data/two_fibers.json")
    return dump_model(m, "two-fibers")


def fo_event_doc():
    _, ev = load_file("tests/data/fo_event.json")
    return dump_model(ev, "E")


def test_load_file_returns_declared_names():
    name, m = load_file("tests/data/two_worlds.json")
    assert name == "two-worlds"
    assert isinstance(m, KripkeModel)
    name, ev = load_file("tests/data/private_announcement.json")
    assert name == "F"
    assert isinstance(ev, EventModel)
    name, s = load_file("tests/data/two_fibers.json")
    assert name == "two-fibers"
    assert isinstance(s, SheafModel)


@pytest.mark.parametrize("doc_fn", [kripke_doc, event_doc, sheaf_doc, fo_event_doc])
def test_dump_load_dump_round_trip(doc_fn):
    doc = doc_fn()
    again = dump_model(load_model(doc), doc["name"])
    assert again == doc


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_random_kripke_models(seed):
    rng = random.Random(seed)
    model = random_model(rng, rng.randrange(1, 5), AB)
    doc = dump_model(model, "m")
    loaded = load_model(doc)
    assert dump_model(loaded, "m") == doc
    # same worlds, steps and valuation (carrier names follow the document)
    assert tuple(loaded.frame.carrier) == tuple(model.frame.carrier)
    for ag in AB:
        assert loaded.frame.rel(ag).pairs == model.frame.rel(ag).pairs
    for p in model.atoms:
        assert loaded.val(p).members == model.val(p).members


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_random_event_models(seed):
    rng = random.Random(seed)
    ev = random_event_model(rng, rng.randrange(1, 4), AB, ("p", "q"))
    doc = dump_model(ev, "E")
    loaded = load_model(doc)
    assert dump_model(loaded, "E") == doc
    assert tuple(loaded.events) == tuple(ev.events)
    # preconditions compare as parsed formula trees
    for e in ev.events:
        assert loaded.pre(e) == ev.pre(e)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_random_sheaf_models(seed):
    rng = random.Random(seed)
    base = random_frame(rng, random_carrier(rng, rng.randrange(1, 4), prefix="w"), AB)
    model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=2))
    doc = dump_model(model, "s")
    assert dump_model(load_model(doc), "s") == doc


def assert_pairs_in_name_order(doc, frame, key):
    for a in frame.agents:
        assert doc[key][a] == sorted([w, v] for w, v in frame.rel(a).pairs)


@pytest.mark.parametrize("seed", range(4))
def test_dump_writes_pairs_in_name_order(seed):
    # at 11 worlds and more, carrier order ("w2" before "w10") is not name
    # order, nor is it among update labels such as "(w10,e1)" and "(w1,e1)"
    rng = random.Random(seed)
    model = random_model(rng, rng.randrange(11, 16), AB)
    ev = random_event_model(rng, 3, AB, ("p", "q"))
    updated = product_update(model, ev).updated
    for m in (model, ev, updated):
        assert_pairs_in_name_order(dump_model(m), m.frame, "relations")
    assert list(model.frame.carrier) != sorted(model.frame.carrier)
    assert list(updated.frame.carrier) != sorted(updated.frame.carrier)

    base = random_frame(rng, random_carrier(rng, rng.randrange(11, 14), prefix="w"), AB)
    sheaf_model = random_sheaf_model(rng, random_sheaf(rng, base, max_fiber=2))
    upd = pullback_update(sheaf_model, random_fo_event_model(rng, sheaf_model, 2)).updated
    for m in (sheaf_model, upd):
        doc = dump_model(m)
        assert_pairs_in_name_order(doc, m.sheaf.base, "relations")
        assert_pairs_in_name_order(doc, m.sheaf.total, "domain_relation")
    assert list(sheaf_model.sheaf.total.carrier) != sorted(sheaf_model.sheaf.total.carrier)


@pytest.mark.parametrize("size", [1, 255, 256, 257, 513])
def test_dump_frame_lists_the_sorted_pairs(size):
    # shuffled names, so that name order is not carrier order; the name
    # permutation's code has one chunk up to 256 names and more past it
    rng = random.Random(size)
    names = [f"w{i}" for i in range(size)]
    rng.shuffle(names)
    carrier = FiniteSet("W", names)
    frame = random_frame(rng, carrier, AB, density=min(0.5, 8 / size))
    assert size == 1 or names != sorted(names)
    dumped = _dump_frame(frame)
    for a in AB:
        assert dumped[a] == sorted([w, v] for w, v in frame.rel(a).pairs)


def test_dump_file_load_file(tmp_path):
    _, model = load_file("tests/data/two_worlds.json")
    out = tmp_path / "copy.json"
    out.write_text(json.dumps(dump_model(model, "copied"), indent=2), encoding="utf-8")
    name, back = load_file(str(out))
    assert name == "copied"
    assert back == model


def test_load_sheaf_frames_returns_valid_triple():
    doc = sheaf_doc()
    total, base, proj = load_sheaf_frames(doc)
    assert is_kripke_sheaf(total, base, proj).is_sheaf
    assert set(base.carrier) == {"w1", "w2"}
    assert set(total.carrier) == {"d1", "d2", "d3"}


def test_load_sheaf_frames_diagnoses_broken_documents():
    # deleting one domain step breaks boundedness, yet the frames still load
    doc = sheaf_doc()
    doc["domain_relation"]["a"] = [["d2", "d3"], ["d3", "d3"]]
    total, base, proj = load_sheaf_frames(doc)
    chk = is_kripke_sheaf(total, base, proj)
    assert not chk.is_sheaf and not chk.bounded
    # while load_model insists on the sheaf conditions
    with pytest.raises(Exception):
        load_model(doc)


def broken(doc, mutate):
    d = copy.deepcopy(doc)
    mutate(d)
    return d


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("format_version"), "format_version"),
        (lambda d: d.update(kind="mystery"), "kind"),
        (lambda d: d.update(worlds=["w1", "w1"]), "duplicate"),
        (lambda d: d["relations"].pop("a"), "no relation"),
        (lambda d: d["relations"].update(zz=[]), "unknown agent"),
        (lambda d: d["relations"].update(a=[["w1", "nope"]]), "undeclared"),
        (lambda d: d["valuation"].update(p=["nope"]), "undeclared world"),
        (lambda d: d.update(agents=[]), "empty"),
    ],
)
def test_kripke_schema_errors(mutate, fragment):
    doc = broken(kripke_doc(), mutate)
    with pytest.raises(SchemaError) as exc:
        load_model(doc)
    assert fragment in str(exc.value)


def test_event_schema_errors():
    doc = event_doc()
    with pytest.raises(SchemaError) as exc:
        load_model(broken(doc, lambda d: d["preconditions"].pop("ep")))
    assert "no precondition" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        load_model(broken(doc, lambda d: d["preconditions"].update(ep=7)))
    assert "formula string" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        load_model(broken(doc, lambda d: d["preconditions"].update(ep="ctx x | P(x)")))
    assert "sentence" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        no_events = {"events": [], "preconditions": {}, "relations": {"a": [], "b": []}}
        load_model(broken(doc, lambda d: d.update(no_events)))
    assert "event-model.events: must not be empty" in str(exc.value)



@pytest.mark.parametrize(
    "text, message",
    [
        ("p & ", "expected a formula, found 'end of input' (line 1, column 5)"),
        ("ctx | P(y)", "variable 'y' is neither in the context nor bound (line 1, column 9)"),
    ],
)
def test_precondition_parse_errors_name_their_event(text, message):
    doc = broken(event_doc(), lambda d: d["preconditions"].update(ep=text))
    with pytest.raises(SchemaError) as exc:
        load_model(doc)
    assert str(exc.value) == f"event-model.preconditions.ep: {message}"

def test_sheaf_schema_errors():
    doc = sheaf_doc()
    with pytest.raises(SchemaError) as exc:
        load_model(broken(doc, lambda d: d["fibers"].pop("w1")))
    assert "fiber" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        load_model(
            broken(doc, lambda d: d["predicates"]["P"].update(extension=[["zz"]]))
        )
    assert "undeclared" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        load_sheaf_frames(broken(doc, lambda d: d.update(kind="kripke-model")))
    assert "sheaf-model" in str(exc.value)


@pytest.mark.parametrize("mutate, message", ACROSS_WORLDS, ids=["function", "predicate"])
def test_arguments_over_two_worlds_rejected(mutate, message):
    with pytest.raises(SchemaError) as exc:
        load_model(broken(sheaf_doc(), mutate))
    assert str(exc.value) == message


def _set_f_entry(i, entry):
    def edit(d):
        d["functions"]["f"]["map"][i] = entry
    return edit


def _as_a_b(d):
    """The document with individuals d1 and d2 renamed a and b."""
    text = json.dumps(d).replace('"d1"', '"a"').replace('"d2"', '"b"')
    d.clear()
    d.update(json.loads(text))


def _then(*edits):
    def edit(d):
        for e in edits:
            e(d)
    return edit


F = "sheaf-model.functions.f"
P = "sheaf-model.predicates.P"
ONE = "expected a list of 1 individuals"

# Edits to two_fibers.json, each with the loader's exact message, or None
# when the edited document loads and dumps as the unedited one does
TABLE_ENTRY_FAULTS = [
    ("fn-row-not-a-pair", _set_f_entry(0, ["d1"]), f"{F}.map[0]: expected [arguments, value]"),
    ("fn-args-not-a-list", _set_f_entry(0, ["d1", "d2"]), f"{F}.map[0]: {ONE}"),
    ("fn-wrong-arity", _set_f_entry(0, [["d1", "d2"], "d2"]), f"{F}.map[0]: {ONE}"),
    ("fn-non-string-arg", _set_f_entry(0, [[7], "d2"]), f"{F}.map[0]: {ONE}"),
    ("fn-unhashable-arg", _set_f_entry(0, [[["d1"]], "d2"]), f"{F}.map[0]: {ONE}"),
    (
        "fn-undeclared-arg",
        _set_f_entry(1, [["zz"], "d2"]),
        f"{F}.map[1]: undeclared individual 'zz'",
    ),
    (
        "fn-undeclared-second-arg",
        lambda d: d["functions"].update(g={"arity": 2, "map": [[["d1", "zz"], "d1"]]}),
        "sheaf-model.functions.g.map[0]: undeclared individual 'zz'",
    ),
    ("fn-across-worlds", ACROSS_WORLDS[0][0], ACROSS_WORLDS[0][1]),
    (
        "fn-duplicate",
        lambda d: d["functions"]["f"]["map"].append([["d1"], "d1"]),
        f"{F}.map[3]: duplicate entry for ['d1']",
    ),
    ("fn-no-value", lambda d: d["functions"]["f"]["map"].pop(2), f"{F}: no value for 'd3'"),
    ("fn-non-string-value", _set_f_entry(0, [["d1"], 7]), f"{F}.map[0]: undeclared individual 7"),
    (
        "fn-undeclared-value",
        _set_f_entry(0, [["d1"], "zz"]),
        f"{F}.map[0]: undeclared individual 'zz'",
    ),
    (
        "fn-string-arg",
        _then(_as_a_b, lambda d: d["functions"].update(g={"arity": 2, "map": [["ab", "a"]]})),
        "sheaf-model.functions.g.map[0]: expected a list of 2 individuals",
    ),
    (
        "pred-args-not-a-list",
        lambda d: d["predicates"]["P"].update(extension=["d1"]),
        f"{P}.extension[0]: {ONE}",
    ),
    (
        "pred-wrong-arity",
        lambda d: d["predicates"]["P"].update(extension=[["d1"], ["d1", "d2"]]),
        f"{P}.extension[1]: {ONE}",
    ),
    (
        "pred-non-string-arg",
        lambda d: d["predicates"]["P"].update(extension=[[None]]),
        f"{P}.extension[0]: {ONE}",
    ),
    (
        "pred-unhashable-arg",
        lambda d: d["predicates"]["P"].update(extension=[[["d1"]]]),
        f"{P}.extension[0]: {ONE}",
    ),
    (
        "pred-undeclared-arg",
        lambda d: d["predicates"]["P"].update(extension=[["d1"], ["zz"]]),
        f"{P}.extension[1]: undeclared individual 'zz'",
    ),
    ("pred-across-worlds", ACROSS_WORLDS[1][0], ACROSS_WORLDS[1][1]),
    # an extension is a set: a repeated entry is accepted
    (
        "pred-duplicate",
        lambda d: d["predicates"]["P"].update(extension=[["d1"], ["d1"]]),
        None,
    ),
    (
        "pred-undeclared-world",
        lambda d: d["predicates"]["Q"].update(extension=["zz"]),
        "sheaf-model.predicates.Q.extension[0]: undeclared world 'zz'",
    ),
    (
        "pred-string-arg",
        _then(_as_a_b, lambda d: d["predicates"].update(R={"arity": 2, "extension": ["ab"]})),
        "sheaf-model.predicates.R.extension[0]: expected a list of 2 individuals",
    ),
    (
        "pred-unary-string-arg",
        _then(_as_a_b, lambda d: d["predicates"]["P"].update(extension=["ab"])),
        f"{P}.extension[0]: {ONE}",
    ),
]


@pytest.mark.parametrize(
    "mutate, message",
    [(m, msg) for _, m, msg in TABLE_ENTRY_FAULTS],
    ids=[name for name, _, _ in TABLE_ENTRY_FAULTS],
)
def test_table_entry_faults_are_worded(mutate, message):
    doc = broken(sheaf_doc(), mutate)
    if message is None:
        assert dump_model(load_model(doc)) == dump_model(load_model(sheaf_doc()))
        return
    with pytest.raises(SchemaError) as exc:
        load_model(doc)
    assert str(exc.value) == message


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        load_model({"format_version": 1, "kind": "nonsense"})
    with pytest.raises(SchemaError):
        load_model({"kind": "kripke-model"})


def _wide_doc(entries):
    """A Kripke document over 100 worlds whose relation for agent a lists
    5,000 valid pairs and then the given entries."""
    worlds = [f"w{i}" for i in range(100)]
    pairs = [[v, u] for v in worlds for u in worlds][:5000]
    return {
        "format_version": 1,
        "kind": "kripke-model",
        "worlds": worlds,
        "agents": ["a"],
        "relations": {"a": pairs + entries},
        "valuation": {},
    }


SHAPE = "kripke-model.relations.a: each entry must be a two-element list of strings"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("ab", SHAPE),
        ({"w1": 1, "w2": 2}, SHAPE),
        (["w1", "w2", "w3"], SHAPE),
        (["w1", 7], SHAPE),
        ([["w1"], "w2"], SHAPE),
        (["w1", "zz"], "kripke-model.relations.a: undeclared name 'zz'"),
        # inside the last run, whose source is w49
        (["w49", 7], SHAPE),
        ([["w49"], "w2"], SHAPE),
        ({"w49": 1, "w2": 2}, SHAPE),
        (["w49", "w2", "w3"], SHAPE),
        (["zz", "w1"], "kripke-model.relations.a: undeclared name 'zz'"),
    ],
    ids=[
        "string", "dict", "three-elements", "int-name", "nested-list-name", "undeclared",
        "last-run-int-name", "last-run-nested-list-source", "last-run-dict",
        "last-run-three-elements", "undeclared-source",
    ],
)
def test_malformed_entry_after_many_valid_pairs(entry, message):
    with pytest.raises(SchemaError) as exc:
        load_model(_wide_doc([entry]))
    assert str(exc.value) == message


def _pair_lists(rng, names):
    """Pairs over names with duplicates, in one of four layouts: none,
    grouped by source, shuffled, or grouped runs of one source split and
    interleaved with the others'."""
    layout = rng.choice(["empty", "grouped", "shuffled", "interleaved"])
    if layout == "empty":
        return []
    pairs = [[rng.choice(names), rng.choice(names)] for _ in range(rng.randrange(1, 3 * len(names)))]
    pairs += rng.sample(pairs, rng.randrange(len(pairs) + 1))
    pairs.sort()
    if layout == "shuffled":
        rng.shuffle(pairs)
    elif layout == "interleaved":
        cuts = sorted(rng.sample(range(1, len(pairs)), min(len(pairs) - 1, 4))) + [len(pairs)]
        chunks = [pairs[i:j] for i, j in zip([0] + cuts, cuts)]
        rng.shuffle(chunks)
        pairs = [pair for chunk in chunks for pair in chunk]
    return pairs


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pair_lists_in_any_order_load_to_their_rows(seed):
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(rng.randrange(1, 31))]
    rng.shuffle(names)  # carrier order is not name order
    pairs = _pair_lists(rng, names)
    carrier = FiniteSet("W", names)
    expected = Rel(carrier, carrier, map(tuple, pairs)).rows
    common = {"format_version": 1, "agents": ["a"]}
    kripke = load_model({
        **common, "kind": "kripke-model", "worlds": names,
        "relations": {"a": pairs}, "valuation": {},
    })
    events = load_model({
        **common, "kind": "event-model", "events": names,
        "relations": {"a": pairs}, "preconditions": {e: "true" for e in names},
    })
    total, _, _ = load_sheaf_frames({
        **common, "kind": "sheaf-model", "worlds": ["w"], "relations": {"a": [["w", "w"]]},
        "fibers": {"w": names}, "domain_relation": {"a": pairs},
    })
    assert kripke.frame.rel("a").rows == expected
    assert events.frame.rel("a").rows == expected
    assert total.rel("a").rows == expected


def test_pair_rows_look_up_each_run_source_once():
    class Counting(dict):
        lookups = 0

        def __getitem__(self, key):
            self.lookups += 1
            return super().__getitem__(key)

    names = ("w1", "w2", "w3")
    carrier = FiniteSet("W", names)
    index = carrier.__dict__["index"] = Counting(carrier.index)
    pairs = [["w2", "w1"], ["w2", "w3"], ["w1", "w1"], ["w3", "w3"], ["w3", "w1"], ["w3", "w2"]]
    rows = _pair_rows(pairs, carrier, "kripke-model.relations.a")
    assert index.lookups == 3  # three runs of sources: w2, w1, w3
    assert rows == Rel(FiniteSet("W", names), FiniteSet("W", names), map(tuple, pairs)).rows


@pytest.mark.parametrize("kind, key", [
    ("kripke-model", "worlds"), ("event-model", "events"), ("sheaf-model", "worlds"),
])
def test_duplicate_carrier_name_is_found_in_one_pass(kind, key):
    # the last name twice: found by counting each name once, not by
    # counting every name in the whole list
    names = [f"w{i}" for i in range(200_000)]
    doc = {"format_version": 1, "kind": kind, key: names + [names[-1]]}
    started = time.perf_counter()
    with pytest.raises(SchemaError) as exc:
        load_model(doc)
    assert time.perf_counter() - started < 1.0
    assert str(exc.value) == f"{kind}.{key}: duplicate name 'w199999'"


def test_duplicate_carrier_name_reported_is_the_first_that_repeats():
    doc = {"format_version": 1, "kind": "kripke-model", "worlds": ["a", "b", "b", "a"]}
    with pytest.raises(SchemaError) as exc:
        load_model(doc)
    assert str(exc.value) == "kripke-model.worlds: duplicate name 'a'"


def test_first_bad_entry_is_the_one_reported():
    doc = _wide_doc([["w1", "zz"], ["w1", "w2", "w3"]])
    with pytest.raises(SchemaError, match="undeclared name 'zz'"):
        load_model(doc)


def test_list_subclass_entries_still_load():
    class Pair(list):
        pass

    doc = _wide_doc([])
    plain = load_model(doc)
    doc["relations"]["a"] = [Pair(entry) for entry in doc["relations"]["a"]]
    assert load_model(doc) == plain
    assert len(plain.frame.rel("a").pairs) == 5000
