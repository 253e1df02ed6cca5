"""The `delmc update` command on both layers: output, --out, --dot, exit codes."""

import json

import pytest

from conftest import data_path
from delmc import dump_model, load_model
from delmc.cli import main

TWO_WORLDS = data_path("two_worlds.json")
TWO_FIBERS = data_path("two_fibers.json")
PRIVATE = data_path("private_announcement.json")
FO_EVENT = data_path("fo_event.json")

PAIRS = {"kripke": (TWO_WORLDS, PRIVATE), "sheaf": (TWO_FIBERS, FO_EVENT)}


def test_update_kripke_text(capsys):
    assert main(["update", TWO_WORLDS, PRIVATE]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source worlds: 2",
        "events: ep, et",
        "  precondition extent of ep: w1",
        "  precondition extent of et: w1 w2",
        "updated worlds: 3",
        "  (w1,ep) <- w1 via ep",
        "  (w1,et) <- w1 via et",
        "  (w2,et) <- w2 via et",
    ]


def test_update_sheaf_text(capsys):
    assert main(["update", TWO_FIBERS, FO_EVENT]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source worlds: 2, individuals: 3",
        "events: e1, e2",
        "  precondition extent of e1: w1",
        "  precondition extent of e2: w1 w2",
        "updated worlds: 3, individuals: 5",
        "  (w1,e1) <- w1 via e1",
        "  (w1,e2) <- w1 via e2",
        "  (w2,e2) <- w2 via e2",
    ]


def test_update_kripke_json(capsys):
    assert main(["update", TWO_WORLDS, PRIVATE, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "source_worlds": ["w1", "w2"],
        "events": ["ep", "et"],
        "precondition_extents": {"ep": ["w1"], "et": ["w1", "w2"]},
        "updated_worlds": [
            {"world": "(w1,ep)", "source": "w1", "event": "ep"},
            {"world": "(w1,et)", "source": "w1", "event": "et"},
            {"world": "(w2,et)", "source": "w2", "event": "et"},
        ],
    }


def test_update_sheaf_json(capsys):
    assert main(["update", TWO_FIBERS, FO_EVENT, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"] == ["e1", "e2"]
    assert doc["precondition_extents"] == {"e1": ["w1"], "e2": ["w1", "w2"]}
    assert [w["world"] for w in doc["updated_worlds"]] == ["(w1,e1)", "(w1,e2)", "(w2,e2)"]
    # individuals over w1 (d1, d2) copy under both events, d3 over w2 under e2 only
    assert doc["updated_individuals"] == [
        {"individual": f"({d},{e})", "source": d, "event": e}
        for d, e in (("d1", "e1"), ("d1", "e2"), ("d2", "e1"), ("d2", "e2"), ("d3", "e2"))
    ]


@pytest.mark.parametrize("layer", sorted(PAIRS))
def test_updated_worlds_sum_the_precondition_extents(capsys, layer):
    assert main(["update", *PAIRS[layer], "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    extents = doc["precondition_extents"]
    assert len(doc["updated_worlds"]) == sum(len(ws) for ws in extents.values())
    for entry in doc["updated_worlds"]:
        assert entry["source"] in extents[entry["event"]]


@pytest.mark.parametrize("layer", sorted(PAIRS))
def test_update_out_file_loads_back(capsys, tmp_path, layer):
    out = tmp_path / "updated.json"
    assert main(["update", *PAIRS[layer], "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"updated model written to {out}"
    doc = json.loads(out.read_text(encoding="utf-8"))
    model = load_model(doc)
    assert dump_model(model, name=doc.get("name")) == doc


@pytest.mark.parametrize("layer", sorted(PAIRS))
def test_an_update_with_no_world_writes_a_model_that_loads_back(capsys, tmp_path, layer):
    # every precondition false: the updated model has no world, no individual
    model_path, events_path = PAIRS[layer]
    with open(events_path, encoding="utf-8") as handle:
        events = json.load(handle)
    events["preconditions"] = {e: "false" for e in events["events"]}
    nowhere, out = tmp_path / "nowhere.json", tmp_path / "updated.json"
    nowhere.write_text(json.dumps(events), encoding="utf-8")
    assert main(["update", model_path, str(nowhere), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["worlds"] == []
    assert dump_model(load_model(doc), name=doc.get("name")) == doc
    capsys.readouterr()
    formula = "p" if layer == "kripke" else "ctx x | P(x)"
    assert main(["eval", str(out), formula]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "extension (0 of 0): (empty)"


@pytest.mark.parametrize("layer", sorted(PAIRS))
def test_update_dot_file_is_a_digraph(capsys, tmp_path, layer):
    dot = tmp_path / "updated.dot"
    assert main(["update", *PAIRS[layer], "--dot", str(dot), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dot"] == str(dot)
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph {")
    assert text.rstrip().endswith("}")
    assert '"(w1,' in text


def test_update_sheaf_dot_nodes_list_their_fibers(capsys, tmp_path):
    dot = tmp_path / "updated.dot"
    assert main(["update", TWO_FIBERS, FO_EVENT, "--dot", str(dot)]) == 0
    capsys.readouterr()
    lines = dot.read_text(encoding="utf-8").splitlines()
    nodes = [line for line in lines if "[label=" in line and "->" not in line]
    assert nodes == [
        '  "(w1,e1)" [label="(w1,e1)\\n{(d1,e1), (d2,e1)}"];',
        '  "(w1,e2)" [label="(w1,e2)\\n{(d1,e2), (d2,e2)}"];',
        '  "(w2,e2)" [label="(w2,e2)\\n{(d3,e2)}"];',
    ]


def test_update_by_a_kripke_model_exits_2(capsys):
    assert main(["update", TWO_WORLDS, TWO_WORLDS]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "expected an event-model document" in captured.err


def _two_agent_pair(tmp_path, layer, agents):
    """The layer's model and event model over agents a and b, the event
    model listing them in the order given."""
    model_path, events_path = PAIRS[layer]
    with open(events_path, encoding="utf-8") as handle:
        events = json.load(handle)
    if layer == "sheaf":  # two_fibers and fo_event are over a alone: add b
        with open(model_path, encoding="utf-8") as handle:
            model = json.load(handle)
        model["agents"] = ["a", "b"]
        model["relations"]["b"] = [["w1", "w1"], ["w2", "w2"]]
        model["domain_relation"]["b"] = [["d1", "d1"], ["d2", "d2"], ["d3", "d3"]]
        model_path = tmp_path / "two_agents.json"
        model_path.write_text(json.dumps(model), encoding="utf-8")
        events["relations"]["b"] = [["e1", "e1"], ["e2", "e2"], ["e2", "e1"]]
    events["agents"] = agents
    written = tmp_path / f"events_{''.join(agents)}.json"
    written.write_text(json.dumps(events), encoding="utf-8")
    return str(model_path), str(written)


@pytest.mark.parametrize("layer", sorted(PAIRS))
def test_event_models_match_agents_by_name(capsys, tmp_path, layer):
    # the event model's agents written b, a: the same update as a, b
    formula = {
        "kripke": "[F,ep][a]p & <F,et><b>p",
        "sheaf": "ctx x | [E,e2]<b>P(x) | <E,e1><a>P(f(x))",
    }[layer]
    docs, extensions = [], []
    for agents in (["a", "b"], ["b", "a"]):
        model_path, events_path = _two_agent_pair(tmp_path, layer, agents)
        out = tmp_path / f"updated_{''.join(agents)}.json"
        assert main(["update", model_path, events_path, "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text(encoding="utf-8")))
        capsys.readouterr()
        assert main(["eval", model_path, formula, "--events", events_path]) == 0
        extensions.append(capsys.readouterr().out.splitlines()[-1])
    assert docs[0]["agents"] == ["a", "b"]
    assert docs[1] == docs[0]
    assert extensions[1] == extensions[0]
    assert not extensions[0].startswith("extension (0 of")
