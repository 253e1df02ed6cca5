"""The `delmc eval` and `delmc reduce --model` commands on both layers."""

import json

import pytest

from conftest import data_path
from delmc.cli import main
from delmc.parser import MAX_NESTING

TWO_WORLDS = data_path("two_worlds.json")
TWO_FIBERS = data_path("two_fibers.json")
PRIVATE = data_path("private_announcement.json")
FO_EVENT = data_path("fo_event.json")


def test_eval_kripke_with_events_text(capsys):
    code = main(["eval", TWO_WORLDS, "[F,ep][a]p & [F,ep]~[b]p", "--events", PRIVATE])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "formula: [F,ep][a]p & [F,ep]~[b]p",
        "extension (2 of 2): w1 w2",
    ]


def test_eval_kripke_with_events_json(capsys):
    code = main(["eval", TWO_WORLDS, "[F,ep][b]p", "--events", PRIVATE, "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "formula": "[F,ep][b]p",
        "carrier": ["w1", "w2"],
        "extension": ["w2"],
    }


def test_eval_sheaf_in_context_json(capsys):
    code = main([
        "eval", TWO_FIBERS, "ctx x | [E,e1]P(x)", "--events", FO_EVENT, "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "formula": "ctx x | [E,e1]P(x)",
        "carrier": ["d1", "d2", "d3"],
        "extension": ["d1", "d3"],
    }


def test_reduce_on_kripke_model(capsys):
    code = main(["reduce", "[F,ep][a]p", "--model", TWO_WORLDS, "--events", PRIVATE])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "input: [F,ep][a]p"
    assert lines[-2] == "steps: 2"
    assert lines[-1] == "verified: every step preserved the extension"


def test_reduce_on_sheaf_model_json(capsys):
    code = main([
        "reduce", "ctx x | [E,e1]P(x)", "--model", TWO_FIBERS, "--events", FO_EVENT,
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == "ctx x | [E,e1]P(x)"
    assert doc["result"] == "ctx x | (exists u_1. P(u_1)) -> P(x)"
    assert [s["rule"] for s in doc["steps"]] == ["event-pred"]
    assert doc["verified"] is True


@pytest.mark.parametrize("argv", [
    ["eval", TWO_WORLDS, "ctx x | P(x)"],
    ["reduce", "ctx x | P(x)", "--model", TWO_WORLDS],
    ["eval", TWO_WORLDS, "[F,e]p"],
    ["eval", TWO_WORLDS, "[F,e]p", "--events", PRIVATE],
], ids=["eval-ctx-on-kripke", "reduce-ctx-on-kripke", "unknown-event-model", "unknown-event"])
def test_bad_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


NESTED = {
    "negation": lambda n: "~" * n + "p",
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_eval_nesting_at_the_limit(capsys, shape):
    text = NESTED[shape](MAX_NESTING)
    code = main(["eval", TWO_WORLDS, text, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["formula"] == (text if shape == "negation" else "p")
    # p holds at w1 only
    negated = shape == "negation" and MAX_NESTING % 2
    assert doc["extension"] == (["w2"] if negated else ["w1"])


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_eval_nesting_past_the_limit_exits_2(capsys, shape):
    assert main(["eval", TWO_WORLDS, NESTED[shape](MAX_NESTING + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: formula: ")
    assert f"deeper than {MAX_NESTING} levels (line 1, column" in captured.err
