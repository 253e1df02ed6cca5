"""The CLI's bad-input contract: exit 2, one `error: ` line, nothing on stdout.

Covers a file that is not JSON, a document that breaks the schema and a
formula that does not parse, on `eval`, `update` and `reduce --model`; then
`reduce` without `--model` in both output forms; then updates and
fibered powers past the carrier caps and reductions past the size cap;
then sheaf documents whose function or predicate arguments lie over two
worlds; then well-formed queries that misuse names; then exit 3 for an
internal fault.
"""

import json
import time

import pytest

from conftest import ACROSS_WORLDS, data_path
from delmc import InvariantViolation, cli, models, sheaves
from delmc.cli import main
from delmc.models import MAX_UPDATE_CARRIER
from delmc.reduction import MAX_REDUCED_NODES
from delmc.sheaves import MAX_POWER_CARRIER

TWO_WORLDS = data_path("two_worlds.json")
TWO_FIBERS = data_path("two_fibers.json")
PRIVATE = data_path("private_announcement.json")
FO_EVENT = data_path("fo_event.json")


@pytest.fixture
def bad_files(tmp_path):
    """A non-JSON file, a model missing its worlds, and an event model whose
    precondition does not parse."""
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{ this is not json", encoding="utf-8")
    with open(TWO_WORLDS, encoding="utf-8") as handle:
        model = json.load(handle)
    del model["worlds"]
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(model), encoding="utf-8")
    with open(PRIVATE, encoding="utf-8") as handle:
        events = json.load(handle)
    events["preconditions"]["ep"] = "p &"
    unparsable = tmp_path / "unparsable_event.json"
    unparsable.write_text(json.dumps(events), encoding="utf-8")
    return {"not_json": str(not_json), "schema": str(schema), "unparsable": str(unparsable)}


def _argv(command, fault, files):
    model = files[fault] if fault in ("not_json", "schema") else TWO_WORLDS
    if command == "eval":
        formula = "p &" if fault == "parse" else "[a]p"
        return ["eval", model, formula]
    if command == "update":
        events = files["unparsable"] if fault == "parse" else PRIVATE
        return ["update", model, events]
    formula = "[F,ep]p &" if fault == "parse" else "[F,ep]p"
    return ["reduce", formula, "--model", model, "--events", PRIVATE]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("fault", ["not_json", "schema", "parse"])
@pytest.mark.parametrize("command", ["eval", "update", "reduce"])
def test_bad_input_exits_2(capsys, bad_files, command, fault, fmt):
    assert main(_argv(command, fault, bad_files) + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_reduce_without_model_text(capsys):
    assert main(["reduce", "[F,ep]p", "--events", PRIVATE]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "input: [F,ep]p",
        "result: p -> p",
        "steps: 1",
        "verified: no (no model given)",
    ]


def test_reduce_without_model_json(capsys):
    assert main(["reduce", "[F,ep]p", "--events", PRIVATE, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == "[F,ep]p"
    assert doc["result"] == "p -> p"
    assert doc["verified"] is False


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reduce_without_model_bad_formula_exits_2(capsys, fmt):
    assert main(["reduce", "[F,ep]p &", "--events", PRIVATE, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: formula: ")


def test_nested_updates_past_the_cap_exit_2(capsys):
    # each [F,et] level updates the previous update; the 14th would build
    # 16,385 worlds, so the run stops there, long before memory runs out
    formula = "[F,et]" * 20 + "p"
    assert main(["eval", TWO_WORLDS, formula, "--events", PRIVATE]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: update would build 16385 points")
    assert f"above the cap of {MAX_UPDATE_CARRIER}" in captured.err


@pytest.mark.parametrize("model, events, cap, size", [
    (TWO_WORLDS, PRIVATE, 2, 3),  # product update: 3 updated worlds
    (TWO_FIBERS, FO_EVENT, 4, 5),  # pullback update: 3 worlds, then 5 individuals
], ids=["product", "pullback"])
def test_update_checks_the_cap_before_building(capsys, monkeypatch, model, events, cap, size):
    monkeypatch.setattr(models, "MAX_UPDATE_CARRIER", cap)
    assert main(["update", model, events]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: update would build {size} points, above the cap of {cap}\n"


# Two ways to need the 16th and the 18th fibered power of two_fibers, whose
# fibers hold 2 and 1 individuals: 2**n + 1 points for n variables
CONTEXT_16 = "ctx " + ",".join(f"x{i}" for i in range(1, 17)) + " | P(x1)"
NESTED_18 = "ctx | " + "".join(f"forall x{i}. " for i in range(1, 19)) + "P(x1)"


@pytest.mark.parametrize("formula, n, size", [
    (CONTEXT_16, 16, 65_537),
    (NESTED_18, 18, 262_145),
], ids=["context", "nested"])
def test_fibered_powers_past_the_cap_exit_2(capsys, formula, n, size):
    started = time.perf_counter()
    assert main(["eval", TWO_FIBERS, formula]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: fibered power {n} would build {size} points, above the cap of {MAX_POWER_CARRIER}\n"
    )


def test_fibered_power_checks_the_cap_before_building(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("lift_points called past the cap")

    monkeypatch.setattr(sheaves, "MAX_POWER_CARRIER", 4)
    monkeypatch.setattr(sheaves, "lift_points", build)
    # the binary power of two_fibers has 2**2 + 1 points
    assert main(["eval", TWO_FIBERS, "ctx x,y | P(x)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fibered power 2 would build 5 points, above the cap of 4\n"


# Announcements nested five deep: each pal axiom copies the announcement,
# and the formula passes 3,700 nodes four deep.
NESTED_ANNOUNCEMENTS = "[!<a>(p & <b>q)]" * 5 + "<a><b>(p|q)"


@pytest.mark.parametrize("with_model", [False, True], ids=["bare", "model"])
def test_reduction_past_the_size_cap_exits_2(capsys, with_model):
    argv = ["reduce", NESTED_ANNOUNCEMENTS] + (["--model", TWO_WORLDS] if with_model else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: reduction reached ")
    assert captured.err.endswith(f"nodes after 237 steps, above the cap of {MAX_REDUCED_NODES}\n")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("mutate, message", ACROSS_WORLDS, ids=["function", "predicate"])
def test_arguments_over_two_worlds_exit_2(capsys, tmp_path, mutate, message):
    with open(TWO_FIBERS, encoding="utf-8") as handle:
        doc = json.load(handle)
    mutate(doc)
    path = tmp_path / "across.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", str(path), "Q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _misuse_argv(case, tmp_path):
    if case == "shadowing":
        return ["eval", TWO_FIBERS, "ctx x | forall x. P(x)"]
    # two event models whose preconditions refer to each other
    with open(PRIVATE, encoding="utf-8") as handle:
        template = json.load(handle)
    argv = ["eval", TWO_WORLDS, "[F,f]p"]
    for name, other in (("F", "G"), ("G", "F")):
        event = name.lower()
        doc = dict(
            template, name=name, events=[event],
            relations={"a": [[event, event]], "b": [[event, event]]},
            preconditions={event: f"[{other},{other.lower()}]p"},
        )
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--events", str(path)]
    return argv


@pytest.mark.parametrize("case, message", [
    ("shadowing", "quantified variable 'x' shadows the context; rename it"),
    ("cycle", "cyclic dynamic preconditions while updating with 'F'"),
])
def test_misused_names_exit_2(capsys, tmp_path, case, message):
    assert main(_misuse_argv(case, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_internal_fault_exits_3(capsys, monkeypatch):
    # A planted fault stands in for a broken invariant.  Bad data does not
    # get this far: the loader and the parser reject it with SchemaError or
    # ParseError (exit 2), the kernel's own results lie in their carriers by
    # construction, and well-formed queries that misuse names (a quantifier
    # that shadows its context, event models whose preconditions refer to
    # each other) raise ShadowedVariable or CyclicPrecondition, which exit 2.
    def broken(*args, **kwargs):
        raise InvariantViolation("planted fault")

    monkeypatch.setattr(cli, "extension", broken)
    assert main(["eval", TWO_WORLDS, "[a]p"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: planted fault\n"
