"""Shared fixtures, acceptance recording, and hypothesis configuration."""

import os

import pytest
from hypothesis import HealthCheck, settings

from delmc import (
    AgentSet,
    Atom,
    EventModel,
    FiniteSet,
    KripkeFrame,
    KripkeModel,
    Rel,
    Subset,
    load_file,
)
from delmc import frames

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


# Edits to the two_fibers.json document, each with the loader's message: a
# binary function entry and a binary predicate entry whose arguments lie
# over w1 and w2
ACROSS_WORLDS = [
    (
        lambda d: d["functions"].update(g={"arity": 2, "map": [[["d1", "d3"], "d1"]]}),
        "sheaf-model.functions.g.map[0]: arguments ['d1', 'd3'] do not share a world",
    ),
    (
        lambda d: d["predicates"].update(R={"arity": 2, "extension": [["d1", "d2"], ["d2", "d3"]]}),
        "sheaf-model.predicates.R.extension[1]: arguments ['d2', 'd3'] do not share a world",
    ),
]


@pytest.fixture
def lift_builds(monkeypatch):
    """The agents whose lifted relations get built, in order of building.

    Counts the lifts made while the fixture is active: a lifted frame keeps
    the builder it was made with.
    """
    built = []

    def counted(carrier, columns, agent, original=frames._lift_rel):
        built.append(agent)
        return original(carrier, columns, agent)

    monkeypatch.setattr(frames, "_lift_rel", counted)
    return built


# ---------------------------------------------------------------------------
# Acceptance recording: tests append one line per criterion, the terminal
# summary prints them as a pass/fail block at the end of the run.

_ACCEPTANCE = []


@pytest.fixture
def record_acceptance():
    def _rec(name: str, ok: bool) -> bool:
        _ACCEPTANCE.append((name, bool(ok)))
        return ok

    return _rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")


# ---------------------------------------------------------------------------
# Hand-built fixture models


@pytest.fixture
def two_worlds():
    _, model = load_file(data_path("two_worlds.json"))
    return model


@pytest.fixture
def private_announcement_event():
    _, ev = load_file(data_path("private_announcement.json"))
    return ev


@pytest.fixture
def two_fibers():
    _, model = load_file(data_path("two_fibers.json"))
    return model


@pytest.fixture
def fo_event():
    _, ev = load_file(data_path("fo_event.json"))
    return ev


def build_muddy_children() -> KripkeModel:
    """Two children, each seeing only the other's forehead.

    Worlds are the four dirt patterns; an agent's relation connects the
    worlds it cannot tell apart, i.e. those differing only in its own
    state.  Atoms: ma = child a is muddy, mb = child b is muddy.
    """
    worlds = FiniteSet("dirt", ("MM", "MC", "CM", "CC"))
    agents = AgentSet(("a", "b"))

    def indist(own_index):
        pairs = set()
        for w in worlds:
            for v in worlds:
                other = 1 - own_index
                if w[other] == v[other]:
                    pairs.add((w, v))
        return Rel(worlds, worlds, frozenset(pairs))

    frame = KripkeFrame.make(worlds, agents, {"a": indist(0), "b": indist(1)})
    val = {
        "ma": Subset(worlds, frozenset({"MM", "MC"})),
        "mb": Subset(worlds, frozenset({"MM", "CM"})),
    }
    return KripkeModel.make(frame, val)


@pytest.fixture
def muddy_children():
    return build_muddy_children()


def build_muddy_formulas():
    """The announcement sequence of the puzzle, as formula trees."""
    from delmc import And, Box, Dia, Not, Or, PalBox, PalDia

    ma, mb = Atom("ma"), Atom("mb")
    someone = Or(ma, mb)
    knows_a = Or(Box("a", ma), Box("a", Not(ma)))
    knows_b = Or(Box("b", mb), Box("b", Not(mb)))
    nobody_knows = And(Not(knows_a), Not(knows_b))
    both_know = And(Box("a", ma), Box("b", mb))
    dia_form = PalDia(someone, PalDia(nobody_knows, both_know))
    box_form = PalBox(someone, PalBox(nobody_knows, both_know))
    return someone, nobody_knows, both_know, dia_form, box_form


@pytest.fixture
def muddy_formulas():
    return build_muddy_formulas()
