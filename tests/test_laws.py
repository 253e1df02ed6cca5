"""The randomized law suites: structure, determinism, labels, self-test."""

import operator
import re

import pytest

from delmc import (
    DEFAULT_CASES,
    KripkeModel,
    OutOfRange,
    SUITES,
    Report,
    UnknownSuite,
    compose,
    leq,
    run_all,
    run_suite,
    self_test,
)
from delmc import laws as laws_mod
from delmc import powerset

SMALL_CASES = {
    "rel-laws": 40,
    "duality": 40,
    "beck-chevalley": 60,
    "topological": 25,
    "pal-reduction": 80,
    "del-reduction": 80,
    "sheaf": 12,
    "fo-reduction": 12,
}


@pytest.mark.parametrize("name", list(SMALL_CASES))
def test_each_suite_passes_at_small_sizes(name):
    rep = run_suite(name, seed=1, cases=SMALL_CASES[name])
    assert rep.ok, rep.failures
    assert rep.suite == name
    assert rep.cases >= SMALL_CASES[name]
    assert rep.seconds >= 0


def test_suite_names_are_consistent():
    assert list(SUITES) == list(DEFAULT_CASES)
    assert len(SUITES) == 8


def test_unknown_suite_rejected():
    known = ", ".join(SUITES)
    with pytest.raises(UnknownSuite, match=f"^unknown suite 'nonsense'; known suites: {known}$"):
        run_suite("nonsense")
    with pytest.raises(UnknownSuite):
        run_all(seed=0, suites=["duality", "nonsense"])


def test_runs_are_deterministic():
    a = run_suite("duality", seed=9, cases=30)
    b = run_suite("duality", seed=9, cases=30)
    assert a.cases == b.cases
    assert a.failures == b.failures == ()


def test_summary_format():
    rep = run_suite("duality", seed=2, cases=20)
    text = rep.summary()
    assert "duality" in text and "ok" in text
    failing = Report(
        suite="x", cases=3, failures=(("case 1: bad [seed 1]", "witness"),), seconds=0.1
    )
    assert "FAILED" in failing.summary() or "failed" in failing.summary()
    assert not failing.summary().endswith(": ok")


def test_run_all_covers_every_suite():
    reports = run_all(seed=3, cases=12)
    assert [r.suite for r in reports] == list(SUITES)


def test_self_test_catches_planted_defect():
    rep = self_test(seed=0)
    assert rep.caught
    assert rep.tried > 0
    assert rep.witness


@pytest.mark.parametrize("kwargs, message", [
    ({"cases": 0}, "self-test: cases must be at least 1, not 0"),
    ({"max_size": 1}, "self-test: max_size must be at least 2, not 1"),
], ids=["cases-0", "max-size-1"])
def test_self_test_refuses_sizes_it_cannot_draw(kwargs, message):
    with pytest.raises(OutOfRange, match=f"^{message}$"):
        self_test(seed=0, **kwargs)


def test_self_test_runs_at_its_least_sizes():
    assert self_test(seed=0, cases=1, max_size=2).tried == 1


def test_run_all_checks_every_suite_before_running_any(monkeypatch):
    ran = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda name=name, **_: ran.append(name))
    with pytest.raises(OutOfRange, match="^topological: max_size must be at least 3, not 2$"):
        run_all(seed=0, max_size=2)
    with pytest.raises(OutOfRange, match="^sheaf: max_size must be at least 2, not 1$"):
        run_all(seed=0, max_size=1, suites=["rel-laws", "sheaf"])
    assert ran == []


def test_del_reduction_builds_each_update_once(monkeypatch):
    # the suite's preconditions are static, so the verified laws, the
    # update-route check, the no-learning check and the verified reduce
    # of a case share the update kept on its model
    built = []

    def counted(self, ev, extents, original=KripkeModel.build_update):
        built.append((self, ev))  # held, so no id is reused
        return original(self, ev, extents)

    monkeypatch.setattr(KripkeModel, "build_update", counted)
    assert run_suite("del-reduction", seed=0, cases=30).ok
    keys = [(id(model), id(ev)) for model, ev in built]
    assert len(keys) == len(set(keys))


SWEPT = {
    "dagger fixes identities": 3,
    "units": 31,
    "dagger involution": 31,
    "dagger contravariance": 499,
    "modularity": 5053,
    "right whiskering": 2011,
    "left whiskering": 2011,
    "associativity": 8507,
}


def test_sweep_checks_each_law_on_every_small_argument():
    col = laws_mod._Collector("rel-laws", 0)
    assert laws_mod._sweep_small_relations(col) == SWEPT
    assert col.failures == []
    assert sum(SWEPT.values()) == 18146
    assert run_suite("rel-laws", seed=0).cases == 18146 + DEFAULT_CASES["rel-laws"] == 19146


@pytest.mark.parametrize(
    "law", [row[0] for row in laws_mod._REL_LAWS], ids=lambda law: law.replace(" ", "-")
)
def test_labels_number_cases_and_name_relation_witnesses(monkeypatch, law):
    # each law of the table fails in the exhaustive sweep and in every case
    rows = tuple(
        (name, shape, (lambda *_: False) if name == law else holds)
        for name, shape, holds in laws_mod._REL_LAWS
    )
    monkeypatch.setattr(laws_mod, "_REL_LAWS", rows)
    rep = run_suite("rel-laws", seed=0, cases=2)
    labels = [label for label, _ in rep.failures]
    # the exhaustive sweep runs before case 0 and keeps its bare label
    first_case = labels.index(f"case 0: {law}")
    assert set(labels[:first_case]) == {f"exhaustive {law}"}
    assert len(labels[:first_case]) == SWEPT[law]
    assert labels[first_case:] == [f"case 0: {law}", f"case 1: {law}"]
    if law == "modularity":
        rel = r"[a-z]\d+->[a-z]\d+:\[.*\]"
        for _, witness in rep.failures:
            assert re.fullmatch(f"r1={rel} r2={rel} r3={rel}", witness), witness


def test_duality_runs_the_parallel_biduality_laws_once_per_case(monkeypatch):
    parallel = []

    def counted(r1, r2, images=None, original=laws_mod.check_biduality_laws):
        rep = original(r1, r2, images)
        parallel.extend(name for name, _ in rep.checks if name == "exists-order-iso")
        return rep

    monkeypatch.setattr(laws_mod, "check_biduality_laws", counted)
    assert run_suite("duality", seed=1, cases=40).ok
    assert len(parallel) == 40


def test_duality_builds_each_image_map_once_per_case(monkeypatch):
    built = []
    for name in ("exists_map", "forall_map"):
        def counted(r, name=name, original=getattr(powerset, name)):
            built.append((name, r))
            return original(r)

        monkeypatch.setattr(powerset, name, counted)
    for seed in range(20):
        built.clear()
        assert run_suite("duality", seed=seed, cases=1).ok
        # r, r2, their composite, the larger and the other relation, and
        # the daggers of all but the larger: 18 maps at most, none twice
        assert len(set(built)) == len(built) <= 18


@pytest.mark.parametrize(
    "name, holds",
    [("is_monotone", leq), ("is_bounded", operator.eq)],
)
def test_topological_catches_a_map_check_that_skips_the_last_agent(monkeypatch, name, holds):
    def skips_last(m):
        return all(
            holds(compose(m.src.rel(a), m.fn), compose(m.fn, m.dst.rel(a)))
            for a in m.src.agents.agents[:-1]
        )

    monkeypatch.setattr(laws_mod, name, skips_last)
    rep = run_suite("topological", seed=0, cases=SMALL_CASES["topological"])
    prop = "monotonicity" if name == "is_monotone" else "boundedness"
    labels = {re.sub(r"^case \d+: ", "", label) for label, _ in rep.failures}
    assert f"pointwise {prop} agrees on g" in labels
    assert labels <= {f"pointwise {prop} agrees on {m}" for m in ("m", "bnd", "g")}


def test_suite_level_checks_keep_their_bare_label():
    # the threshold is set for the default case count, so five cases fail it
    rep = run_suite("del-reduction", seed=0, cases=5)
    assert len(rep.failures) == 1
    label, witness = rep.failures[0]
    assert label == "at least 10 unbounded updates exhibit a learning witness"
    assert re.fullmatch(r"found [0-5]", witness)


MIN_SIZE = {
    "rel-laws": 1,
    "duality": 1,
    "beck-chevalley": 1,
    "topological": 3,
    "pal-reduction": 2,
    "del-reduction": 2,
    "sheaf": 2,
    "fo-reduction": 2,
}


@pytest.mark.parametrize("name", list(MIN_SIZE))
def test_each_suite_runs_at_its_least_max_size_and_rejects_less(name):
    assert run_suite(name, seed=0, cases=3, max_size=MIN_SIZE[name]).cases >= 3
    with pytest.raises(OutOfRange, match=f"max_size must be at least {MIN_SIZE[name]}"):
        run_suite(name, seed=0, cases=3, max_size=MIN_SIZE[name] - 1)
