"""The `delmc laws` command: verdict lines, failure listing, exit codes."""

import json

import pytest

from delmc import Report, UnknownSuite
from delmc import laws as laws_mod
from delmc.cli import main

FAILURES = tuple((f"case {i}: law broken [seed 0]", f"witness {i}") for i in range(3))


@pytest.fixture
def failing_duality(monkeypatch):
    def run(seed=0, cases=0, **_):
        return Report(suite="duality", cases=cases, failures=FAILURES, seconds=0.0)

    monkeypatch.setitem(laws_mod.SUITES, "duality", run)


def test_passing_run_prints_ok_and_exits_0(capsys):
    assert main(["laws", "--suite", "duality", "--cases", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("duality: ") and lines[0].endswith(": ok")
    assert lines[-1] == "all suites ok"
    assert "FAIL" not in "\n".join(lines)


def test_failing_run_prints_failed_and_exits_1(capsys, failing_duality):
    assert main(["laws", "--suite", "duality", "--cases", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "duality: 5 cases in 0.00s: FAILED (3 failure(s))"
    for case, witness in FAILURES:
        assert f"  FAIL {case}: {witness}" in lines
    assert not any(line.startswith("  ... and") for line in lines)
    assert lines[-1] == "FAILED: 3 failure(s) across 1 suite(s)"


def test_failing_run_truncates_listing(capsys, failing_duality):
    assert main(["laws", "--suite", "duality", "--cases", "5", "--max-failures", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    case, witness = FAILURES[0]
    assert f"  FAIL {case}: {witness}" in lines
    assert sum(line.startswith("  FAIL ") for line in lines) == 1
    assert "  ... and 2 more" in lines


def test_failing_run_json(capsys, failing_duality):
    assert main(["laws", "--suite", "duality", "--cases", "5", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == [
        {
            "suite": "duality",
            "cases": 5,
            "seconds": 0.0,
            "ok": False,
            "failures": [list(f) for f in FAILURES],
        }
    ]


def test_named_suites_are_seeded_as_in_the_full_run(capsys, monkeypatch):
    seeds = []
    for name in laws_mod.SUITES:
        def record(seed=0, cases=0, name=name, **_):
            seeds.append((name, seed))
            return Report(suite=name, cases=cases, failures=(), seconds=0.0)

        monkeypatch.setitem(laws_mod.SUITES, name, record)
    assert main(["laws", "--suite", "fo-reduction", "--suite", "duality"]) == 0
    assert seeds == [("fo-reduction", 7), ("duality", 1)]


def test_unknown_suite_exits_2_with_the_librarys_wording(capsys):
    with pytest.raises(UnknownSuite) as refused:
        laws_mod.run_suite("nosuch")
    assert main(["laws", "--suite", "duality", "--suite", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"
    assert all(name in captured.err for name in laws_mod.SUITES)


@pytest.mark.parametrize("argv, message", [
    (["--suite", "rel-laws", "--max-size", "0"], "rel-laws: max_size must be at least 1, not 0"),
    (["--suite", "sheaf", "--max-size", "1"], "sheaf: max_size must be at least 2, not 1"),
    (["--suite", "topological", "--max-size", "2"], "topological: max_size must be at least 3, not 2"),
    (["--cases", "-1"], "rel-laws: cases must be at least 1, not -1"),
    (["--cases", "0"], "rel-laws: cases must be at least 1, not 0"),
    (["--max-failures", "-1"], "--max-failures must be at least 0, not -1"),
], ids=["max-size-0", "max-size-1", "max-size-2", "cases-negative", "cases-zero", "max-failures"])
def test_bad_numbers_exit_2(capsys, argv, message):
    assert main(["laws"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bad_max_size_is_refused_before_any_suite_runs(capsys, monkeypatch):
    ran = []
    for name in laws_mod.SUITES:
        def record(seed=0, cases=0, name=name, **_):
            ran.append(name)
            return Report(suite=name, cases=cases, failures=(), seconds=0.0)

        monkeypatch.setitem(laws_mod.SUITES, name, record)
    assert main(["laws", "--max-size", "2"]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: topological: max_size must be at least 3, not 2\n"


@pytest.mark.parametrize("argv, message", [
    (["--cases", "0"], "self-test: cases must be at least 1, not 0"),
    (["--max-size", "1"], "self-test: max_size must be at least 2, not 1"),
    (["--suite", "sheaf"], "--suite cannot be combined with --self-test"),
], ids=["cases-0", "max-size-1", "suite"])
def test_self_test_refuses_what_it_cannot_run(capsys, argv, message):
    assert main(["laws", "--self-test"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_self_test_takes_seed_cases_and_max_size(capsys, monkeypatch):
    seen = []

    def record(**kwargs):
        seen.append(kwargs)
        return laws_mod.SelfTestReport(True, kwargs.get("cases", 400), None)

    monkeypatch.setattr(laws_mod, "self_test", record)
    assert main(["laws", "--self-test", "--seed", "3", "--cases", "7", "--max-size", "2"]) == 0
    assert main(["laws", "--self-test"]) == 0
    assert seen == [{"seed": 3, "cases": 7, "max_size": 2}, {"seed": 0}]
    assert capsys.readouterr().out.splitlines() == [
        "self-test: planted wrong law caught after 7 cases",
        "self-test: planted wrong law caught after 400 cases",
    ]
