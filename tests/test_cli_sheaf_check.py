"""The `delmc sheaf-check` command: verdicts, JSON keys and exit codes."""

import json

from conftest import data_path
from delmc.cli import main

TWO_FIBERS = data_path("two_fibers.json")

KEYS = {
    "surjective",
    "bounded",
    "unique_lift",
    "delta_bounded",
    "characterization_agrees",
    "is_sheaf",
    "failure",
}


def test_sheaf_check_text_on_a_sheaf(capsys):
    assert main(["sheaf-check", TWO_FIBERS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "characterization agrees: yes" in lines
    assert lines[-1] == "verdict: this is a Kripke sheaf"


def test_sheaf_check_json_on_a_sheaf(capsys):
    assert main(["sheaf-check", TWO_FIBERS, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == KEYS
    assert payload["is_sheaf"] is True
    assert payload["failure"] is None


def test_sheaf_check_on_an_unbounded_projection(tmp_path, capsys):
    with open(TWO_FIBERS, encoding="utf-8") as handle:
        doc = json.load(handle)
    # d1 keeps no step into w2's fiber although w1 steps to w2
    doc["domain_relation"]["a"].remove(["d1", "d3"])
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sheaf-check", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounded"] is False
    assert payload["characterization_agrees"] is True
    assert payload["is_sheaf"] is False
    assert payload["failure"] == "projection not a bounded morphism"


def test_sheaf_check_rejects_a_non_json_file(tmp_path, capsys):
    path = tmp_path / "not_json.json"
    path.write_text("not json", encoding="utf-8")
    assert main(["sheaf-check", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
