"""No episode bit moved since the parent commit.

``tests/data/golden_episodes_parent.json`` holds one sha256 per
``EpisodeResult.to_dict()`` and was written by
``scripts/make_golden_episodes.py`` running the *parent commit's* code
(the ``generated_by.ref`` it records).  Served-vs-sequential equivalence
compares the current code with itself; this compares it with what the
episode path produced before its invariants were hoisted.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

golden = importlib.import_module("make_golden_episodes")


def test_episodes_match_the_parent_commits_digests():
    fixture = json.loads(golden.FIXTURE.read_text())
    assert fixture["generated_by"]["ref"]       # written by a named commit
    expected = fixture["episodes"]
    assert len(expected) == 4 * 3 * 40 + 400
    assert golden.mismatches(expected, golden.run_episodes()) == []


def test_check_mode_reports_a_tampered_fixture(tmp_path, capsys):
    fixture = json.loads(golden.FIXTURE.read_text())
    victim = sorted(fixture["episodes"])[0]
    fixture["episodes"][victim] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(fixture))
    assert golden.main(["--check", "--fixture", str(tampered)]) == 1
    assert f"MISMATCH {victim}" in capsys.readouterr().out
    assert golden.main(["--check"]) == 0
