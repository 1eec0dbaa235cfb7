"""Byte identity of CLI output: each invocation in a golden corpus under
tests/golden/ must give the recorded exit code and stdout sha256.
tests/golden/generate.py writes those files, running every invocation from
the repository root."""

import hashlib
import json
from pathlib import Path

from isonet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _mismatches(name: str, capsys, min_entries: int) -> list[str]:
    entries = json.loads((GOLDEN / name).read_text(encoding="ascii"))
    assert len(entries) >= min_entries
    mismatches = []
    for entry in entries:
        try:
            code = main(list(entry["argv"]))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (entry["exit"], entry["stdout_sha256"]):
            mismatches.append(f"{' '.join(entry['argv'])}: exit {code}, sha256 {digest}")
    return mismatches


def test_spider_and_protocol_stdout_match_golden_corpus(capsys):
    mismatches = _mismatches("spider_protocol.json", capsys, 40)
    assert not mismatches, "\n".join(mismatches)


def test_graph_stdout_matches_golden_corpus(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent.parent)  # edge-list paths are relative to the root
    mismatches = _mismatches("graph.json", capsys, 30)
    assert not mismatches, "\n".join(mismatches)


def test_ppt_scan_stdout_matches_golden_corpus(capsys):
    mismatches = _mismatches("ppt_scan.json", capsys, 30)
    assert not mismatches, "\n".join(mismatches)


def test_verify_stdout_matches_golden_corpus(capsys):
    mismatches = _mismatches("verify.json", capsys, 10)
    assert not mismatches, "\n".join(mismatches)
