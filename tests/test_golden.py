"""Byte identity of `spider` and `protocol` output: each invocation in
tests/golden/spider_protocol.json must give the recorded exit code and
stdout sha256.  tests/golden/generate.py writes that file."""

import hashlib
import json
from pathlib import Path

import pytest

from isonet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "spider_protocol.json"


def test_spider_and_protocol_stdout_match_golden_corpus(capsys):
    entries = json.loads(GOLDEN.read_text(encoding="ascii"))
    assert len(entries) >= 40
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
    assert not mismatches, "\n".join(mismatches)
