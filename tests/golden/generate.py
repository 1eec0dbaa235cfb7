"""Write tests/golden/spider_protocol.json: the exit code and the stdout
sha256 of each `spider` and `protocol` invocation in CASES.

    PYTHONPATH=src python tests/golden/generate.py

The file is the byte-identity contract that test_golden replays.  Rewrite
it only when an output is meant to change, and name every changed entry
and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "spider_protocol.json"


def _complete(n, subset, *extra):
    return ["--family", "complete", "--n", str(n), "--subset", subset, *extra]


def _grid(n, k, subset, *extra):
    return ["--family", "grid", "--n", str(n), "--k", str(k), "--subset", subset, *extra]


CASES = [
    # complete graphs at network scale
    ["spider", *_complete(140, "0,1")],
    ["spider", *_complete(143, "5,71,140")],
    ["spider", *_complete(147, "12,99")],
    ["spider", *_complete(150, "0,75,149")],
    ["protocol", *_complete(141, "3,77", "--p", "0.99")],
    ["protocol", *_complete(146, "8,60,145", "--p", "0.97")],
    ["protocol", *_complete(150, "0,1,2", "--p", "0.999")],
    # dense party counts, m = 6..10 on K20-40
    ["protocol", *_complete(20, "0,1,2,3,4,5,6,7,8,9", "--p", "0.99")],
    ["protocol", *_complete(24, "2,5,7,11,13,17,19,23", "--p", "0.995")],
    ["protocol", *_complete(31, "1,4,9,16,25,30", "--p", "0.95")],
    ["protocol", *_complete(37, "0,3,6,9,12,15,18,21,24", "--p", "0.999")],
    ["protocol", *_complete(40, "39,0,20,10,30,5,15", "--p", "0.9")],
    ["spider", *_complete(20, "0,1,2,3,4,5,6,7,8,9")],
    ["spider", *_complete(33, "4,8,15,16,23,32")],
    # grids 4^3, 4^4 and 12^2
    ["spider", *_grid(4, 3, "0,21,63")],
    ["spider", *_grid(4, 4, "0,255")],
    ["spider", *_grid(4, 4, "17,100,201")],
    ["spider", *_grid(12, 2, "0,77,143")],
    ["protocol", *_grid(4, 3, "0,21,42,63", "--p", "0.99")],
    ["protocol", *_grid(4, 4, "3,130", "--p", "0.995")],
    ["protocol", *_grid(12, 2, "5,60,130", "--p", "0.999")],
    ["spider", *_grid(5, 3, "0,62,124", "--method", "grid")],
    # --max-spiders and --center
    ["spider", *_complete(60, "0,1", "--max-spiders", "3")],
    ["spider", *_complete(90, "10,20,30", "--max-spiders", "1", "--center", "30")],
    ["spider", *_grid(4, 4, "0,85,170", "--max-spiders", "0")],
    ["spider", *_complete(45, "7,8,9", "--center", "9")],
    ["protocol", *_complete(70, "2,40,69", "--center", "69", "--p", "0.99")],
    # 3-value p sweeps and uniform legs
    ["protocol", *_complete(30, "0,1,2", "--p", "0.9,0.95,0.99")],
    ["protocol", *_complete(68, "0,30,67", "--p", "0.97,0.995,0.999")],
    ["protocol", *_grid(4, 3, "1,30,62", "--p", "0.95,0.97,0.99", "--uniform-legs")],
    ["protocol", *_complete(35, "0,17,34", "--p", "0.99", "--uniform-legs")],
    # below the threshold p0, and chunks below the distillability bound
    ["protocol", *_complete(30, "0,1,2", "--p", "0.9")],
    ["protocol", *_grid(4, 3, "0,63", "--p", "0.5")],
    # the star fallback on trees, stars and cycles
    ["spider", "--family", "tree", "--n", "30", "--seed", "4", "--subset", "0,5,9"],
    ["protocol", "--family", "tree", "--n", "40", "--seed", "2", "--subset", "1,17,33",
     "--p", "0.99"],
    ["protocol", "--family", "star", "--n", "12", "--subset", "1,2,3", "--p", "0.99,0.9,0.5"],
    ["spider", "--family", "star", "--n", "7", "--subset", "1,4"],
    ["spider", "--family", "cycle", "--n", "40", "--subset", "0,13,27"],
    ["protocol", "--family", "cycle", "--n", "420", "--subset", "0,100", "--p", "0.99"],
    # input errors
    ["spider", *_complete(10, "1,2", "--center", "0")],
    ["protocol", *_complete(10, "1", "--p", "0.9")],
]


def run(argv) -> dict:
    from isonet.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def main() -> int:
    entries = [run(argv) for argv in CASES]
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    print(f"{len(entries)} entries -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
