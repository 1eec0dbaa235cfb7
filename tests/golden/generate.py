"""Write the golden corpora under tests/golden/: the exit code and the
stdout sha256 of each `spider` and `protocol` invocation in CASES
(spider_protocol.json), of each `graph` invocation in GRAPH_CASES
(graph.json), of each `ppt-scan` invocation in PPT_CASES (ppt_scan.json)
and of each `verify` invocation in VERIFY_CASES (verify.json).

    PYTHONPATH=src python tests/golden/generate.py

Invocations run from the repository root, so that the edge-list paths in
the argv, which the output header records, read the same everywhere.  The
files are the byte-identity contract that test_golden replays.  Rewrite
them only when an output is meant to change, and name every changed entry
and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent


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


HUGE = str(10**400)


def _family(family, n, *extra):
    return ["graph", "--family", family, "--n", str(n), *extra]


GRAPH_CASES = [
    # Hamming grids: lambda = delta >= 3 takes the flows; k = 1 is complete
    *(_family("grid", n, "--k", str(k)) for n, k in ((4, 3), (4, 4), (5, 3), (12, 2), (3, 5), (10, 3))),
    _family("grid", 7, "--k", "1"),
    # complete graphs: K1 has no edge connectivity, K2 to K150
    *(_family("complete", n) for n in (1, 2, 3, 17, 64, 65, 150)),
    # cycles, paths and stars: minimum degree <= 2, the bridge search
    *(_family("cycle", n) for n in (3, 50, 400)),
    *(_family("path", n) for n in (1, 2, 300)),
    *(_family("star", n) for n in (2, 40)),
    # seeded trees
    _family("tree", 30, "--seed", "4"),
    _family("tree", 200, "--seed", "9"),
    # a disconnected graph from an edge-list file: a triangle, a K4, an
    # edge and an isolated vertex
    ["graph", "--edge-list", "tests/golden/disconnected.edges"],
    # long diameters and many degree classes: a broom (a hub with 50 leaves
    # and a 1000-edge handle) from an edge-list file
    _family("cycle", 659),
    _family("path", 1200),
    _family("tree", 300, "--seed", "3"),
    ["graph", "--edge-list", "tests/golden/broom.edges"],
    # usage and input errors
    _family("grid", 4),
    _family("grid", 1, "--k", "3"),
    _family("cycle", 2),
    ["graph", "--family", "complete"],
    ["graph"],
    ["graph", "--family", "hexagon", "--n", "6"],
    ["graph", "--edge-list", "tests/golden/no-such-file.edges"],
    # sizes above graphs.MAX_SIZE, refused before anything is built
    _family("complete", 100000),
    _family("grid", 10, "--k", "9"),
    _family("grid", 10, "--k", HUGE),
    ["graph", "--edge-list", "tests/golden/oversize-header.edges"],
]



def _scan(n, p, w, *extra):
    return ["ppt-scan", "--n", n, "--p", p, "--w", str(w), *extra]


PPT_CASES = [
    # p from 1e-9 to 0.9999, w from 1 to 8
    _scan("2:40", "0.5", 1),
    _scan("3:30", "1e-9", 1),
    _scan("10:20", "0.000001,0.001,0.1", 2),
    _scan("5:60", "0.9", 4),
    _scan("9:50", "0.99,0.999", 8),
    _scan("2,3,5,8,13,21,34,55,89", "0.7", 1),
    _scan("6:12", "0.3,0.6,0.95", 5),
    _scan("40,80,160", "0.95", 7),
    _scan("20:25", "0.999999", 6),
    _scan("100,1000,10000", "0.9999", 1),
    _scan("50", "0.8", 3, "--seed", "7"),
    _scan("2:4", "0.5,0.5", 1),
    _scan("4,5,6,", "0.9,", 1),
    # the rows around a crossover: n0(0.99, 3) = 3153, n0(0.9999, 1) =
    # 198054, n0(0.9999, 4) = 792216
    _scan("3150:3156", "0.99", 3),
    _scan("198050:198060", "0.9999", 1),
    _scan("792210:792220", "0.9999", 4),
    # minimum eigenvalues that underflow a float
    _scan("700,800", "0.9", 1),
    _scan("1100", "0.5", 550),
    _scan("500,600,700", "0.5", 2),
    # a crossover at n0 = 42,832,822,558
    _scan("2:3", "0.999999999", 1),
    # usage and input errors
    _scan("2:3", "0.9", 0),
    _scan("1:3", "0.9", 1),
    _scan("2:3", "1.0", 1),
    _scan("2:3", "0", 1),
    _scan("2:3", "nan", 1),
    _scan("5:3", "0.9", 1),
    _scan("abc", "0.9", 1),
    _scan("2:3", ",", 1),
    _scan("2:3", "0.9", HUGE),
    _scan(str(10**400 + 1), "0.9", HUGE),
    ["ppt-scan", "--n", "2:3"],
    ["ppt-scan", "--n", "2:3", "--p", "0.9", "--w", "x"],
    # a range longer than graphs.MAX_SIZE, refused before it is expanded
    ["ppt-scan", "--n", "2:1000000000", "--p", "0.9"],
]


def _verify(*extra):
    return ["verify", *extra]


VERIFY_CASES = [
    # cheap checks that run the dense and exhaustive oracles: the star
    # channel, the depolarized components, the noise overlaps, the spectrum
    # table and the cut enumeration
    *(_verify("--filter", name) for name in (
        "teleported-ghz-closed-form",
        "ghz-basis-eigenstructure",
        "noise-overlap-forms",
        "min-eigenvalue-closed-form",
        "menger-duality",
    )),
    # an injected fault fails the comparison
    _verify("--filter", "noise-overlap-forms", "--inject-fault"),
    _verify("--filter", "menger-duality", "--inject-fault"),
    # usage errors
    _verify("--tol", "0"),
    _verify("--tol", "nan"),
    _verify("--filter", "no-such-check"),
]

CORPORA = {
    "spider_protocol.json": CASES,
    "graph.json": GRAPH_CASES,
    "ppt_scan.json": PPT_CASES,
    "verify.json": VERIFY_CASES,
}


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
    os.chdir(ROOT)
    for name, cases in CORPORA.items():
        entries = [run(argv) for argv in cases]
        (GOLDEN / name).write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
        print(f"{len(entries)} entries -> {GOLDEN / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
