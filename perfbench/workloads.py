"""Job generators for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
slots (command, graph family, size band, party count), so every run
sees the same mix of job classes whatever the seed; the seed picks the
exact size inside each slot's narrow band, the vertex subsets and the
visibilities.  Sizes walk a golden-ratio (Weyl) sequence from a seeded
offset.  Round r of seed s is a pure function of (s, r): a traced run can
replay exactly the rounds an untraced run measured.

A run holds a few whole rounds (two to four at the seed commit on a 2-core
x86-64 VM, as the machine's speed drifts), so the median and the tail (the
eleventh-slowest job) are ranks inside that small sample.  The fifteen
slots are sized so that each of those ranks falls inside a class of jobs
of about equal cost for two to five rounds: the two slowest slots are
single, slots 3-6 by cost form the tail class, and slot 8, the middle one,
lies inside the median class.  Without that, a run that fits one round
more or less would read a different job class.

Inputs kept out of every workload, and why:

* m >= 11 parties: 12-57 s and 0.6-2.2 GB per job; at m = 14 the dense
  final stage asks for 4 GiB and exits with a traceback.
* cycles and paths of about 1000 vertices or more: the recursive max-flow
  augmentation raises RecursionError.
* protocol jobs on cycles, trees and stars: the degree ratio c is tiny, so
  the threshold 3^(-1/2^(5/c-1)) overflows (OverflowError from a cycle of
  about 410 vertices on).

These are exit-contract bugs.  Their fixes come with tests; a crash that
ends fast would make such a fix look like a slowdown here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

GOLDEN = (5**0.5 - 1) / 2

PROTOCOL_P = (0.9, 0.95, 0.97, 0.99, 0.995, 0.999)
# crossover scans at these visibilities take at most ~1100*w steps
PPT_P_LOW = (0.5, 0.6, 0.7, 0.8, 0.9)
PPT_P_MID = (0.9, 0.95, 0.99)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the parameters the output check needs."""

    command: str
    argv: tuple[str, ...]
    spec: dict = field(compare=False)


class Draws:
    """Seeded choices for round `index` of a workload."""

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.index = index
        self.rng = random.Random(f"{seed}/round/{index}")

    def size(self, slot: str, lo: int, hi: int) -> int:
        """Integer in [lo, hi] from the slot's Weyl sequence."""
        offset = random.Random(f"{self.seed}/slot/{slot}").random()
        u = (offset + self.index * GOLDEN) % 1.0
        return lo + int(u * (hi - lo + 1))

    def pick(self, slot: str, options):
        return options[self.size(slot, 0, len(options) - 1)]

    def subset(self, vertex_count: int, m: int) -> tuple[int, ...]:
        return tuple(self.rng.sample(range(vertex_count), m))

    def visibilities(self, options, count: int) -> tuple[float, ...]:
        return tuple(self.rng.sample(options, count))


def _source(family: str, n: int, k: int | None = None, seed: int | None = None) -> list[str]:
    argv = ["--family", family, "--n", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def graph_job(family: str, n: int, k: int | None = None, seed: int | None = None) -> Job:
    return Job("graph", ("graph", *_source(family, n, k, seed)), {"family": family, "n": n, "k": k})


def spider_job(family: str, n: int, k: int | None, subset, method: str = "greedy") -> Job:
    argv = ["spider", *_source(family, n, k), "--subset", _join(subset)]
    if method != "greedy":
        argv += ["--method", method]
    spec = {"family": family, "n": n, "k": k, "subset": tuple(subset), "method": method}
    return Job("spider", tuple(argv), spec)


def protocol_job(family: str, n: int, k: int | None, subset, ps) -> Job:
    argv = ("protocol", *_source(family, n, k), "--subset", _join(subset), "--p", _join(ps))
    spec = {"family": family, "n": n, "k": k, "subset": tuple(subset), "p": tuple(ps)}
    return Job("protocol", argv, spec)


def ppt_job(lo: int | None, hi: int | None, ps, w: int, n_list=None) -> Job:
    if n_list is None:
        n_spec, n_values = f"{lo}:{hi}", tuple(range(lo, hi + 1))
    else:
        n_spec, n_values = _join(n_list), tuple(n_list)
    argv = ("ppt-scan", "--n", n_spec, "--p", _join(ps), "--w", str(w))
    return Job("ppt-scan", argv, {"n_values": n_values, "p": tuple(ps), "w": w})


def _complete(d: Draws, slot: str, lo: int, hi: int, m: tuple[int, int]):
    n = d.size(slot, lo, hi)
    return n, d.subset(n, d.size(slot + "-m", *m))


def _grid_subset(d: Draws, slot: str, n: int, k: int, m: tuple[int, int]):
    return d.subset(n**k, d.size(slot + "-m", *m))


def _network_scale(d: Draws) -> list[Job]:
    # seed-commit costs on the reference box; the heaviest slot alternates
    # a spider and a protocol job on K140-150
    heavy_n, heavy_subset = _complete(d, "heavy", 140, 150, (2, 3))
    if d.index % 2 == 0:
        heavy = spider_job("complete", heavy_n, None, heavy_subset)
    else:
        heavy = protocol_job("complete", heavy_n, None, heavy_subset, d.visibilities(PROTOCOL_P, 1))
    spider_n, spider_subset = _complete(d, "spider-complete", 68, 72, (2, 4))
    proto_n, proto_subset = _complete(d, "protocol-complete", 68, 72, (2, 3))
    return [
        heavy,  # ~3.5 s
        graph_job("cycle", d.size("graph-cycle", 640, 660)),  # ~1.2 s
        # tail class, ~0.85 s each
        graph_job("complete", d.size("graph-complete-large", 98, 102)),
        graph_job("grid", 4, 4),
        spider_job("grid", 4, 4, _grid_subset(d, "spider-grid-4", 4, 4, (2, 3))),
        protocol_job("grid", 4, 4, _grid_subset(d, "protocol-grid", 4, 4, (2, 4)),
                     d.visibilities(PROTOCOL_P, 1)),
        # median class, ~0.43 s each
        graph_job("grid", 12, 2),
        spider_job("complete", spider_n, None, spider_subset),
        spider_job("grid", 12, 2, _grid_subset(d, "spider-grid-12", 12, 2, (2, 3))),
        # cheap, ~0.37 s or less
        protocol_job("complete", proto_n, None, proto_subset, d.visibilities(PROTOCOL_P, 1)),
        graph_job("complete", d.size("graph-complete", 58, 62)),
        graph_job("tree", d.size("graph-tree", 290, 310), seed=d.rng.randrange(10_000)),
        graph_job("star", d.size("graph-star", 290, 310)),
        spider_job("grid", 5, 3, _grid_subset(d, "spider-method", 5, 3, (2, 3)), method="grid"),
        graph_job("complete", d.size("graph-complete-small", 38, 42)),
    ]


def _dense_graph(d: Draws, slot: str) -> tuple[str, int, int | None]:
    if d.pick(slot + "-family", ("complete", "complete", "grid")) == "grid":
        return ("grid", 4, 3)
    return ("complete", d.size(slot + "-n", 20, 40), None)


def _dense_single(d: Draws, slot: str, m: int) -> Job:
    family, n, k = _dense_graph(d, slot)
    subset = d.subset(n**k if family == "grid" else n, m)
    return protocol_job(family, n, k, subset, d.visibilities(PROTOCOL_P, 1))


def _sweep_of(d: Draws, single: Job) -> Job:
    """A 3-value p sweep on the graph and subset of a single-p job; the
    sweep's output check uses the legs that job printed."""
    spec = single.spec
    return protocol_job(spec["family"], spec["n"], spec["k"], spec["subset"],
                        d.visibilities(PROTOCOL_P, 3))


def _protocol_dense(d: Draws) -> list[Job]:
    # the dense stage costs ~4^m: m = 10 ~3.9 s, 9 ~0.65 s, 8 ~0.13 s.  The
    # m = 9 jobs form both the tail and the median class.  Sweeps stay at
    # m <= 8: their pool threads are far noisier than single jobs, and the
    # single-threaded m = 10 job then sets peak memory
    m8, m7, m6 = (_dense_single(d, f"m{m}", m) for m in (8, 7, 6))
    return [
        _dense_single(d, "m10", 10),
        *(_dense_single(d, f"m9-{i}", 9) for i in range(7)),
        m8,
        _sweep_of(d, m8),
        _sweep_of(d, m8),
        m7,
        _sweep_of(d, m7),
        m6,
        _sweep_of(d, m6),
    ]


def _spectra_scan(d: Draws) -> list[Job]:
    # a row at qubit count n costs ~n^2; the p = 0.9999 crossover scan ~0.55 s
    def band(slot, lo, hi, width):
        start = d.size(slot, lo, hi)
        return start, start + width

    strata = [d.size(f"list-{i}", 5 + 66 * i, 70 + 66 * i) for i in range(12)]
    low, mid = PPT_P_LOW, PPT_P_MID
    return [
        ppt_job(*band("top", 740, 750, 60), d.visibilities(mid, 3), 4),  # ~2.9 s
        ppt_job(*band("high", 700, 710, 100), d.visibilities(low, 1), 1),  # ~1.4 s
        # tail class, ~0.75 s each
        ppt_job(*band("upper", 500, 510, 60), d.visibilities(low, 2), 2),
        ppt_job(2, d.size("crossover", 28, 32), (0.9999, d.pick("crossover-p", (0.95, 0.99))), 1),
        ppt_job(*band("w3", 600, 610, 40), d.visibilities(mid, 2), 3),
        ppt_job(*band("w1", 550, 560, 50), d.visibilities(low, 2), 1),
        # median class, ~0.35 s each
        ppt_job(*band("middle", 400, 410, 50), d.visibilities(low, 2), 4),
        ppt_job(*band("lower", 330, 340, 100), d.visibilities(low, 1), 2),
        ppt_job(*band("low", 200, 210, 100), d.visibilities(low, 2), 2),
        ppt_job(*band("w3-low", 430, 440, 50), d.visibilities(low, 2), 3),
        # cheap, ~0.25 s or less
        ppt_job(2, 200, d.visibilities(low, 3), 1),
        ppt_job(None, None, d.visibilities(low + mid[1:], 3), 4, n_list=strata),
        ppt_job(5, 50, (0.999,), 4),
        ppt_job(*band("bottom", 100, 110, 100), d.visibilities(low, 3), 1),
        ppt_job(3, 50, d.visibilities(mid, 3), 2),
    ]


_ROUNDS = {
    "network-scale": _network_scale,
    "protocol-dense": _protocol_dense,
    "spectra-scan": _spectra_scan,
}

# one untimed job per command the workload uses; the dense one has the
# largest party count, so the first m = 10 allocation is paid in set-up
WARMUPS = {
    "network-scale": (
        graph_job("grid", 5, 3),
        spider_job("complete", 40, None, (0, 1, 2)),
        protocol_job("complete", 40, None, (0, 1, 2), (0.99,)),
    ),
    "protocol-dense": (protocol_job("complete", 20, None, tuple(range(10)), (0.99,)),),
    "spectra-scan": (ppt_job(2, 100, (0.9, 0.99), 1),),
}

# busy seconds a round of any workload takes at the seed commit on a 2-core
# x86-64 box; used only to size the fixed job set of a traced run
NOMINAL_ROUND_S = 10.0

WORKLOADS = tuple(_ROUNDS)


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    return _ROUNDS[workload](Draws(seed, index))


def trace_rounds(seconds: float) -> int:
    """Rounds in a traced run: a traced and an untraced pass fill ~seconds."""
    return max(1, round(seconds / (2 * NOMINAL_ROUND_S)))
