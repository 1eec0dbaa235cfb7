"""Output checks that derive their own reference values.

Nothing here compares golden bytes or calls into isonet: each check
parses the fields it needs by name and compares them with closed forms of
the generated graph families, an independent walk over the printed spider
legs, the visibility and fidelity laws of the protocol, and a log-space
sign test for the PPT scan.  A later change of output layout that keeps
the field names keeps these checks working.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

TOL = 1e-9
_LEG_LINE = re.compile(r"^\d+( \d+)+$")


class CheckError(Exception):
    """The job's output disagrees with the reference."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def _close(actual: float, expected: float, what: str):
    _require(abs(actual - expected) <= TOL, f"{what}: printed {actual!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# closed forms of the generated families
# ---------------------------------------------------------------------------


class Family:
    """Vertex count, degrees, edge connectivity, diameter, adjacency and
    distance of one generated graph, from closed forms."""

    def __init__(self, family: str, n: int, k: int | None):
        self.family, self.n, self.k = family, n, k
        if family == "complete":
            self.vertices, self.edges = n, n * (n - 1) // 2
            self.min_degree = self.max_degree = self.lam = n - 1
            self.diameter = 1
        elif family == "cycle":
            self.vertices = self.edges = n
            self.min_degree = self.max_degree = self.lam = 2
            self.diameter = n // 2
        elif family == "star":
            self.vertices, self.edges = n, n - 1
            self.min_degree, self.max_degree, self.lam = 1, n - 1, 1
            self.diameter = 2 if n >= 3 else 1
        elif family == "tree":
            self.vertices, self.edges = n, n - 1
            self.min_degree, self.max_degree, self.lam = 1, None, 1
            self.diameter = None  # only 2 <= diameter <= n-1 is known
        elif family == "grid":
            self.vertices = n**k
            self.min_degree = self.max_degree = self.lam = k * (n - 1)
            self.edges = self.vertices * k * (n - 1) // 2
            self.diameter = k
        else:
            raise ValueError(f"no closed form for family {family!r}")

    def _coords(self, v: int) -> list[int]:
        coords = []
        for _ in range(self.k):
            coords.append(v % self.n)
            v //= self.n
        return coords

    def distance(self, u: int, v: int) -> int:
        if u == v:
            return 0
        if self.family == "complete":
            return 1
        if self.family == "cycle":
            gap = abs(u - v)
            return min(gap, self.n - gap)
        if self.family == "star":
            return 1 if 0 in (u, v) else 2
        if self.family == "grid":
            return sum(a != b for a, b in zip(self._coords(u), self._coords(v)))
        raise ValueError(f"no distance formula for family {self.family!r}")

    def adjacent(self, u: int, v: int) -> bool:
        in_range = 0 <= u < self.vertices and 0 <= v < self.vertices
        return in_range and self.distance(u, v) == 1

    def default_center(self, subset) -> int:
        # isonet picks the subset vertex of largest degree, smallest id on ties
        _require(self.min_degree == self.max_degree, "default center needs a regular family")
        return min(subset)

    def ratio_c(self) -> Fraction:
        return Fraction(self.min_degree, self.vertices)

    def guaranteed_spiders(self, m: int) -> int:
        c = self.ratio_c()
        return int(min(Fraction(self.min_degree), c * self.lam) / (5 * m))


def _fields(text: str) -> dict:
    """'key = value' lines, with keys of [section] blocks as 'section.key'."""
    fields, section = {}, ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1] + "."
        elif " = " in line:
            key, value = line.split(" = ", 1)
            fields[section + key.strip()] = value.strip()
    return fields


def _csv_rows(text: str, first_column: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    for index, line in enumerate(lines):
        header = line.split(",")
        if header[0] == first_column:
            return [dict(zip(header, row.split(","))) for row in lines[index + 1 :]]
    raise CheckError(f"no CSV header starting with {first_column!r}")


def _get(fields: dict, key: str) -> str:
    _require(key in fields, f"missing field {key!r}")
    return fields[key]


def _floats(spec: str) -> list[float]:
    return [float(part) for part in spec.split(",")]


def _ints(spec: str) -> list[int]:
    return [int(part) for part in spec.split(",")]


# ---------------------------------------------------------------------------
# protocol references
# ---------------------------------------------------------------------------


def leg_visibility(p: float, length: int) -> float:
    return p ** (2.0 ** (length - 1))


def distill(chunk: float, copies: int) -> tuple[float, int, bool]:
    """Two-copy recurrence on qubit Werner fidelities, floor(log2 copies)
    rounds; (visibility, copies consumed, below threshold)."""
    if copies == 0:
        return chunk, 0, False
    if copies == 1:
        return chunk, 1, False
    if chunk <= 1.0 / 3.0:
        return chunk, 0, True
    rounds = copies.bit_length() - 1
    f = (1.0 + 3.0 * chunk) / 4.0
    for _ in range(rounds):
        e = (1.0 - f) / 3.0
        f = (f * f + e * e) / (f * f + 2.0 * f * e + 5.0 * e * e)
    return (4.0 * f - 1.0) / 3.0, 2**rounds, False


def ghz_fidelity(distilled) -> float:
    """Fidelity with GHZ after each non-center share crossed a depolarizing
    channel of visibility p_i: (prod p_i + prod (1+p_i)/2) / 2."""
    return 0.5 * math.prod(distilled) + 0.5 * math.prod((1.0 + p) / 2.0 for p in distilled)


def threshold_p0(c: Fraction) -> float:
    return 3.0 ** (-1.0 / 2.0 ** (5.0 / float(c) - 1.0))


# ---------------------------------------------------------------------------
# PPT references
# ---------------------------------------------------------------------------


def _ppt_slopes(p: float, w: int) -> tuple[float, float, float, float]:
    lp, lm, l2p = math.log1p(p), math.log1p(-p), math.log(2.0 * p)
    return lp - l2p, w * (lm - lp), lm - l2p, w * (lp - lm)


def ppt_sign_nonnegative(n: int, p: float, w: int, slopes=None) -> bool:
    """Sign of the only eigenvalue of the partially transposed teleported
    GHZ state that can be negative, scaled by 2/p^n:
    -1 + ((1+p)/2p)^n ((1-p)/(1+p))^w + ((1-p)/2p)^n ((1+p)/(1-p))^w."""
    a_slope, a_shift, b_slope, b_shift = slopes or _ppt_slopes(p, w)
    a, b = n * a_slope + a_shift, n * b_slope + b_shift
    top = max(a, b)
    return top + math.log1p(math.exp(min(a, b) - top)) >= 0.0


class Checker:
    """Checks one job's stdout; keeps the references later jobs depend on."""

    def __init__(self):
        self._crossovers = {}
        self._legs = {}  # (family, n, k, subset) -> (copies, {target: lengths})

    def check(self, job, text: str):
        """Raise CheckError when the output is wrong."""
        try:
            getattr(self, "_" + job.command.replace("-", "_"))(job.spec, text)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            raise CheckError(f"unparsable output: {exc!r}") from None

    def crossover(self, p: float, w: int) -> int:
        key = (p, w)
        if key not in self._crossovers:
            slopes, n = _ppt_slopes(p, w), w + 1
            while not ppt_sign_nonnegative(n, p, w, slopes):
                n += 1
            self._crossovers[key] = n
        return self._crossovers[key]

    def _graph(self, spec: dict, text: str):
        fam = Family(spec["family"], spec["n"], spec["k"])
        rows = _csv_rows(text, "graph_id")
        _require(len(rows) == 1, f"expected one data row, found {len(rows)}")
        row = rows[0]
        _require(int(row["vertices"]) == fam.vertices, "vertex count")
        _require(int(row["edges"]) == fam.edges, "edge count")
        _require(int(row["min_degree"]) == fam.min_degree, "minimum degree")
        if fam.max_degree is not None:
            _require(int(row["max_degree"]) == fam.max_degree, "maximum degree")
        _require(int(row["edge_connectivity"]) == fam.lam, f"edge connectivity is not {fam.lam}")
        diam = int(row["diameter"])
        if fam.diameter is None:
            _require(2 <= diam <= fam.vertices - 1, "tree diameter out of range")
        else:
            _require(diam == fam.diameter, f"diameter is not {fam.diameter}")

    def _spider(self, spec: dict, text: str):
        fam = Family(spec["family"], spec["n"], spec["k"])
        subset = spec["subset"]
        m = len(subset)
        fields = _fields(text)
        center = int(_get(fields, "center"))
        _require(center == fam.default_center(subset), "center is not the default center")
        _require(sorted(_ints(_get(fields, "subset"))) == sorted(subset), "subset")
        count = int(_get(fields, "spiders"))
        bound = int(_get(fields, "leg_length_bound"))
        guaranteed = int(_get(fields, "guaranteed_spiders"))
        _require(guaranteed == fam.guaranteed_spiders(m), "guaranteed_spiders")
        _require(count >= guaranteed, f"{count} spiders, fewer than the {guaranteed} guaranteed")
        if spec["method"] == "grid":
            _require(bound == fam.k + 1, "grid leg bound")
            _require(count == ((fam.n - 1) // (m - 1) - 1) * fam.k, "grid construction count")
        else:
            _require(bound == 5 * fam.vertices // fam.min_degree, "leg length bound")
        targets = set(subset) - {center}
        legs = [list(map(int, line.split())) for line in text.splitlines() if _LEG_LINE.match(line)]
        _require(len(legs) == count * len(targets), f"{len(legs)} legs for {count} spiders")
        seen_edges = set()
        seen_legs = set()
        for index, target, *path in legs:
            _require(0 <= index < count and target in targets, f"leg label {index} {target}")
            _require((index, target) not in seen_legs, f"spider {index} repeats target {target}")
            seen_legs.add((index, target))
            _require(path[0] == center and path[-1] == target, f"leg {index}->{target} endpoints")
            _require(len(set(path)) == len(path), f"leg {index}->{target} repeats a vertex")
            _require(len(path) - 1 <= bound, f"leg {index}->{target} longer than the bound")
            for u, v in zip(path, path[1:]):
                _require(fam.adjacent(u, v), f"leg {index}->{target} uses non-edge {u}-{v}")
                edge = (min(u, v), max(u, v))
                _require(edge not in seen_edges, f"edge {edge} used twice")
                seen_edges.add(edge)

    def _protocol(self, spec: dict, text: str):
        fam = Family(spec["family"], spec["n"], spec["k"])
        subset = spec["subset"]
        m = len(subset)
        center = fam.default_center(subset)
        key = (spec["family"], spec["n"], spec["k"], tuple(sorted(subset)))
        c = fam.ratio_c()
        if len(spec["p"]) == 1:
            self._protocol_report(spec, fam, key, center, c, _fields(text))
            return
        _require(key in self._legs, "sweep without a preceding single-p run to supply its legs")
        copies, lengths = self._legs[key]
        rows = _csv_rows(text, "graph_id")
        _require(len(rows) == len(spec["p"]), f"{len(rows)} rows for {len(spec['p'])} values of p")
        for p, row in zip(spec["p"], rows):
            _require(float(row["p"]) == p, "sweep rows out of order")
            _require(int(row["N"]) == fam.vertices and int(row["m"]) == m, "N or m")
            _close(float(row["c"]), float(c), "c")
            _close(float(row["p0"]), threshold_p0(c), "p0")
            _require(int(row["M_n"]) == fam.guaranteed_spiders(m), "M_n")
            _require(int(row["spiders_found"]) == copies, "spiders_found")
            distilled = [
                distill(min(leg_visibility(p, n) for n in lengths[t]), copies)[0]
                for t in sorted(lengths)
            ]
            _close(float(row["p_prime_min"]), min(distilled), f"p_prime_min at p={p}")
            _close(float(row["fidelity"]), ghz_fidelity(distilled), f"fidelity at p={p}")

    def _protocol_report(self, spec, fam, key, center, c, fields):
        p = spec["p"][0]
        subset = spec["subset"]
        _require(int(_get(fields, "graph.vertices")) == fam.vertices, "vertices")
        _require(int(_get(fields, "graph.min_degree")) == fam.min_degree, "min_degree")
        _require(int(_get(fields, "graph.edge_connectivity")) == fam.lam, "edge_connectivity")
        _require(int(_get(fields, "plan.center")) == center, "center")
        _require(_get(fields, "plan.c") == str(c), "c")
        _close(float(_get(fields, "plan.p0")), threshold_p0(c), "p0")
        _require(int(_get(fields, "plan.spider_budget")) == fam.guaranteed_spiders(len(subset)), "budget")
        _require(_get(fields, "plan.leg_length_bound") == str(Fraction(5) / c), "leg_length_bound")
        copies = int(_get(fields, "run.spiders_found"))
        lengths, distilled = {}, []
        for target in sorted(set(subset) - {center}):
            section = f"target {target}."
            legs = _ints(_get(fields, section + "leg_lengths"))
            _require(int(_get(fields, section + "copies")) == copies, f"copies of {target}")
            _require(len(legs) == max(copies, 1), f"leg count of {target}")
            _require(min(legs) >= fam.distance(center, target), f"leg shorter than distance to {target}")
            shown = _floats(_get(fields, section + "leg_visibilities"))
            _require(len(shown) == len(legs), f"visibility count of {target}")
            for length, value in zip(legs, shown):
                _close(value, leg_visibility(p, length), f"leg visibility to {target}")
            chunk = min(shown)
            _close(float(_get(fields, section + "chunk_visibility")), chunk, f"chunk of {target}")
            value, consumed, below = distill(leg_visibility(p, max(legs)), copies)
            _close(float(_get(fields, section + "distilled_visibility")), value, f"distilled {target}")
            _require(int(_get(fields, section + "copies_consumed")) == consumed, f"consumed {target}")
            _require(_get(fields, section + "below_threshold") == str(int(below)), f"below {target}")
            lengths[target] = legs
            distilled.append(float(_get(fields, section + "distilled_visibility")))
        self._legs[key] = (copies, lengths)
        _close(float(_get(fields, "result.p_prime_min")), min(distilled), "p_prime_min")
        _close(float(_get(fields, "result.fidelity")), ghz_fidelity(distilled), "fidelity")

    def _ppt_scan(self, spec: dict, text: str):
        w = spec["w"]
        rows = _csv_rows(text, "n")
        expected = [(n, p) for p in spec["p"] for n in spec["n_values"]]
        _require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
        for (n, p), row in zip(expected, rows):
            _require(int(row["n"]) == n and float(row["p"]) == p and int(row["w"]) == w, "row order")
            ppt = ppt_sign_nonnegative(n, p, w)
            _require(row["is_ppt"] == str(int(ppt)), f"is_ppt at n={n}, p={p}")
            flag = n == self.crossover(p, w)
            _require(row["n0_flag"] == str(int(flag)), f"n0_flag at n={n}, p={p}")


# ---------------------------------------------------------------------------
# fault injection: change one checked value so the checker must object
# ---------------------------------------------------------------------------


def corrupt(job, text: str) -> str:
    """Return text with one value the checker verifies changed."""
    lines = text.split("\n")
    if job.command == "spider":
        index = next(i for i, line in enumerate(lines) if _LEG_LINE.match(line))
        lines[index] += " 0"  # the first leg no longer ends at its target
    elif job.command == "protocol" and len(job.spec["p"]) == 1:
        index = next(i for i, line in enumerate(lines) if line.startswith("fidelity = "))
        lines[index] = "fidelity = 0.5"
    else:
        header = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        column = {"graph": "edge_connectivity", "protocol": "fidelity", "ppt-scan": "is_ppt"}
        position = lines[header].split(",").index(column[job.command])
        row = lines[header + 1].split(",")
        row[position] = "0.5" if job.command == "protocol" else str(int(row[position]) + 1)
        lines[header + 1] = ",".join(row)
    return "\n".join(lines)
