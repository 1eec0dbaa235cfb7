"""Command-line frontend: graph analysis, spider extraction, PPT scans,
protocol simulation and the oracle verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Every output starts with a header recording version, seed and the full
configuration, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, verification
from .graphs import (
    GRAPH_FAMILIES,
    INFINITE,
    GridGraphSpec,
    check_size,
    diameter,
    edge_connectivity,
    generate,
    read_edge_list,
)
from .protocol import RECURRENCE_MODEL_NOTE, plan_partial_distillation, run_partial_distillation
from .spectra import (
    _ppt_sign_test,
    min_eigenvalue_log,
    min_eigenvalue_teleported_ghz,
    ppt_crossover,
)
from .spiders import decomposition_lines, grid_spiders


def _fmt(value) -> str:
    """Fixed 12-significant-digit decimal rendering ('.' separator, no locale)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == INFINITE:
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _fmt_min_eigenvalue(n: int, p: float, w: int) -> str:
    """_fmt of the minimum eigenvalue, unless it underflows to 0: then its
    sign and 12 significant digits with a decimal exponent, from log10|value|
    (float() of that text still reads 0.0)."""
    value = min_eigenvalue_teleported_ghz(n, p, w)
    if value != 0.0:
        return _fmt(value)
    sign, log_abs = min_eigenvalue_log(n, p, w)
    if sign == 0:
        return _fmt(value)
    log10_abs = log_abs / math.log(10.0)
    exponent = math.floor(log10_abs)
    # the mantissa may round up to 10, which moves the exponent by one
    digits, _, carry = f"{10.0 ** (log10_abs - exponent):.11e}".partition("e")
    digits = digits.rstrip("0").rstrip(".")
    return f"{'-' if sign < 0 else ''}{digits}e{exponent + int(carry):+03d}"


def _header(args: argparse.Namespace) -> list[str]:
    skip = {"func", "out"}
    pairs = [
        f"{key}={value}"
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    ]
    return [
        f"# isonet {__version__}",
        f"# seed: {getattr(args, 'seed', 0)}",
        f"# config: {' '.join(pairs)}",
    ]


def _emit(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(spec: str, kind, what: str) -> list:
    """Comma-separated values; empty parts are skipped, but one value is needed."""
    try:
        values = [kind(part) for part in spec.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} {spec!r}") from None
    if not values:
        raise ValueError(f"empty {what} {spec!r}")
    return values


def _parse_int_values(spec: str) -> list[int]:
    """Either 'lo:hi' (inclusive) or a comma-separated list."""
    if ":" not in spec:
        return _parse_list(spec, int, "integer range")
    try:
        lo, hi = (int(part) for part in spec.split(":"))
        if hi < lo:
            raise ValueError
    except ValueError:
        raise ValueError(f"could not parse integer range {spec!r}") from None
    check_size(hi - lo + 1, f"integer range {spec!r}")
    return list(range(lo, hi + 1))


def _load_graph(args: argparse.Namespace):
    if args.edge_list and args.family:
        raise ValueError("--family and --edge-list exclude each other")
    if args.edge_list:
        with open(args.edge_list, "r", encoding="ascii") as stream:
            return read_edge_list(stream), f"file:{args.edge_list}"
    if not args.family:
        raise ValueError("need either --family or --edge-list")
    if args.n is None:
        raise ValueError("--family needs --n")
    g = generate(args.family, args.n, k=args.k, seed=args.seed)
    graph_id = f"{args.family}-{args.n}" + (f"-{args.k}" if args.family == "grid" else "")
    return g, graph_id


def _add_graph_source(parser: argparse.ArgumentParser):
    parser.add_argument("--family", choices=GRAPH_FAMILIES, help="generated graph family")
    parser.add_argument("--n", type=int, help="family size parameter")
    parser.add_argument("--k", type=int, help="grid tuple length")
    parser.add_argument("--edge-list", help="read the graph from an edge-list file")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized families")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def cmd_graph(args) -> int:
    g, graph_id = _load_graph(args)
    lines = _header(args)
    lines.append("graph_id,vertices,edges,min_degree,max_degree,edge_connectivity,diameter")
    lam = edge_connectivity(g) if g.vertex_count >= 2 else 0
    lines.append(
        ",".join(
            [
                graph_id,
                _fmt(g.vertex_count),
                _fmt(g.edge_count),
                _fmt(g.min_degree),
                _fmt(g.max_degree),
                _fmt(lam),
                _fmt(diameter(g)),
            ]
        )
    )
    _emit(lines, args.out)
    return 0


def cmd_spider(args) -> int:
    if args.method == "grid":
        if args.family != "grid":
            raise ValueError("--method grid needs --family grid")
        if args.max_spiders is not None:
            raise ValueError("--max-spiders needs --method greedy")
    g, graph_id = _load_graph(args)
    subset = _parse_list(args.subset, int, "vertex subset")
    if args.method == "grid":
        # the plan's premises, center and budget; the spiders come from the grid
        plan = plan_partial_distillation(g, subset, args.center, max_spiders=0)
        dec = grid_spiders(GridGraphSpec(args.n, args.k), subset, plan.spiders.center)
    else:
        plan = plan_partial_distillation(g, subset, args.center, args.max_spiders)
        dec = plan.spiders
    lines = _header(args)
    lines.append(f"graph_id = {graph_id}")
    lines.append(f"center = {dec.center}")
    lines.append(f"subset = {','.join(map(str, sorted(subset)))}")
    lines.append(f"spiders = {dec.count}")
    lines.append(f"leg_length_bound = {dec.leg_length_bound}")
    if plan.min_degree > 1:
        lines.append(f"guaranteed_spiders = {plan.spider_budget}")
    else:
        lines.append("guaranteed_spiders = n/a (premise violated: minimum degree must exceed 1)")
    lines.extend(decomposition_lines(dec))
    _emit(lines, args.out)
    return 0


def cmd_ppt_scan(args) -> int:
    p_values = _parse_list(args.p, float, "number list")
    n_values = _parse_int_values(args.n)
    w = args.w
    if w < 1:
        raise ValueError("--w must be at least 1")
    for p in p_values:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be < 1 for crossover (and > 0)")
    if any(n <= w for n in n_values):
        raise ValueError(f"every n must exceed w={w}")
    crossovers = {p: ppt_crossover(p, w) for p in p_values}
    # is_ppt_teleported_ghz's own test, built once per p: p and n are valid here
    sign_tests = {p: _ppt_sign_test(p, w) for p in p_values}

    def row(point):
        n, p = point
        return ",".join(
            [
                _fmt(n),
                _fmt(p),
                _fmt(w),
                _fmt_min_eigenvalue(n, p, w),
                _fmt(sign_tests[p](n)),
                _fmt(n == crossovers[p]),
            ]
        )

    points = [(n, p) for p in p_values for n in n_values]
    lines = _header(args)
    lines.append("n,p,w,min_eigenvalue,is_ppt,n0_flag")
    lines.extend(map(row, points))
    _emit(lines, args.out)
    return 0


def _report_text(graph_id: str, uniform_legs: bool, report) -> list[str]:
    plan = report.plan
    lines = [
        "[graph]",
        f"id = {graph_id}",
        f"vertices = {plan.vertex_count}",
        f"min_degree = {plan.min_degree}",
        f"edge_connectivity = {plan.edge_connectivity}",
        "[plan]",
        f"subset = {','.join(map(str, sorted(plan.spiders.subset)))}",
        f"center = {plan.spiders.center}",
        f"c = {plan.ratio_c}",
        f"p0 = {_fmt(plan.p0)}",
        f"spider_budget = {plan.spider_budget}",
        f"leg_length_bound = {plan.leg_length_bound}",
        "[run]",
        f"p = {_fmt(report.p)}",
        f"uniform_legs = {_fmt(uniform_legs)}",
        f"model = {RECURRENCE_MODEL_NOTE}",
        f"spiders_found = {plan.spiders.count}",
        f"p_above_threshold = {_fmt(report.p_above_threshold)}",
        f"necessary_condition_violated = {_fmt(plan.necessary_condition_violated)}",
    ]
    for outcome in report.targets:
        lines.append(f"[target {outcome.target}]")
        lines.append(f"copies = {plan.spiders.count}")
        lines.append(f"leg_lengths = {','.join(map(str, plan.leg_lengths[outcome.target]))}")
        lines.append(
            "leg_visibilities = " + ",".join(_fmt(v) for v in outcome.leg_visibilities)
        )
        lines.append(f"chunk_visibility = {_fmt(outcome.chunk_visibility)}")
        lines.append(f"distilled_visibility = {_fmt(outcome.distilled)}")
        lines.append(f"copies_consumed = {outcome.copies_consumed}")
        lines.append(f"below_threshold = {_fmt(outcome.below_threshold)}")
    lines.append("[result]")
    lines.append(f"p_prime_min = {_fmt(report.p_prime_min)}")
    lines.append(f"fidelity = {_fmt(report.final_fidelity)}")
    return lines


def cmd_protocol(args) -> int:
    g, graph_id = _load_graph(args)
    subset = _parse_list(args.subset, int, "vertex subset")
    p_values = _parse_list(args.p, float, "number list")
    plan = plan_partial_distillation(g, subset, center=args.center)
    reports = [run_partial_distillation(plan, p, uniform_legs=args.uniform_legs) for p in p_values]
    lines = _header(args)
    if len(reports) == 1:
        lines.extend(_report_text(graph_id, args.uniform_legs, reports[0]))
    else:
        lines.append("graph_id,N,m,p,c,p0,M_n,spiders_found,p_prime_min,fidelity")
        for report in reports:
            values = (
                graph_id,
                plan.vertex_count,
                len(plan.spiders.subset),
                report.p,
                float(plan.ratio_c),
                plan.p0,
                plan.spider_budget,
                plan.spiders.count,
                report.p_prime_min,
                report.final_fidelity,
            )
            lines.append(",".join(map(_fmt, values)))
    _emit(lines, args.out)
    return 0


def cmd_verify(args) -> int:
    results = verification.run_checks(
        name_filter=args.filter,
        seed=args.seed,
        tol_scale=args.tol,
        inject_fault=args.inject_fault,
    )
    lines = _header(args)
    if not results:
        raise ValueError(f"no checks match filter {args.filter!r}")
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"[{status}] {result.name}: {result.detail}")
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    _emit(lines, args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isonet",
        description="Partial distillability analysis for noisy isotropic quantum networks",
    )
    parser.add_argument("--version", action="version", version=f"isonet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="connectivity profile of one graph")
    _add_graph_source(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_spider = sub.add_parser("spider", help="extract edge-disjoint spider subgraphs")
    _add_graph_source(p_spider)
    p_spider.add_argument("--subset", required=True, help="comma-separated target vertices")
    p_spider.add_argument("--center", type=int, help="center vertex (default: max degree)")
    p_spider.add_argument("--max-spiders", type=int, help="stop after this many spiders")
    p_spider.add_argument(
        "--method",
        choices=("greedy", "grid"),
        default="greedy",
        help="greedy residual extraction or the explicit grid construction",
    )
    p_spider.set_defaults(func=cmd_spider)

    p_scan = sub.add_parser("ppt-scan", help="PPT scan of the teleported GHZ state")
    p_scan.add_argument("--n", required=True, help="qubit counts, 'lo:hi' or comma list")
    p_scan.add_argument("--p", required=True, help="comma-separated visibilities in (0,1)")
    p_scan.add_argument("--w", type=int, default=1, help="bipartition size")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out")
    p_scan.set_defaults(func=cmd_ppt_scan)

    p_proto = sub.add_parser("protocol", help="simulate the distillation pipeline")
    _add_graph_source(p_proto)
    p_proto.add_argument("--subset", required=True, help="comma-separated target vertices")
    p_proto.add_argument("--center", type=int, help="center vertex (default: max degree)")
    p_proto.add_argument("--p", required=True, help="comma-separated link visibilities")
    p_proto.add_argument(
        "--uniform-legs",
        action="store_true",
        help="downgrade every leg to the uniform worst-case exponent",
    )
    p_proto.set_defaults(func=cmd_protocol)

    p_verify = sub.add_parser("verify", help="run the closed-form vs brute-force oracle suite")
    p_verify.add_argument("--filter", help="run only checks whose name contains this string")
    p_verify.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p_verify.add_argument("--tol", type=float, default=1.0, help="tolerance scale factor")
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="debug: deliberately break one comparison to prove the harness fails",
    )
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
