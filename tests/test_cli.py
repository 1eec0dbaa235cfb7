import contextlib
import io
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isonet.cli
import isonet.protocol
import isonet.spiders
from helpers import exact_min_eigenvalue
from isonet import __version__, graphs, verification
from isonet.cli import main
from isonet.spectra import _ppt_sign_test


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_profile_grid(capsys):
    code, out, _ = run_cli(capsys, "graph", "--family", "grid", "--n", "3", "--k", "2")
    assert code == 0
    assert out.startswith(f"# isonet {__version__}\n")
    row = out.strip().splitlines()[-1]
    assert row == "grid-3-2,9,18,4,4,4,2"


def test_graph_profile_star(capsys):
    code, out, _ = run_cli(capsys, "graph", "--family", "star", "--n", "6")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[5] == "1"  # edge connectivity


def test_graph_long_path_exits_cleanly(capsys):
    code, out, err = run_cli(capsys, "graph", "--family", "path", "--n", "1200")
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "path-1200,1200,1199,1,2,1,1199"


@pytest.mark.parametrize(
    "source, row",
    [
        (("--family", "complete", "--n", "1"), "complete-1,1,0,0,0,0,0"),
        (("--family", "path", "--n", "1"), "path-1,1,0,0,0,0,0"),
        ("1 0\n", ",1,0,0,0,0,0"),
        ("3 1\n0 1\n", ",3,1,0,1,0,inf"),  # vertex 2 is isolated
    ],
)
def test_graph_tiny_inputs(source, row, tmp_path, capsys):
    if isinstance(source, str):
        edge_list = tmp_path / "tiny.txt"
        edge_list.write_text(source)
        source = ("--edge-list", str(edge_list))
        row = f"file:{edge_list}{row}"
    code, out, err = run_cli(capsys, "graph", *source)
    assert code == 0, err
    assert out.strip().splitlines()[-1] == row


def test_graph_rejects_malformed_edge_list(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n2 2\n")
    code, _, err = run_cli(capsys, "graph", "--edge-list", str(bad))
    assert code == 2
    assert "error" in err


def test_graph_requires_a_source(capsys):
    code, _, err = run_cli(capsys, "graph")
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        ("graph",),
        ("spider", "--subset", "0,1,2", "--method", "grid"),
        ("protocol", "--subset", "0,1,2", "--p", "0.99"),
    ],
)
def test_family_and_edge_list_exclude_each_other(command, capsys):
    sources = ("--edge-list", str(GOLDEN / "broom.edges"), "--family", "grid", "--n", "5", "--k", "2")
    code, out, err = run_cli(capsys, *command, *sources)
    assert code == 2
    assert out == ""
    assert err == "error: --family and --edge-list exclude each other\n"


def test_spider_output_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "spider", "--family", "complete", "--n", "8",
        "--subset", "0,3,5", "--center", "0", "--max-spiders", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "spiders = 1" in lines
    assert lines[-2:] == ["0 3 0 3", "0 5 0 5"]


def test_spider_grid_method(capsys):
    code, out, _ = run_cli(
        capsys,
        "spider", "--family", "grid", "--n", "5", "--k", "2",
        "--subset", "0,12,24", "--center", "0", "--method", "grid",
    )
    assert code == 0
    assert "spiders = 2" in out
    code2, _, err = run_cli(
        capsys,
        "spider", "--family", "complete", "--n", "5",
        "--subset", "0,1", "--method", "grid",
    )
    assert code2 == 2


def test_ppt_scan_crossover_column(capsys):
    code, out, _ = run_cli(capsys, "ppt-scan", "--n", "53:56", "--p", "0.9", "--w", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[4:]]
    table = {int(r[0]): (float(r[3]), r[4], r[5]) for r in rows}
    assert table[54][1] == "0" and table[54][0] < 0  # NPT below the crossover
    assert table[55][1] == "1" and table[55][2] == "1"  # crossover flagged
    assert table[56][2] == "0"


def test_ppt_scan_flags_a_crossover_of_millions(capsys):
    code, out, _ = run_cli(
        capsys, "ppt-scan", "--n", "2441195:2441197", "--p", "0.99999", "--w", "1"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[4:]]
    assert {int(r[0]): (r[4], r[5]) for r in rows} == {
        2441195: ("0", "0"),
        2441196: ("1", "1"),
        2441197: ("1", "0"),
    }


def test_ppt_scan_flags_a_crossover_of_billions_at_once(capsys):
    p, n0 = 0.999999999, 42832822558
    nonnegative = _ppt_sign_test(p, 1)
    assert not nonnegative(n0 - 1) and nonnegative(n0)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "ppt-scan", "--n", f"{n0 - 1},{n0}", "--p", str(p), "--w", "1")
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[4:]]
    assert {int(r[0]): (r[4], r[5]) for r in rows} == {n0 - 1: ("0", "0"), n0: ("1", "1")}
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "scan, w, n", [("700,800", 1, 700), ("700,800", 1, 800), ("748:808", 4, 777)]
)
def test_ppt_scan_reports_an_underflowing_minimum(scan, w, n, capsys):
    code, out, _ = run_cli(capsys, "ppt-scan", "--n", scan, "--p", "0.9", "--w", str(w))
    assert code == 0
    rows = {int(r[0]): r for r in (line.split(",") for line in out.strip().splitlines()[4:])}
    text = rows[n][3]
    assert float(text) == 0.0 and text != "0"
    exact = exact_min_eigenvalue(n, 0.9, w)
    # 12 significant digits: the rounding alone may cost up to 5e-12
    assert abs(Decimal(text) - exact) <= Decimal("1e-11") * abs(exact)
    assert rows[n][4:] == ["1", "0"]


def test_ppt_scan_rejects_unit_visibility(capsys):
    code, _, err = run_cli(capsys, "ppt-scan", "--n", "2:5", "--p", "1.0")
    assert code == 2
    assert "p must be < 1" in err


def test_ppt_scan_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "ppt-scan", "--n", "2:5", "--p", "0.9", "--w", "3")
    assert code == 2


def test_protocol_report_perfect_visibility(capsys):
    code, out, _ = run_cli(
        capsys,
        "protocol", "--family", "complete", "--n", "20", "--subset", "0,1,2", "--p", "1.0",
    )
    assert code == 0
    assert "fidelity = 1" in out
    assert "necessary_condition_violated = 0" in out


def test_protocol_tree_carries_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "protocol", "--family", "tree", "--n", "10", "--seed", "2",
        "--subset", "0,1,2", "--p", "0.9",
    )
    assert code == 0
    assert "necessary_condition_violated = 1" in out


def test_protocol_sweep_is_monotone_and_deterministic(tmp_path, capsys):
    args = [
        "protocol", "--family", "complete", "--n", "18", "--subset", "0,1,2",
        "--p", "0.90,0.93,0.96,0.99",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = [
        line.split(",")
        for line in first.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("graph_id")
    ]
    fidelities = [float(row[-1]) for row in rows]
    assert fidelities == sorted(fidelities)
    assert rows[0][0] == "complete-18"


def _fields(out: str, key: str) -> list[str]:
    return [line.split(" = ", 1)[1] for line in out.splitlines() if line.startswith(key + " = ")]


def test_protocol_beyond_twelve_parties(capsys):
    for m in (14, 20):
        subset = ",".join(str(v) for v in range(m))
        code, out, err = run_cli(
            capsys,
            "protocol", "--family", "complete", "--n", "40", "--subset", subset, "--p", "0.99",
        )
        assert code == 0, err
        distilled = [float(v) for v in _fields(out, "distilled_visibility")]
        assert len(distilled) == m - 1
        coherence = population = 1.0
        for p in distilled:
            coherence *= p
            population *= (1.0 + p) / 2.0
        (printed,) = _fields(out, "fidelity")
        assert abs(float(printed) - (0.5 * coherence + 0.5 * population)) <= 1e-9


def test_protocol_sweep_builds_the_graph_side_once(monkeypatch, capsys):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(isonet.spiders, "_check_subset")
    count(isonet.protocol, "edge_connectivity")
    count(isonet.spiders, "_greedy_spiders")
    for module in (graphs, isonet.protocol, isonet.spiders):
        count(module, "_bfs_distances")
    count(graphs.GridGraphSpec, "to_graph")
    jobs = (
        ("protocol", "complete", "30", "--p", "0.9,0.95,0.99"),  # one plan serves every p
        ("protocol", "tree", "30", "--seed", "0", "--p", "0.99"),  # no spiders: the fallback
        ("spider", "complete", "30", "--max-spiders", "2"),  # the same plan as protocol's
    )
    once = {"_check_subset": 1, "edge_connectivity": 1, "_greedy_spiders": 1, "_bfs_distances": 1}
    for command, family, n, *rest in jobs:
        calls.clear()
        code, out, err = run_cli(
            capsys, command, "--family", family, "--n", n, "--subset", "0,1,2", *rest
        )
        assert code == 0, err
        assert calls == once
        if family == "tree":
            assert "spiders_found = 0" in out  # the tree job fell back
    assert "spiders = 2" in out.splitlines()
    calls.clear()
    code, _, err = run_cli(
        capsys,
        "spider", "--family", "grid", "--n", "7", "--k", "2", "--subset", "0,24,48",
        "--method", "grid",
    )
    assert code == 0, err
    assert calls["to_graph"] == 1


@pytest.mark.parametrize("extra", [(), ("--uniform-legs",)])
def test_protocol_sweep_rows_match_single_runs(extra, capsys):
    base = ("protocol", "--family", "complete", "--n", "30", "--subset", "0,1,2", *extra)
    p_values = ["0.9", "0.95", "0.99"]
    code, out, err = run_cli(capsys, *base, "--p", ",".join(p_values))
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[4:]]
    assert [row[3] for row in rows] == p_values
    for p, row in zip(p_values, rows):
        code, single, err = run_cli(capsys, *base, "--p", p)
        assert code == 0, err
        keys = ("spiders_found", "p_prime_min", "fidelity")
        assert row[7:] == [_fields(single, key)[0] for key in keys]


def test_protocol_sparse_cycle_saturates_threshold(capsys):
    base = [
        "protocol", "--family", "cycle", "--n", "420", "--subset", "0,100", "--p", "0.99",
    ]
    for extra in ([], ["--uniform-legs"]):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 0, err
        assert err == ""
        assert _fields(out, "p0") == ["1"]
        assert _fields(out, "leg_visibilities") == ["0,0"]
        assert _fields(out, "fidelity") == ["0.25"]  # 1/2 * 0 + 1/2 * (1 + 0)/2


def test_spider_default_center_is_max_degree(capsys):
    code, out, _ = run_cli(
        capsys, "spider", "--family", "star", "--n", "6", "--subset", "4,2,0"
    )
    assert code == 0
    assert "center = 0" in out.splitlines()


@pytest.mark.parametrize(
    "graph",
    [("path", "--n", "9"), ("tree", "--n", "30", "--seed", "4"), ("complete", "--n", "51")],
)
def test_spider_guarantee_needs_minimum_degree_above_one(graph, capsys):
    family, *rest = graph
    code, out, err = run_cli(capsys, "spider", "--family", family, *rest, "--subset", "0,1")
    assert code == 0, err
    (line,) = [line for line in out.splitlines() if line.startswith("guaranteed_spiders")]
    if family == "complete":
        # c = 50/51, lambda = 50: floor(min(50, 2500/51) / 10)
        assert line == "guaranteed_spiders = 4"
    else:
        assert line == "guaranteed_spiders = n/a (premise violated: minimum degree must exceed 1)"


@pytest.mark.parametrize(
    "source,extra,message",
    [
        (("--family", "complete", "--n", "5"), (), "--method grid needs --family grid"),
        (
            ("--edge-list", str(Path(__file__).resolve().parent / "golden" / "broom.edges")),
            (),
            "--method grid needs --family grid",
        ),
        (
            ("--family", "grid", "--n", "5", "--k", "2"),
            ("--max-spiders", "1"),
            "--max-spiders needs --method greedy",
        ),
    ],
    ids=["family", "edge-list", "max-spiders"],
)
def test_spider_refuses_flag_combinations_before_any_graph(
    source, extra, message, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was loaded or built")

    monkeypatch.setattr(isonet.cli, "generate", refuse)
    monkeypatch.setattr(isonet.cli, "read_edge_list", refuse)
    code, out, err = run_cli(
        capsys, "spider", *source, "--subset", "0,24", "--method", "grid", *extra
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_protocol_subset_validation(capsys):
    code, _, err = run_cli(
        capsys,
        "protocol", "--family", "complete", "--n", "6", "--subset", "0,9", "--p", "0.9",
    )
    assert code == 2


def test_verify_filter_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "menger-duality")
    assert code == 0
    assert "[PASS] menger-duality" in out
    assert "1/1 checks passed" in out


def test_verify_inject_fault_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "noise-overlap", "--inject-fault"
    )
    assert code == 1
    assert "[FAIL] noise-overlap-forms" in out
    assert "closed" in out  # the counterexample is printed


def test_verify_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--filter", "nonesuch")
    assert code == 2


def test_headers_record_seed_and_config(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--family", "tree", "--n", "7", "--seed", "11"
    )
    assert code == 0
    head = out.splitlines()
    assert head[1] == "# seed: 11"
    assert "family=tree" in head[2] and "n=7" in head[2]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_rejects_tolerance_scale(tol, capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "menger-duality", "--tol", tol)
    assert code == 2
    assert "tolerance scale" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("protocol", "--family", "complete", "--n", "10", "--subset", "0,1", "--p", ","),
        ("ppt-scan", "--n", "5:6", "--p", ","),
        ("ppt-scan", "--n", ",", "--p", "0.9"),
        ("spider", "--family", "complete", "--n", "8", "--subset", "0,3", "--max-spiders", "-2"),
        (
            "spider", "--family", "grid", "--n", "5", "--k", "2", "--subset", "0,24",
            "--method", "grid", "--max-spiders", "1",
        ),
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_integers_too_large_for_a_machine_word_exit_2(capsys):
    # a cut of 10^400 parties cannot be built: OverflowError, reported as a usage error
    huge = 10**400
    code, out, err = run_cli(capsys, "ppt-scan", "--n", str(huge + 1), "--p", "0.9", "--w", str(huge))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err



GOLDEN = Path(__file__).resolve().parent / "golden"

# out-of-range values: negative, above graphs.MAX_SIZE (twice over, so that
# no lo:hi span from a small lo stays under it), huge, nan, inf, not a number
_OUT_OF_RANGE = st.one_of(
    st.integers(-(10**400), -1),
    st.integers(2 * graphs.MAX_SIZE, 10**400),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x"]),
)


@st.composite
def _argv(draw, command):
    """One argv for the command.  Half of them take every value from its
    legal range, with graphs of at most 40 vertices, so that the command
    runs to its end; the other half take each value from that range or out
    of it, and may leave out any option."""
    wild = draw(st.booleans())

    def value(legal):
        return str(draw(st.one_of(legal, _OUT_OF_RANGE) if wild else legal))

    def option(flag, legal, required=False):
        if (wild or not required) and draw(st.booleans()):
            return []
        return [f"{flag}={value(legal)}"]

    def values(legal, least=1):
        count = draw(st.integers(0 if wild else least, 5))
        return ",".join(value(legal) for _ in range(count))

    def switch(flag):
        return [flag] if draw(st.booleans()) else []

    argv = [command]
    if command in ("graph", "spider", "protocol"):
        wrong = ["x", None] if wild else []
        family = draw(st.sampled_from([*graphs.GRAPH_FAMILIES, "file", *wrong]))
        if family == "file":
            wrong = ["oversize-header", "x"] if wild else []
            name = draw(st.sampled_from(["broom", "disconnected", *wrong]))
            argv.append(f"--edge-list={GOLDEN / name}.edges")
        elif family is not None:
            argv.append(f"--family={family}")
            argv += option("--n", st.integers(0, 6 if family == "grid" else 40), required=True)
            argv += option("--k", st.integers(0, 2), required=family == "grid")
            argv += option("--seed", st.integers(0, 99))
    if command in ("spider", "protocol"):
        argv += [f"--subset={values(st.integers(0, 12), least=2)}"]
        argv += option("--center", st.integers(0, 12))
    if command == "spider":
        argv += option("--max-spiders", st.integers(0, 5))
        argv += option("--method", st.sampled_from(["greedy", "grid"]))
    if command == "protocol":
        argv += [f"--p={values(st.floats(0.0, 1.0))}", *switch("--uniform-legs")]
    if command == "ppt-scan":
        span = f"{value(st.integers(2, 60))}:{value(st.integers(2, 60))}"
        argv += [f"--n={span if draw(st.booleans()) else values(st.integers(2, 2000))}"]
        argv += [f"--p={values(st.floats(0.0, 1.0))}", *option("--w", st.integers(1, 8))]
        argv += option("--seed", st.integers(0, 99))
    if command == "verify":
        # never the suite itself: a filter that matches no check, or a
        # tolerance scale that is refused before any check runs
        tags = {tag for tag, _ in verification.CHECKS.values()}
        no_match = st.text(min_size=1, max_size=12).filter(
            lambda f: f not in tags and not any(f in name for name in verification.CHECKS)
        )
        if draw(st.booleans()):
            argv += [f"--filter={draw(no_match)}", *option("--tol", st.floats(1e-3, 1e3))]
        else:
            bad_tol = st.one_of(st.floats(max_value=0.0), st.sampled_from(["nan", "inf", "x"]))
            argv += [*option("--filter", st.text(max_size=12)), f"--tol={draw(bad_tol)}"]
        argv += [*option("--seed", st.integers(0, 99)), *switch("--inject-fault")]
    return argv


@pytest.mark.parametrize("command", ["graph", "spider", "protocol", "ppt-scan", "verify"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(command, data):
    argv = data.draw(_argv(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
