"""isonet benchmark: drives the CLI in-process and reports end-to-end and
per-layer metrics for one workload.

    python3 perfbench/run.py --workload network-scale --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
With --trace 0 it spawns three fresh worker processes one after another.
Each times its own set-up (interpreter start, import isonet.cli, one
warm-up job per command); the last one then runs whole rounds of the
workload for --seconds of job time.  With --trace 1 a single worker runs a
fixed set of rounds, each job once untraced and once with every layer call
traced, and reports the per-layer metrics.  Every job's output is checked.  The full
record, with the environment and a sha256 of every job's stdout, goes to
.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json; the last line of
stdout is the JSON summary.  --inject-fault corrupts the first output of
each command before it is checked; the run then exits 0 only if the
checker counted every corrupted job as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _spawn(args, mode: str, deadline: float, trace_file: Path | None = None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [
        sys.executable, "-B", str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if args.inject_fault:
        argv.append("--inject-fault")
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isonet" / "cli.py").is_file():
        print(f"error: no isonet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        if args.trace:
            trace_file = OUT_DIR / f"TRACE_{label}.jsonl"
            worker = _spawn(args, "trace", deadline, trace_file)
            setups = [worker["setup_s"]]
            values = worker["per_layer"]
        else:
            probes = [_spawn(args, "setup", deadline) for _ in range(SETUP_PROBES - 1)]
            worker = _spawn(args, "run", deadline)
            setups = [p["setup_s"] for p in probes] + [worker["setup_s"]]
            values = dict(worker, setup_s=statistics.median(setups))
        metrics = {name: values[name] for name in units}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = worker["warmups"] + worker["records"]
    failed = [r for r in records if not r["ok"]]
    summary = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = dict(worker["env"], git_commit=_git_commit(), workload=args.workload, seed=args.seed)
    detail = {
        "summary": summary,
        "env": env,
        "seconds": args.seconds,
        "setup_probes_s": setups,
        "fail_rate": len(failed) / len(records),
        **{k: v for k, v in worker.items() if k not in ("env", "setup_s")},
    }
    (OUT_DIR / f"BENCH_{label}.json").write_text(json.dumps(detail, indent=1), encoding="ascii")

    print("env: " + json.dumps(env))
    if args.trace:
        print(f"traced {worker['traced']['jobs']} jobs in {worker['rounds']} rounds")
    else:
        print(
            f"{worker['jobs']} jobs in {worker['rounds']} rounds, {worker['busy_s']:.2f} s busy; "
            f"job_s_tail is the p{worker['tail_percentile']:.1f} (10 jobs beyond it); "
            f"fail_rate {detail['fail_rate']:.4f}"
        )
    for record in failed[:5]:
        print(f"FAILED {' '.join(record['argv'])}: {record['error']}")
    print(json.dumps(summary))
    if args.inject_fault:
        return 0 if len(failed) == worker["faults_injected"] > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
