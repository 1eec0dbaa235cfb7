"""One fresh worker process of a benchmark run.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
imports isonet.cli, runs the workload's warm-up jobs (the end of those is
the end of set-up), and in "run" mode then drives isonet.cli.main(argv)
in-process as a closed loop: one client, jobs generated on this thread,
each sent only after the previous one returned.  The last line of stdout
is a JSON object with what the parent needs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

import checks
import workloads


def _parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--trace-file")
    return parser.parse_args(argv)


class Client:
    """The closed loop's one client: runs jobs through isonet.cli.main and
    checks their output."""

    def __init__(self, cli):
        self.cli = cli
        self.checker = checks.Checker()
        self.records = []
        self.inject_fault = False
        self.corrupted = set()  # commands whose first output was corrupted

    def run(self, job) -> dict:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                error = f"raised {exc!r}"
            seconds = perf_counter() - start
        text = out.getvalue()
        if self.inject_fault and job.command not in self.corrupted:
            self.corrupted.add(job.command)
            text = checks.corrupt(job, text)
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-200:]}"
        if error is None:
            try:
                self.checker.check(job, text)
            except checks.CheckError as exc:
                error = f"check failed: {exc}"
        record = {
            "argv": list(job.argv),
            "seconds": seconds,
            "ok": error is None,
            "error": error,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        self.records.append(record)
        return record


def _blas():
    """BLAS library, its thread count where the library tells, numpy version."""
    import ctypes

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    threads = None
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
    except OSError:
        pass
    return name, threads, numpy.__version__


def _job_time_metrics(records) -> dict:
    times = sorted(r["seconds"] for r in records)
    busy = sum(times)
    count = len(times)
    tail_index = max(0, count - 11)  # ten jobs lie beyond the tail value
    return {
        "busy_s": busy,
        "jobs": count,
        "correct_jobs": sum(r["ok"] for r in records),
        "jobs_per_s": sum(r["ok"] for r in records) / busy,
        "job_s_p50": statistics.median(times),
        "job_s_tail": times[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / count,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    import isonet.cli as cli

    client = Client(cli)
    for job in workloads.WARMUPS[args.workload]:
        client.run(job)
    setup_s = time.monotonic() - args.spawned_at
    warmups, client.records = client.records, []
    client.inject_fault = args.inject_fault
    result = {"setup_s": setup_s, "warmups": warmups}
    if args.mode == "run":
        index = 0
        busy = 0.0
        while busy < args.seconds:  # whole rounds, so every run has the same mix
            for job in workloads.round_jobs(args.workload, args.seed, index):
                busy += client.run(job)["seconds"]
            index += 1
        result["rounds"] = index
        result.update(_job_time_metrics(client.records))
    elif args.mode == "trace":
        import tracing

        rounds = workloads.trace_rounds(args.seconds)
        jobs = [j for i in range(rounds) for j in workloads.round_jobs(args.workload, args.seed, i)]
        tracer = tracing.Tracer()
        untraced, traced = [], []
        # each job runs untraced and traced, in alternating order, so that
        # drift and first-run effects cancel in the overhead ratio
        for number, job in enumerate(jobs):
            tracer.job = number
            for traced_run in (False, True) if number % 2 == 0 else (True, False):
                if traced_run:
                    with tracer.installed():
                        traced.append(client.run(job))
                else:
                    untraced.append(client.run(job))
        per_layer = tracing.summarize(tracer)
        untraced_rate = _job_time_metrics(untraced)["jobs_per_s"]
        traced_metrics = _job_time_metrics(traced)
        per_layer["trace.overhead_ratio"] = untraced_rate / traced_metrics["jobs_per_s"]
        result.update(rounds=rounds, traced=traced_metrics, per_layer=per_layer,
                      wrapped_functions=tracer.wrapped_functions)
        if args.trace_file:
            tracer.write(args.trace_file)
    blas, blas_threads, numpy_version = _blas()
    result.update(
        records=client.records,
        faults_injected=len(client.corrupted),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "python": sys.version.split()[0],
            "numpy": numpy_version,
            "blas": blas,
            "blas_threads": blas_threads,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
        },
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
