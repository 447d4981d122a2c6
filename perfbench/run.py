#!/usr/bin/env python3
"""canoncover benchmark: real CLI jobs, run in-process, one at a time.

    python3 perfbench/run.py --workload coverage-sum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a canoncover checkout; the program is imported from
its `src/`. Inputs come from `--seed`. Jobs run back to back through
`canoncover.cli.main(argv)` (a closed loop with one client) for
`--seconds`, and every output is checked against `oracles.py`. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which are the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before anything imports numpy: single-threaded BLAS, and the
# program's own thread count comes only from the explicit `--threads 1`.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("CANONCOVER_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # job_s_tail is the slowest time with this many slower ones
PROBE_TIMEOUT_S = 120


def import_cli():
    """canoncover.cli from this checkout's src/, or exit 1."""
    if not (SRC / "canoncover" / "__init__.py").is_file():
        raise SystemExit(f"error: no canoncover package under {SRC}")
    sys.path.insert(0, str(SRC))
    from canoncover import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported canoncover from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv) -> tuple:
    """One job: (exit status, stdout, stderr). An exception is a failed
    job, not a crash of the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # reported as this job's failure
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


class Checker:
    """Verdict for each job: exit 0, the same output as the run's first
    job, and that output accepted by the workload's reference check
    (run once per distinct output)."""

    def __init__(self, wl, work: str, expected):
        self.wl, self.work, self.expected = wl, work, expected
        self.first = None
        self.verdicts: dict[str, str | None] = {}

    def __call__(self, rc, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-300:]}"
        key = self.wl.output_key(self.work, stdout)
        if self.first is None:
            self.first = key
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.wl.verify(self.work, stdout, self.expected)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                self.verdicts[key] = f"unreadable output: {exc!r}"
        if key != self.first:
            return "output differs from the first job's"
        return self.verdicts[key]


def measure(job, check, seconds: float, min_jobs: int = 1) -> tuple[list, list]:
    """Run `job(i)` back to back for `seconds`; returns job times and
    failure messages."""
    times, failures = [], []
    start = time.perf_counter()
    while len(times) < min_jobs or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rc, out, err = job(len(times))
        times.append(time.perf_counter() - t0)
        msg = check(rc, out, err)
        if msg:
            failures.append(msg)
    return times, failures


def tail(times: list) -> tuple[float, float]:
    """(time, percentile) of the slowest job with TAIL_BEYOND slower ones;
    the slowest job when the run is too short to have one."""
    ordered = sorted(times)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "CANONCOVER_THREADS": os.environ.get("CANONCOVER_THREADS", "unset"),
        "cli_threads": 1,
    }


def setup_probe(args) -> int:
    """One cold set-up in a fresh process: import canoncover.cli, write
    the inputs, run the first job. Prints the elapsed seconds."""
    t0 = time.perf_counter()
    cli = import_cli()
    t1 = time.perf_counter()
    import workloads  # the harness's own import is not set-up time
    t2 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    wl.generate(cli, args.dir, args.seed)
    rc, _, err = call(cli, wl.argv(args.dir))
    elapsed = (t1 - t0) + (time.perf_counter() - t2)
    print(json.dumps({"setup_s": elapsed, "rc": rc if isinstance(rc, int) else str(rc)}))
    if rc != 0:
        print(err, file=sys.stderr)
    return 0 if rc == 0 else 1


def cold_setups(args, work: Path) -> tuple[list[float], Path]:
    """SETUP_REPEATS cold set-ups, each in its own process and directory."""
    times = []
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--dir", str(d)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stdout}{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times, work / "setup0"


def run_plain(args, cli, wl, data: Path, check) -> tuple[dict, int, list]:
    argv = wl.argv(str(data))
    times, failures = measure(lambda i: call(cli, argv), check, args.seconds)
    value, pct = tail(times)
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (value, "s"),
        "items_per_s": (wl.units_per_job * len(times) / sum(times), "items/s"),
    }
    print(f"jobs {len(times)}; job_s_tail is p{pct:.1f}; unit of items_per_s: {wl.unit}")
    return metrics, len(times), failures


def run_traced(args, cli, wl, data: Path, check) -> tuple[dict, int, list]:
    import tracer as tracing

    tracer = tracing.Tracer()
    argv = wl.argv(str(data))
    plain, traced = [], []

    def job(i):
        # Alternate so that drift hits both sides alike.
        if i % 2 == 0:
            t0 = time.perf_counter()
            result = call(cli, argv)
            plain.append(time.perf_counter() - t0)
            return result
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = tracer.run_job(i, lambda: call(cli, argv))
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        return result

    times, failures = measure(job, check, args.seconds, min_jobs=2)
    metrics = tracing.layer_metrics(tracer, len(traced), wl.pairs)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.absent_spans"] = (len(tracer.absent), "count")
    spans = HERE / ".out" / f"spans-{wl.name}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    tracer.write(str(spans))
    print(f"jobs {len(times)} ({len(traced)} traced); absent spans: "
          f"{', '.join(tracer.absent) or 'none'}; spans in {spans.relative_to(ROOT)}")
    return metrics, len(times), failures


def run(args) -> int:
    if args.workload is None:
        raise SystemExit("error: --workload is required")
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            setups, data = cold_setups(args, work)
        cli = import_cli()
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        if args.trace:
            data = work
            wl.generate(cli, str(data), args.seed)
        check = Checker(wl, str(data), wl.reference(str(data)))
        # Warm-up: lazy imports and caches settle before timing. It is
        # checked and counted like every other job.
        warm = check(*call(cli, wl.argv(str(data))))
        runner = run_traced if args.trace else run_plain
        metrics, jobs, failures = runner(args, cli, wl, data, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if warm:
        failures.insert(0, warm)
    attempted = jobs + 1
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_frac {len(failures) / attempted!r} ratio")
    for msg in failures[:5]:
        print(f"failure: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the oracles and that wrong outputs count as failures")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main(import_cli())
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
