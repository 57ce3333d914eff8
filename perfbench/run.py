"""triblock benchmark: one workload, end to end or traced layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh child interpreter, one child at a time, so set-up
time and peak memory are what a ``triblock`` invocation pays and no cache
carries over between passes.  Passes repeat until S seconds of passes have
run (at least one).  With ``--trace 0`` the last line of standard output is
the end-to-end result; with ``--trace 1`` traced and untraced passes
alternate and the last line holds the per-layer metrics.  The line before it
is a JSON record of the run: caps, sample counts, the tail percentile used,
the largest integer reached and the environment.  The same record, with
every operation's latency, goes to .perfbench/run-NAME.json, and a traced
run leaves the spans of its last traced pass in .perfbench/spans-NAME.jsonl.
A failed check makes the run exit 1; missing sources make it exit 2 before
printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up-only children per run, on top of the set-up every pass child pays.
SETUP_SAMPLES = 5
# Whole-run deadline, below the 180 s a run may take.
DEADLINE_S = 170
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ChildError(RuntimeError):
    pass


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def run_child(mode: str, workload: str, trace: int, inputs: Path, spans_path: Path) -> tuple[float, str]:
    """Start one child and wait for it; returns (set-up seconds, output after 'ready')."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(trace), str(inputs), str(spans_path)]
    started = perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        first = child.stdout.readline()
        setup = perf_counter() - started
        rest = child.stdout.read()
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise ChildError(f"{mode} child for {workload} exited {code}")
    return setup, rest


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest level with at least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = ceil(level / 100 * n)
        if n - rank >= 10:
            return level, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def second_slowest(values) -> float:
    """The second largest value, or the only one."""
    return sorted(values)[-2] if len(values) > 1 else values[0]


def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "ru_maxrss_unit": "KiB" if sys.platform.startswith("linux") else "bytes",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triblock" / "__init__.py").is_file():
        print(f"error: no triblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, out_dir, workdir)
    except (ChildError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, out_dir: Path, workdir: Path) -> int:
    name = args.workload
    caps = workloads.CAPS[name]
    spans_path = out_dir / f"spans-{name}.jsonl"

    # The first child warms the caches (and writes bytecode where allowed) and
    # dumps the catalog; it is not timed.
    _, dump = run_child("catalog", name, 0, workdir / "none", spans_path)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_child("setup", name, 0, workdir / "none", spans_path)[0])
    inputs = workloads.generate(name, args.seed, caps, json.loads(dump), workdir)
    traced_only = inputs.get("traced_only", [])
    if args.trace and traced_only:
        inputs = dict(inputs, ops=inputs["ops"] + traced_only)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")

    def run_pass(trace: int) -> dict:
        setup, out = run_child("pass", name, trace, inputs_path, spans_path)
        setups.append(setup)
        return json.loads(out)

    # A traced run alternates untraced and traced passes, so that both time
    # the same work.
    passes, traced = [], []
    started = perf_counter()
    while not passes or perf_counter() - started < args.seconds:
        passes.append(run_pass(0))
        if args.trace:
            traced.append(run_pass(1))

    results = passes + traced
    attempted = sum(r["attempted"] for r in results)
    failures = [msg for r in results for msg in r["failures"].values()]
    for msg in failures[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)

    # On a shared 2-vCPU Linux VM the CPU speed swings by up to 2x for
    # seconds at a time, and uncontended moments are the rare ones.  A slow
    # repeat samples the contended speed in nearly every run, so it repeats
    # from run to run where a median over passes flips between the two
    # speeds; the second slowest rather than the slowest, so that one pass
    # hit by a stall does not count.  Each operation therefore counts with
    # its second slowest latency and the run with its second slowest pass;
    # set-up, which every child pays, is taken at the upper quartile of its
    # samples.
    op_latency = [second_slowest(column) for column in zip(*(r["op_s"] for r in passes))]
    wall = second_slowest([r["wall_s"] for r in passes])
    tail_level, tail_value = tail(op_latency)
    detail = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "caps": caps,
        "largest_integer_digits": max(r["largest_digits"] for r in results),
        "passes": len(passes),
        "traced_passes": len(traced),
        "traced_only_ops": 0 if args.trace else len(traced_only),
        "ops": len(op_latency),
        "tail_percentile": tail_level,
        "tail_ops_beyond": len(op_latency) - ceil(tail_level / 100 * len(op_latency)),
        "setup_samples": len(setups),
        "pass_wall_s": [r["wall_s"] for r in passes],
        "setup_s": setups,
        "fail_ratio": len(failures) / attempted,
        "environment": environment(),
    }
    if args.trace:
        traced_wall = statistics.fmean(r["wall_s"] for r in traced)
        metrics = {}
        for metric, unit, *_ in spans.LAYER_METRICS:
            if metric == "trace.overhead_ratio":
                value = traced_wall / statistics.fmean(detail["pass_wall_s"])
            else:
                value = statistics.median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": unit}
        detail["layer_wait_s"] = 0.0
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "wall_s": wall,
            "op_p50_ms": statistics.median(op_latency) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "peak_rss_mb": max(r["rss_kib"] for r in passes) / 1024,
            "setup_s": statistics.quantiles(setups, n=4)[2],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = dict(detail, pass_op_s=[r["op_s"] for r in passes])
    (out_dir / f"run-{name}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
