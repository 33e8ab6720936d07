"""Run the end-to-end benchmark.

From the root of a checkout::

    python3 benchmarks/e2e/run.py --workload fib-stress --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out results.json    # all four workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace               # traced; writes trace.json

``--workload`` measures one workload in this interpreter.  Without it,
each workload runs in a fresh interpreter, one after another.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics.  The lines before it print
every metric by name with its unit, plus ungated information (sample
counts, the overhead ratio, the cube hash).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no repro sources under {ROOT / 'src'}")
    # The package directory replaces the script directory on the path,
    # so e2e/trace.py never shadows the standard library's trace module.
    sys.path[0] = str(ROOT / "benchmarks")
    sys.path.insert(1, str(ROOT / "src"))

from e2e.trace import LAYER_UNITS  # noqa: E402
from e2e.workloads import WORKLOADS, Measurement, Tally, measure  # noqa: E402

#: name -> unit of every end-to-end metric, in ``BENCHMARK.json`` order
E2E_UNITS = {
    "tasks_per_s": "tasks/s",
    "bare_tasks_per_s": "tasks/s",
    "op_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 3
#: scratch stores, recordings and gateway homes live under the checkout
TMP_DIR = ROOT / ".bench_tmp"


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` of this process (and of its reaped children) in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def probe_setup(name: str, seed: int) -> float:
    """Interpreter start, imports, warm-up: seconds until the warm-up ends."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


def scratch_dir() -> str:
    TMP_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=TMP_DIR)


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_DIR.rmdir()
    except OSError:  # still in use or not empty
        pass


def run_one(workload, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; the result carries every metric with its unit."""
    tmp_root = scratch_dir()
    try:
        outcome = measure(workload, seed, seconds, tmp_root, trace)
    finally:
        remove_scratch(tmp_root)
    metrics, info = outcome["metrics"], outcome["info"]
    if not trace:
        # Read before the probes run: they are children too.
        metrics["peak_rss_mb"] = peak_rss_mb(workload.forks)
        setups = [probe_setup(workload.name, seed) for _ in range(probes)]
        metrics["setup_s"] = statistics.median(setups)
        info["setup_samples"] = setups
    units = LAYER_UNITS if trace else E2E_UNITS
    tally: Tally = outcome["tally"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
        "info": info,
        "problems": tally.problems,
        "trace": outcome.get("trace"),
    }


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": model,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def print_result(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for key, value in result["info"].items():
        print(f"  [info] {key} = {value}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def run_all(args) -> tuple:
    """Each workload in a fresh interpreter, one after another."""
    results, traces = {}, {}
    for name in WORKLOADS:
        scratch = scratch_dir()
        try:
            out = os.path.join(scratch, "result.json")
            trace_file = os.path.join(scratch, "trace.json")
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", out, "--trace-file", trace_file],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=600,
            )
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if not os.path.exists(out):  # crashed before writing a result
                sys.exit(f"run.py: workload {name} exited with {done.returncode}")
            with open(out, encoding="utf-8") as handle:
                results[name] = json.load(handle)["workloads"][name]
            if args.trace:
                with open(trace_file, encoding="utf-8") as handle:
                    traces[name] = json.load(handle)["workloads"][name]
        finally:
            remove_scratch(scratch)
    return results, traces


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        default_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write the full results (with info) as JSON here")
    parser.add_argument("--trace-file", default="trace.json",
                        help="where a traced run writes its spans (default: trace.json)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        scratch = scratch_dir()
        try:
            WORKLOADS[args.workload].warm_up(Measurement(args.seed, scratch, Tally()))
            print(repr(time.time()), flush=True)
        finally:
            remove_scratch(scratch)
        return 0

    machine = machine_info() if args.out else None
    if args.workload is None:
        results, traces = run_all(args)
    else:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        traces = {args.workload: {"metrics": result["metrics"], **result.pop("trace")}} \
            if args.trace else {}
        results = {args.workload: result}
        print_result(args.workload, result)

    if args.trace:
        with open(args.trace_file, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "workloads": traces}, handle)
    if args.out:
        for result in results.values():
            result.pop("trace", None)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "machine": machine,
                    "workloads": results,
                },
                handle,
                indent=1,
            )

    correct = all(r["correct"] for r in results.values())
    if args.workload is None:
        summary = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {name: r["metrics"] for name, r in results.items()},
        }
    else:
        result = results[args.workload]
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
