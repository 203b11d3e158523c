"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --all --seed 1

One workload run sets up its inputs several times (``setup_s`` is the median),
runs its operation in whole rounds until the rounds have taken ``--seconds``
(one round at least; ``op_s`` is the median), checks every round's outputs
outside the timed rounds, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``.perfbench/traces/<workload>-seed<seed>.json``.

``--all`` runs every workload untraced and traced, each in a fresh process,
and prints every metric by name with its unit, and the tracing overhead.

gwealth is imported from ``src/`` of the checkout that holds this file; the
run fails before printing a result when it is not there.  BLAS runs on one
thread: the thread variables are fixed here before numpy is imported.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("repro", "fit", "montecarlo")


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "gwealth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gwealth sources under {src}")
    sys.path.insert(0, str(src))
    import gwealth

    if Path(gwealth.__file__).resolve().parent != (src / "gwealth").resolve():
        raise SystemExit(f"perfbench: imported gwealth from {gwealth.__file__}, not {src}")
    sys.path.insert(0, str(HERE))


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    import workloads
    from spans import Tracer, layer_metrics

    wl = workloads.make(name, scale, WORK / "runs" / f"{name}-{os.getpid()}")
    tracer = Tracer() if trace else None
    setup_times, op_times, attempted, failed, errors = [], [], 0, 0, []
    peak_mb = None
    try:
        for _ in range(wl.shape.setup_repeats):
            t0 = time.perf_counter()
            inputs = wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        while attempted == 0 or sum(op_times) < seconds:
            attempted += 1
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                outputs = wl.run(inputs)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"perfbench: {name} operation failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                op_times.append(time.perf_counter() - t0)
                if tracer:
                    tracer.uninstall()
            if peak_mb is None:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for check, msg in wl.checks(inputs, outputs).items():
                if msg is not None:
                    errors.append(f"{check}: {msg}")
            del outputs
    finally:
        wl.cleanup()

    for err in errors:
        print(f"perfbench: {name} check failed: {err}", file=sys.stderr)
    if tracer:
        op_s = statistics.median(op_times)
        tracer.write(WORK / "traces" / f"{name}-seed{seed}.json", op_s=op_s)
        metrics = layer_metrics(tracer, attempted)
    else:
        metrics = {
            "op_s": (statistics.median(op_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_mb if peak_mb is not None else 0.0, "MB"),
        }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--scale", scale]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
        for trace, res in sorted(results.items()):
            print(f"== {name} ({'traced' if trace else 'untraced'}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
            status |= 0 if res["correct"] and not res["failed"] else 1
        if 0 in results and 1 in results:
            traced = json.loads((WORK / "traces" / f"{name}-seed{seed}.json").read_text())
            untraced = results[0]["metrics"]["op_s"]["value"]
            print(f"  tracing overhead: {traced['op_s'] - untraced:+.3f} s "
                  f"({traced['op_s'] / untraced - 1.0:+.1%} of untraced op_s)")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0,
                   help="run whole operations until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("reference", "mini"), default="reference",
                   help="input sizes: the benchmark's own, or the self-test's miniature")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    _import_program()
    if args.all:
        return run_all(args.seed, args.seconds, args.scale)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
