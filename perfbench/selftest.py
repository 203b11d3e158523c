"""Self-test of the benchmark on miniature inputs (about a minute).

    python3 perfbench/selftest.py

For every workload it runs the operation once at the ``mini`` scale and
requires every check to hold; then, for every check, it breaks a copy of the
outputs the way that check must catch and requires that check to fail.
Finally it runs each workload traced twice, each in a fresh process, and
requires every count metric to be identical.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"
SEED = 3

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def check_corruptions(name: str) -> list[str]:
    problems = []
    wl = workloads.make(name, "mini", WORK / name)
    try:
        inputs = wl.setup(SEED)
        outputs = wl.run(inputs)
        for check, msg in wl.checks(inputs, outputs).items():
            if msg is not None:
                problems.append(f"{name}: {check} fails on good outputs: {msg}")
        corruptions = wl.corruptions()
        unmatched = set(wl.checks(inputs, outputs)) ^ set(corruptions)
        if unmatched:
            problems.append(f"{name}: checks without a corruption or vice versa: {sorted(unmatched)}")
        for check, corrupt in corruptions.items():
            out_copy = outputs
            if isinstance(outputs, Path):
                out_copy = WORK / f"{name}-{check}"
                shutil.copytree(outputs, out_copy)
            bad_inputs, bad_outputs = corrupt(inputs, out_copy)
            if wl.checks(bad_inputs, bad_outputs).get(check) is None:
                problems.append(f"{name}: {check} passes on corrupted outputs")
            else:
                print(f"{name}: {check} catches its corruption")
    finally:
        wl.cleanup()
    return problems


def traced_counts(name: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", "0", "--trace", "1", "--scale", "mini"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    problems = []
    try:
        for name in workloads.WORKLOADS:
            problems += check_corruptions(name)
            first, second = traced_counts(name), traced_counts(name)
            if first != second:
                diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
                problems.append(f"{name}: traced counts differ between runs: {diff}")
            print(f"{name}: traced counts repeat: {first}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
