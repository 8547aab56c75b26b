"""Check that traced call counts repeat exactly, and record them as a baseline.

    python3 perfbench/counts.py

Runs the traced benchmark twice per workload, on two seeds, and compares
the calls of every wrapped function op by op.  Counts must not depend on
the seed, the run or the op.
Writes ``baseline_counts.json`` next to this file; a later change that
claims a count-based gain compares against it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1)
WORKLOADS = ("stream", "keyframe", "disc_search")
# label -> (workload, function); the counts that later count-based claims quote
HEADLINES = {
    "stream: generate_tokens calls per full-history frame":
        ("stream", "trajectory.generate_tokens"),
    "stream: propagate_trajectories calls per full-history frame":
        ("stream", "trajectory.propagate_trajectories"),
    "keyframe: generate_tokens calls per op": ("keyframe", "trajectory.generate_tokens"),
    "keyframe: selective_scan_forward calls per op": ("keyframe", "ssm.selective_scan_forward"),
    "disc_search: region_degree calls per op": ("disc_search", "discontinuity.region_degree"),
    "disc_search: ScanOrder.index_map calls per op":
        ("disc_search", "scanorder.ScanOrder.index_map"),
}


def traced_counts(workload, seed):
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "5", "--trace", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    result = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace1.json").read_text())
    if result["problems"]:
        raise SystemExit(f"{workload} seed {seed}: {result['problems']}")
    return result["counts_by_op"]


def main():
    baseline = {}
    for name in WORKLOADS:
        runs = [traced_counts(name, seed) for seed in SEEDS]
        first = runs[0][0]
        for run in runs:
            for i, counts in enumerate(run):
                if counts != first:
                    raise SystemExit(f"{name}: counts of op {i} differ: {first} vs {counts}")
        baseline[name] = first
        print(f"{name}: counts repeat exactly over {sum(map(len, runs))} ops, seeds {SEEDS}")
    headlines = {label: baseline[wl].get(fn, 0) for label, (wl, fn) in HEADLINES.items()}
    for label, value in headlines.items():
        print(f"  {label}: {value}")
    out = {"about": "Calls of each wrapped function in one op (stream: one "
                    "full-history frame), equal on every op, run and seed.",
           "headlines": headlines, "counts_per_op": baseline}
    (HERE / "baseline_counts.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
