"""tsmamba benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload stream --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/``.  A single client sends its next op only after the previous one
returns.  With ``--trace 0`` the run records no spans and reports the
end-to-end metrics; with ``--trace 1`` every public function of the six
layers is wrapped and the per-layer metrics are reported instead.  Metric
names and units come from BENCHMARK.json.  The last line of stdout is the
JSON result; a fuller result file goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        n = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(n)
    return nproc, {var: os.environ[var] for var in THREAD_VARS}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown: unresolved {name}"


def environment(seed, nproc, threads):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_env": threads, "nproc": nproc,
            "machine": platform.machine(), "seed": seed, "git_commit": git_commit()}


def measure_setup(workload):
    """Median over fresh interpreters of import + weight construction."""
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values), values


def step(client, inp):
    """One op: (output, error, seconds).  A failed op is counted, not fatal."""
    t0 = time.perf_counter()
    try:
        out, error = client.step(inp), None
    except Exception as exc:
        out, error = None, f"raised {exc!r}"
    return out, error, time.perf_counter() - t0


def warm_up(wl, clients, inputs):
    """Feed a stateful client's first inputs untimed; returns their seconds."""
    t0 = time.perf_counter()
    for _ in range(wl.warmup):
        inp = next(inputs)
        for client in clients:
            client.ingest(inp)
    return time.perf_counter() - t0


def timed_phase(wl, seed, seconds, reference, recorder=None):
    """Closed loop: ops back to back until `seconds` have passed.

    Each op's output is verified right after it.  With a recorder, tracing
    is on for the op only, and a twin client repeats the op untraced, before
    it on odd ops and after it on even ones, for the overhead and
    byte-identity checks.  Verification and the twin are left out of the
    phase, so the phase is the ops plus input generation.
    Returns (op seconds, records, phase seconds, twin seconds, warm-up seconds)."""
    import spans

    client = wl.client()
    twin = wl.client() if recorder else None
    inputs = wl.inputs(seed)
    warm_s = warm_up(wl, [c for c in (client, twin) if c], inputs)
    times, records, untraced = [], [], []
    outside = 0.0
    start = time.perf_counter()
    while True:
        inp = next(inputs)
        twin_first = len(times) % 2 == 1
        if recorder and twin_first:
            twin_out, _, twin_s = step(twin, inp)
            outside += twin_s
        if recorder:
            uninstall = spans.install(recorder)
            root = recorder.begin_op(len(times))
        out, error, op_s = step(client, inp)
        if recorder:
            recorder.finish(root)
            uninstall()
        t1 = time.perf_counter()
        record = (wl.verify(client, inp, out, reference) if error is None
                  else {"error": error, "digest": None})
        if recorder:
            if not twin_first:
                twin_out, _, twin_s = step(twin, inp)
            untraced.append(twin_s)
            if error is None and (twin_out is None
                                  or wl.output_digest(twin_out) != record["digest"]):
                record["error"] = record["error"] or "output differs with tracing on"
        records.append(record)
        times.append(op_s)
        outside += time.perf_counter() - t1
        if time.perf_counter() - start - outside >= seconds:
            break
    return times, records, time.perf_counter() - start - outside, untraced, warm_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc, threads = cap_threads()
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import tsmamba
    except ImportError as exc:
        print(f"error: cannot import tsmamba from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(tsmamba.__file__).resolve().parent != src / "tsmamba":
        print(f"error: imported tsmamba from {tsmamba.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy as np

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(args.seed, nproc, threads)
    reference = workloads.load_reference()
    setup_s, setup_values = measure_setup(args.workload)
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()

    result = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "warmup_inputs": wl.warmup, "environment": env}
    problems = []
    recorder = spans.SpanRecorder() if args.trace else None
    times, records, wall, untraced, warm_s = timed_phase(wl, args.seed, args.seconds,
                                                         reference, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["warmup_s"] = warm_s

    failed = 0
    for i, rec in enumerate(records):
        if rec["error"]:
            failed += 1
            problems.append(f"op {i}: {rec['error']}")
    n_ops = attempted = len(times)
    # the canary is one more op, untimed, checked against its stored fingerprint
    canary = wl.canary(reference)
    if canary is not None:
        attempted += 1
        if canary["error"]:
            failed += 1
            problems.append(f"canary: {canary['error']}")

    if args.trace:
        computed, accounting = layers.layer_metrics(
            recorder, times, wl.stage_keys(), wl.config, wl.lr_dims)
        hits = sum(r.get("flow_hits", 0) for r in records)
        tries = sum(r.get("flow_attempts", 0) for r in records)
        computed["trajectory.flow_hit_rate"] = hits / tries if tries else 0.0
        computed["trace.overhead_share"] = (statistics.median(times)
                                            / statistics.median(untraced) - 1.0)
        wanted = spec["per_layer"]
        result["accounting"] = accounting
        result["counts_by_op"] = layers.counts_by_op(recorder)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.save(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        p90 = float(np.percentile(times, 90))
        computed = {
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": p90 * 1e3,
            "ops_per_s": n_ops / wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        beyond = sum(1 for t in times if t > p90)
        result.update(samples=n_ops, samples_beyond_p90=beyond,
                      error_rate=failed / attempted, setup_probe_s=setup_values,
                      op_s=times, timed_phase_s=wall)
    result["all_metrics"] = computed
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result.update(attempted=attempted, failed=failed, problems=problems,
                  digests=[r["digest"] for r in records])

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops "
          f"attempted, {failed} failed, error_rate {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        for stage, row in accounting.items():
            ratio = row.get("observed_over_modelled")
            if ratio is not None and ratio != 1.0:
                print(f"  finding: {stage} conv MACs observed/modelled = {ratio:.6g}")
    else:
        note = " (fewer than 10: p90 is indicative only)" if beyond < 10 else ""
        print(f"  timings from {n_ops} samples; {beyond} beyond p90{note}")
    for p in problems:
        print(f"  problem: {p}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
