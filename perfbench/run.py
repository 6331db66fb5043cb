"""Benchmark of tdpkex: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {session,file_cipher,cli_exchange} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each sample runs in a fresh interpreter
(perfbench/worker.py) with the BLAS/OpenMP thread counts set to 1, one
after another, so the load comes from one process and one thread at a time.
The set-up is sampled SETUP_SAMPLES times per run and reported as a median.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  Lines
before the last describe the run for a reader; the last line is the result
object.  The exit code is not 0, and no result is printed, if a worker fails.
See RATIONALE.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every worker of one run must have ended by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# what one op is on each workload, for the report lines
OP_NAMES = {"session": "session", "file_cipher": "file round trip", "cli_exchange": "pipeline"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - spawned_at, 0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"the run did not end within {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, setups: list[dict], res: dict) -> tuple[dict, list[str]]:
    costs = res["costs"]
    n = len(costs)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "op_cost_p50": (statistics.median(costs), "ref"),
        "op_cost_p90": (quantile(costs, 90), "ref"),
        "ops_per_kref": (1000 * n / res["cost_total"], "1/kref"),
    }
    ms = [v * 1000 for v in res["samples"]["op"]]
    notes = [f"op = one {OP_NAMES[workload]}; {n} ops succeeded of {res['attempted']}; "
             f"times in ms below are raw wall times"]
    if workload == "session":
        notes += [
            f"session_ms_p50 = {statistics.median(ms):.4f} ms (n={n})",
            f"session_ms_p99 = {quantile(ms, 99):.4f} ms (n={n})",
            f"sessions_per_s = {n / res['busy_s']:.3f} 1/s (n={n})",
            f"uniformity p_value = {res['p_value']:.4f} (recorded, not judged)",
        ]
    elif workload == "file_cipher":
        size_mb = res["plaintext_bytes"] / 1e6
        for kind in ("encrypt", "decrypt"):
            times = res["samples"][kind]
            notes.append(f"{kind}_MBps = {size_mb / statistics.median(times):.4f} MB/s "
                         f"(median command, {res['plaintext_bytes']} B, n={len(times)})")
    else:
        notes += [
            f"cli_pipeline_ms_p50 = {statistics.median(ms):.4f} ms (n={n})",
            f"cli_pipeline_ms_p90 = {quantile(ms, 90):.4f} ms (n={n}"
            + (")" if n >= 100 else ", below the 100 pipelines p90 needs)"),
        ]
    return metrics, notes


def per_layer(setups: list[dict], res: dict) -> dict:
    layers = res["layers"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (layers[f"{name}.calls"], "count")
        metrics[f"{name}.self_ms"] = (layers[f"{name}.self_ms"], "ms")
    for name, unit in COUNTERS.items():
        metrics[name] = (layers[name], unit)
    metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics["setup.prepare_s"] = (statistics.median(s["prepare_s"] for s in setups), "s")
    metrics["trace.overhead_frac"] = (layers["trace.overhead_frac"], "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(OP_NAMES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(common, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    setups.append(res)

    attempted = res["attempted"] + 1  # the canary check counts as one op
    failed = res["failed"] + (not res["canary_ok"])
    if args.trace:
        metrics, notes = per_layer(setups, res), []
    else:
        metrics, notes = end_to_end(args.workload, setups, res)
    env = res["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    print(f"error_rate = {failed / attempted:.6f} ({failed} failed of {attempted} attempted, "
          f"canary {'matches' if res['canary_ok'] else 'DIFFERS'})")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
