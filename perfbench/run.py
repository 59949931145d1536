"""Benchmark entry point: run one workload, or the traced layer sweep.

    python3 perfbench/run.py --workload periods --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/`` only.  ``--trace 0`` measures the end-to-end metrics of one
workload: ``SETUP_SAMPLES - 1`` set-up-only processes, then one process
that sets up again and runs the closed-loop timed phase (one caller, the
next op starts when the previous one returns).  ``setup_s`` is the median
of the set-up samples; each counts from process start to the moment the
first timed op could start, scaled to the reference host speed.  ``--trace 1`` runs a fixed batch of every
workload untraced and then traced, and reports the per-layer metrics
(``--workload`` is checked but the sweep is the same for all three).

Every worker runs with BLAS threads pinned to 1.  The last stdout line
is the JSON result; the line before it holds the details (input digest,
environment, counts per op kind and error class).  Spans and details are
written under ``.bench_out/`` in the checkout.  Exits non-zero, printing
no result, when the library is missing or a worker fails, which includes
any exception outside ``KleinianError``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("periods", "bridge", "algebra")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Start one worker process, wait for it, and return its result."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
           repr(seconds), OUT_DIR]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in result:
        # process start to the first timed op, without the speed-kernel
        # samples, at the reference host speed (see speed.py)
        raw = result.pop("ready") - started - result.pop("sampling_s")
        result["setup_s"] = raw / result.pop("speed_factor")
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if traced:
        return _worker("trace", workload, seed, seconds, deadline)
    setups = [_worker("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = _worker("run", workload, seed, seconds, deadline)
    setups.append(result.pop("setup_s"))
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        **result["metrics"],
    }
    result["detail"]["setup_samples_s"] = setups
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "kleinian", "__init__.py")):
        print(f"no library at {os.path.join(ROOT, 'src', 'kleinian')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    detail = result.pop("detail")
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"detail": detail, **result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
