"""One benchmark process: set up a workload, then run or trace its ops.

Started by ``run.py`` with BLAS threads pinned to 1; prints one JSON
object on its last stdout line.  Modes:

* ``setup``: import, build inputs, warm up, report when the first timed
  op could start (a set-up sample);
* ``run``: the same set-up, then the closed-loop timed phase and the
  end-to-end metrics;
* ``trace``: for every workload, a fixed batch of ops run untraced, then
  the same batch with every layer function wrapped; per-layer metrics.

Usage: worker.py MODE WORKLOAD SEED SECONDS OUT_DIR
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

# The percentile reported as op_ms.tail (and its mirror for digits.low):
# the highest of 75, 80, 85, 90, 95, 98, 99 that keeps at least 10 ops
# beyond it at the baseline op count of a 30 s run, even on a host 30%
# slower.  It is fixed per workload so that every run and every commit
# reports the same percentile, and each lands inside one block of the
# workload's op mix (see NOTES.md), not on the edge between two.
TAIL_PCT = {"periods": 80.0, "bridge": 95.0, "algebra": 98.0}

# The accuracy sample: fail_frac, wrong_frac, the digits and the result's
# ``attempted`` and ``failed`` come from the first ACCURACY_OPS ops of a
# run, a fixed set for a given seed.  The timed phase always completes it,
# running past --seconds on a host too slow to finish it in time, so two
# runs of one seed report the same counts whatever the host speed.  The
# time metrics use every op of the timed phase.
ACCURACY_OPS = {"periods": 48, "bridge": 384, "algebra": 576}

# Ops each workload contributes to a traced run, per requested second;
# a traced run then takes about as long as an untraced one.
TRACE_OPS_PER_S = {"periods": 0.4, "bridge": 3.5, "algebra": 5.0}

# Ops whose wrong result makes the run incorrect: the regular share.  The
# hard shares (clustered, near, confluent, far-x, near-ramification) probe
# known accuracy limits; their wrong results are counted, not gated.
REGULAR_KINDS = {"g1", "g2", "g3", "far", "plain"}


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu or platform.processor(),
        "seed": seed,
    }


def _setup(workload: str, seed: int):
    """Inputs, state and warm-up; returns them with the set-up timing.

    The speed kernel is sampled between set-up steps; ``ready`` is the
    monotonic time the first timed op could start, ``sampling_s`` the
    time the samples took and ``speed_factor`` their median factor.
    """
    setup_fn, op_fn = W.WORKLOADS[workload]
    probe = SpeedProbe()
    probe.sample_if_due()
    state = setup_fn(seed)
    # warm-up, unclassified and untimed: from one rotation of the op mix,
    # the first op of each kind on each family and curve
    seen = set()
    for spec in state["pool"][: layers.CYCLE[workload]]:
        key = (spec["kind"], spec.get("s"), spec.get("curve"))
        if key not in seen:
            seen.add(key)
            probe.sample_if_due()
            W.run_op(op_fn, state, spec)
    probe.sample_if_due()
    timing = {
        "ready": time.monotonic(),
        "sampling_s": sum(probe.samples),
        "speed_factor": speed.factor(probe.samples),
    }
    return state, op_fn, timing


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else math.nan


class SpeedProbe:
    """Samples ``speed.kernel`` between ops, at most every SAMPLE_EVERY_S,
    and gives each op the speed factor of the samples around it."""

    def __init__(self):
        self.samples: list = []
        self.next_at = 0.0
        self.op_sample: list = []  # per op: the last sample taken before it

    def sample_if_due(self):
        now = time.perf_counter()
        if now >= self.next_at:
            self.samples.append(speed.kernel())
            self.next_at = now + speed.SAMPLE_EVERY_S

    def before_op(self):
        self.sample_if_due()
        self.op_sample.append(len(self.samples) - 1)

    def op_factors(self) -> list:
        per_sample = speed.factors(self.samples)
        return [per_sample[j] for j in self.op_sample]


def end_to_end(workload: str, outcomes: list, factors: list) -> dict:
    """End-to-end metrics; each op's time is divided by its speed factor.

    The timed phase is a closed loop, so its wall time (without kernel
    samples) is the sum of the op times.
    """
    tail = TAIL_PCT[workload]
    ms = [o.ms / f for o, f in zip(outcomes, factors)]
    ok = sum(o.status == "ok" for o in outcomes)
    sample = outcomes[: ACCURACY_OPS[workload]]
    returned = [o.digits for o in sample if o.status != "raised"]
    n = len(sample)
    wrong = sum(o.status == "wrong" for o in sample)
    failed = sum(o.status != "ok" for o in sample)
    # fractions by the rule of succession, (k + 1) / (n + 2): never 0
    values = {
        "ops_per_s": (1e3 * ok / sum(ms), "1/s"),
        "op_ms.p50": (_pct(ms, 50.0), "ms"),
        "op_ms.tail": (_pct(ms, tail), "ms"),
        "fail_frac": ((failed + 1) / (n + 2), "ratio"),
        "wrong_frac": ((wrong + 1) / (n + 2), "ratio"),
        "digits.p50": (_pct(returned, 50.0), "digits"),
        "digits.low": (_pct(returned, 100.0 - tail), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def summary(pool: list, outcomes: list) -> dict:
    """Counts by op kind and outcome, by error class and by failed check."""
    by_kind: dict = {}
    errors: dict = {}
    checks: dict = {}
    for i, o in enumerate(outcomes):
        row = by_kind.setdefault(pool[i % len(pool)]["kind"], {"ok": 0, "raised": 0, "wrong": 0})
        row[o.status] += 1
        if o.error:
            errors[o.error] = errors.get(o.error, 0) + 1
        for name in set(o.failed_checks):
            checks[name] = checks.get(name, 0) + 1
    return {"by_kind": by_kind, "errors": errors, "failed_checks": checks}


def mode_run(workload: str, seed: int, seconds: float) -> dict:
    state, op_fn, timing = _setup(workload, seed)
    pool = state["pool"]
    outcomes = []
    probe = SpeedProbe()
    n_sample = ACCURACY_OPS[workload]
    t0 = time.perf_counter()
    i = 0
    while i < n_sample or time.perf_counter() - t0 < seconds:
        probe.before_op()
        outcomes.append(W.run_op(op_fn, state, pool[i % len(pool)]))
        i += 1
    factors = probe.op_factors()
    metrics = end_to_end(workload, outcomes, factors)
    wrong_regular = sum(
        o.status == "wrong" and pool[k % len(pool)]["kind"] in REGULAR_KINDS
        for k, o in enumerate(outcomes)
    )
    ms = np.array([o.ms for o in outcomes])
    raw = end_to_end(workload, outcomes, [1.0] * len(outcomes))
    return {
        **timing,
        "correct": wrong_regular == 0,
        "attempted": n_sample,
        "failed": sum(o.status != "ok" for o in outcomes[:n_sample]),
        "metrics": metrics,
        "detail": {
            "workload": workload,
            "inputs_sha256": state["digest"],
            "env": environment(seed),
            "wall_s": time.perf_counter() - t0,
            "speed_samples": len(probe.samples),
            "speed_factor_median": float(np.median(factors)),
            "raw_ops_per_s": raw["ops_per_s"]["value"],
            "raw_op_ms.p50": raw["op_ms.p50"]["value"],
            "tail_pct": TAIL_PCT[workload],
            "timed_ops": len(outcomes),
            "timed_ops_failed": sum(o.status != "ok" for o in outcomes),
            "ops_beyond_tail": int(np.sum(ms > raw["op_ms.tail"]["value"])),
            "wrong_regular": wrong_regular,
            "skipped_setup_curves": state.get("skipped_curves", 0),
            **summary(pool, outcomes),
        },
    }


def mode_trace(seed: int, seconds: float, out_dir: str) -> dict:
    rec = spans.SpanRecorder()
    probe = SpeedProbe()
    batches = {}
    for workload in W.WORKLOADS:
        state, op_fn, _ = _setup(workload, seed)
        k = max(layers.CYCLE[workload], round(TRACE_OPS_PER_S[workload] * seconds))
        specs = [state["pool"][i % len(state["pool"])] for i in range(k)]
        first = len(rec.spans)
        outcomes, untraced, traced = [], 0.0, 0.0
        # each op runs untraced and traced back to back, in alternating
        # order, so drift and warm caches fall on both passes alike
        for i, spec in enumerate(specs):
            probe.before_op()
            for tracing in ((False, True) if i % 2 == 0 else (True, False)):
                restore = spans.install(rec, layers.TARGETS) if tracing else None
                try:
                    with rec.op(i):
                        t0 = time.perf_counter()
                        outcome = W.run_op(op_fn, state, spec)
                        dt = time.perf_counter() - t0
                finally:
                    if restore:
                        restore()
                if tracing:
                    outcomes.append(outcome)
                    traced += dt
                else:
                    untraced += dt
        batches[workload] = {
            "first_op": len(probe.op_sample) - len(specs),
            "specs": specs,
            "outcomes": outcomes,
            "spans": (first, len(rec.spans)),
            "untraced_s": untraced,
            "traced_s": traced,
            "inputs_sha256": state["digest"],
        }
    os.makedirs(out_dir, exist_ok=True)
    rec.write_jsonl(os.path.join(out_dir, f"spans-seed{seed}.jsonl"))
    factors = probe.op_factors()
    for b in batches.values():
        b["factors"] = factors[b["first_op"] : b["first_op"] + len(b["specs"])]
    metrics = layers.per_layer(rec.spans, batches, TAIL_PCT["periods"])
    wrong_regular = sum(
        o.status == "wrong" and spec["kind"] in REGULAR_KINDS
        for b in batches.values()
        for spec, o in zip(b["specs"], b["outcomes"])
    )
    return {
        "correct": wrong_regular == 0,
        "attempted": sum(len(b["outcomes"]) for b in batches.values()),
        "failed": sum(o.status != "ok" for b in batches.values() for o in b["outcomes"]),
        "metrics": metrics,
        "detail": {
            "env": environment(seed),
            "speed_factor_median": float(np.median(factors)),
            "batches": {
                w: {
                    "ops": len(b["outcomes"]),
                    "untraced_s": b["untraced_s"],
                    "traced_s": b["traced_s"],
                    "spans": b["spans"][1] - b["spans"][0],
                    "inputs_sha256": b["inputs_sha256"],
                    **summary(b["specs"], b["outcomes"]),
                }
                for w, b in batches.items()
            },
        },
    }


def main(argv) -> int:
    mode, workload, seed, seconds, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    if mode == "setup":
        result = _setup(workload, seed)[2]
    elif mode == "run":
        result = mode_run(workload, seed, seconds)
    elif mode == "trace":
        result = mode_trace(seed, seconds, out_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
