"""Inputs, metric arithmetic and the metric lists in BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from kleinian.errors import PrecisionError  # noqa: E402
from workloads import Outcome, run_op  # noqa: E402


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_inputs_depend_on_the_seed_alone():
    a = inputs.periods_pool(inputs.workload_rng("periods", 5), size=16)
    b = inputs.periods_pool(inputs.workload_rng("periods", 5), size=16)
    c = inputs.periods_pool(inputs.workload_rng("periods", 6), size=16)
    assert inputs.digest(a) == inputs.digest(b) != inputs.digest(c)


def test_inputs_never_import_the_library():
    code = (
        "import sys, inputs\n"
        "rng = inputs.workload_rng('algebra', 1)\n"
        "inputs.algebra_pool(rng, size=12)\n"
        "inputs.bridge_pool(rng, inputs.bridge_curves(rng, 3), size=12)\n"
        "inputs.periods_pool(rng, size=8)\n"
        "assert not [m for m in sys.modules if m.startswith('kleinian')]\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True)


def test_generated_points_lie_on_their_curves():
    rng = inputs.workload_rng("algebra", 3)
    for op in inputs.algebra_pool(rng, size=24):
        n, s, lam = op["n"], op["s"], op["lam"]
        for x, y in op["D1"] + op["D2"]:
            f = -(y**n) + x**s + sum(lam[k] * x**i * y**j for i, j, k in inputs.curve_terms(n, s))
            assert abs(f) <= 1e-11 * max(1.0, abs(x) ** s, abs(y) ** n)


def test_clustered_curves_have_the_requested_gap():
    rng = inputs.workload_rng("periods", 2)
    for op in inputs.periods_pool(rng, size=16):
        if op["kind"] == "clustered":
            e = inputs.ramification_xs(2, op["s"], op["lam"])
            d = sorted(abs(a - b) for i, a in enumerate(e) for b in e[i + 1:])
            assert d[0] == pytest.approx(op["gap"], rel=1e-4)
            assert d[1] >= inputs.CLUSTER_SEPARATION - 2 * op["gap"]


def test_far_bridge_points_keep_their_distance():
    rng = inputs.workload_rng("bridge", 4)
    curves = inputs.bridge_curves(rng, 3)
    for op in inputs.bridge_pool(rng, curves, size=40):
        e = inputs.ramification_xs(2, 5, curves[op["curve"]])
        pts = op["points"] if op["kind"] == "far" else op["points"][1:]
        assert min(abs(x - a) for x, _ in pts for a in e) >= inputs.FAR_FROM_BRANCH


def _outcome(status, ms, residual=1e-12):
    return Outcome(status, ms, residual=residual if status != "raised" else float("nan"))


def test_end_to_end_arithmetic():
    outs = [_outcome("ok", float(ms)) for ms in range(1, 19)]
    outs += [_outcome("wrong", 100.0, residual=1e-3), _outcome("raised", 200.0)]
    m = worker.end_to_end("bridge", outs, [1.0] * 19 + [2.0])
    assert m["ops_per_s"]["value"] == pytest.approx(1e3 * 18 / (171 + 100 + 100))
    assert m["fail_frac"]["value"] == pytest.approx((2 + 1) / (20 + 2))
    assert m["wrong_frac"]["value"] == pytest.approx((1 + 1) / (20 + 2))
    assert m["op_ms.p50"]["value"] == pytest.approx(10.5)
    assert m["digits.p50"]["value"] == pytest.approx(12.0)
    assert m["digits.low"]["value"] < 12.0


def test_accuracy_metrics_use_the_fixed_leading_sample():
    n = worker.ACCURACY_OPS["periods"]
    outs = [_outcome("ok", 1.0)] * n + [_outcome("wrong", 1.0, residual=1e-3)] * 5
    m = worker.end_to_end("periods", outs, [1.0] * len(outs))
    assert m["wrong_frac"]["value"] == pytest.approx(1 / (n + 2))
    assert m["fail_frac"]["value"] == pytest.approx(1 / (n + 2))
    assert m["digits.low"]["value"] == pytest.approx(12.0)
    assert m["ops_per_s"]["value"] == pytest.approx(1e3 * n / (n + 5))


def test_manifest_lists_exactly_the_reported_metrics():
    manifest = _manifest()
    e2e = worker.end_to_end("periods", [_outcome("ok", 1.0)], [1.0])
    assert [m["name"] for m in manifest["end_to_end"]] == ["setup_s", *e2e]
    units = {k: v["unit"] for k, v in e2e.items()}
    for m in manifest["end_to_end"][1:]:
        assert m["unit"] == units[m["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(spec) for spec in layers.metric_specs()
    ]
    assert [w["name"] for w in manifest["workloads"]] == list(worker.W.WORKLOADS)


def test_tolerances_are_the_benchmarks_own():
    with open(os.path.join(BENCH, "tolerances.json")) as fh:
        tol = json.load(fh)
    assert tol["roundtrip"] == 1e-8 and tol["group-law"] == 1e-7
    assert tol["identity"] == 1e-7 and tol["identity-extended"] == 1e-5
    assert tol["bridge"] == 1e-6 and tol["legendre"] == 1e-8
    code = (
        "import sys, workloads\n"
        "assert 'kleinian.tolerances' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))


def test_ops_are_classified_and_foreign_exceptions_escape():
    def typed(state, spec):
        raise PrecisionError("no")

    def foreign(state, spec):
        raise ZeroDivisionError("bug")

    out = run_op(typed, {}, {})
    assert (out.status, out.error) == ("raised", "PrecisionError")
    with pytest.raises(ZeroDivisionError):
        run_op(foreign, {}, {})


def test_speed_factors_are_local_medians():
    import speed

    ref = speed.REFERENCE_S
    flat = speed.factors([ref] * 12 + [3 * ref] + [ref] * 12)
    assert flat == [pytest.approx(1.0)] * 25  # one slow sample is outvoted
    step = speed.factors([ref] * 20 + [2 * ref] * 20)
    assert step[0] == pytest.approx(1.0) and step[-1] == pytest.approx(2.0)
    assert len(speed.factors([ref, ref])) == 2


def test_result_counts_cover_the_fixed_sample_whatever_the_time(monkeypatch):
    n = worker.ACCURACY_OPS["periods"]
    pool = [{"kind": "g2"}, {"kind": "clustered"}]
    state = {"pool": pool, "digest": "0" * 64}
    timing = {"ready": 0.0, "sampling_s": 0.0, "speed_factor": 1.0}
    monkeypatch.setattr(worker, "_setup", lambda w, s: (state, None, timing))
    monkeypatch.setattr(worker.speed, "kernel", lambda: worker.speed.REFERENCE_S)

    def fake_op(op_fn, state, spec):
        status = "raised" if spec["kind"] == "clustered" else "ok"
        return Outcome(status, 1.0, residual=1e-12, error="PrecisionError" * (status == "raised"))

    monkeypatch.setattr(worker.W, "run_op", fake_op)
    for seconds in (0.0, 0.05):
        result = worker.mode_run("periods", 1, seconds)
        assert (result["attempted"], result["failed"]) == (n, n // 2)
        assert result["detail"]["timed_ops"] >= n
