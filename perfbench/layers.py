"""Which library functions the traced run wraps, and its per-layer metrics.

The layers are the modules of ``src/kleinian``.  Each metric is measured
on the workload whose ops exercise it (the ``on`` column of the table in
NOTES.md).  Times are per call and in milliseconds: ``.ms`` is the mean
inclusive duration of a call, ``.self_ms`` the mean of its self time (the
duration minus what wrapped callees took); both count calls that raised.
``.calls`` are exact counts for the traced batch, which is a fixed list
of ops for a given seed and ``--seconds``.
"""

from __future__ import annotations

import numpy as np

import inputs
import spans

TARGETS = {
    "curves": ["infinity_series"],
    "roots": ["poly_roots"],
    "divisors": ["interpolate", "zero_divisor", "y_resultant", "complement"],
    "uniformization": ["divisor_to_basis", "basis_to_divisor", "extended_34"],
    "identities": ["build_H", "residuals_27", "residuals_34"],
    "addition": ["negate", "add"],
    "theta": ["theta_directional", "theta_derivatives", "log_theta_derivatives"],
    "transcendental": [
        "branch_points",
        "period_matrices",
        "riemann_characteristic",
        "abel",
        "wp_theta",
    ],
}

# A traced batch holds at least one full rotation of the workload's op mix.
CYCLE = {
    "periods": len(inputs.PERIODS_CYCLE),
    "bridge": inputs.BRIDGE_CURVES * inputs.NEAR_EVERY,
    "algebra": len(inputs.ALGEBRA_FAMILIES) * inputs.HARD_EVERY,
}

# Error classes whose per-op counts are reported as fail.<class>.
FAIL_CLASSES = (
    "PrecisionError",
    "PathError",
    "ThetaDivisorError",
    "CharacteristicSearchError",
    "SpecialDivisorError",
    "InconsistentRecordError",
    "InconsistencyError",
    "AmbiguousSelectionError",
    "DegeneratePairError",
    "DegenerateComplementError",
    "BranchPointError",
)


def _family(spec) -> str:
    return f"{spec['n']}-{spec['s']}"


def _shape(spec) -> str:
    return "hyper" if spec["n"] == 2 else "trigonal"


def _kind(spec) -> str:
    return spec["kind"]


# name, workload, stat, span name(s), and (op tag function, tag value) or None
_SPAN_METRICS = [
    *(
        (f"transcendental.period_matrices.ms.{k}", "periods", "ms",
         "transcendental.period_matrices", (_kind, k))
        for k in ("g1", "g2", "g3", "clustered")
    ),
    ("transcendental.riemann_characteristic.ms", "periods", "ms",
     "transcendental.riemann_characteristic", None),
    ("theta.theta_directional.calls", "periods", "calls", "theta.theta_directional", None),
    ("theta.theta_directional.self_ms", "periods", "self_ms", "theta.theta_directional", None),
    ("transcendental.abel.ms.far", "bridge", "ms", "transcendental.abel", (_kind, "far")),
    ("transcendental.abel.ms.near", "bridge", "ms", "transcendental.abel", (_kind, "near")),
    ("curves.infinity_series.calls", "bridge", "calls", "curves.infinity_series", None),
    ("curves.infinity_series.self_ms", "bridge", "self_ms", "curves.infinity_series", None),
    ("transcendental.wp_theta.ms", "bridge", "ms", "transcendental.wp_theta", None),
    ("theta.theta_derivatives.calls", "bridge", "calls", "theta.theta_derivatives", None),
    ("theta.theta_derivatives.self_ms", "bridge", "self_ms", "theta.theta_derivatives", None),
    ("theta.log_theta_derivatives.self_ms", "bridge", "self_ms",
     "theta.log_theta_derivatives", None),
    ("identities.build_H.ms", "bridge", "ms", "identities.build_H", None),
    ("identities.residuals.ms", "algebra", "ms",
     ("identities.residuals_27", "identities.residuals_34"), None),
    ("divisors.interpolate.calls", "algebra", "calls", "divisors.interpolate", None),
    ("divisors.interpolate.self_ms", "algebra", "self_ms", "divisors.interpolate", None),
    ("uniformization.divisor_to_basis.ms", "algebra", "ms",
     "uniformization.divisor_to_basis", None),
    ("divisors.zero_divisor.ms.hyper", "algebra", "ms", "divisors.zero_divisor",
     (_shape, "hyper")),
    ("divisors.zero_divisor.ms.trigonal", "algebra", "ms", "divisors.zero_divisor",
     (_shape, "trigonal")),
    ("divisors.y_resultant.calls", "algebra", "calls", "divisors.y_resultant", None),
    ("divisors.y_resultant.self_ms", "algebra", "self_ms", "divisors.y_resultant", None),
    ("divisors.complement.self_ms", "algebra", "self_ms", "divisors.complement", None),
    ("roots.poly_roots.calls", "algebra", "calls", "roots.poly_roots", None),
    ("roots.poly_roots.self_ms", "algebra", "self_ms", "roots.poly_roots", None),
    ("uniformization.basis_to_divisor.ms.hyper", "algebra", "ms",
     "uniformization.basis_to_divisor", (_shape, "hyper")),
    ("uniformization.basis_to_divisor.ms.trigonal", "algebra", "ms",
     "uniformization.basis_to_divisor", (_shape, "trigonal")),
    ("uniformization.extended_34.ms", "algebra", "ms", "uniformization.extended_34", None),
    *(
        (f"addition.{fn}.ms.{fam}", "algebra", "ms", f"addition.{fn}", (_family, fam))
        for fn in ("add", "negate")
        for fam in ("2-5", "2-7", "3-4")
    ),
    ("addition.add.ok_ratio", "algebra", "ok_ratio", "addition.add", None),
]

_UNIT = {"ms": ("ms", "lower"), "self_ms": ("ms", "lower"), "calls": ("count", "lower"),
         "ok_ratio": ("ratio", "higher")}


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(m[0], *_UNIT[m[2]]) for m in _SPAN_METRICS]
    out.append(("transcendental.legendre.digits.low", "digits", "higher"))
    out += [(f"fail.{c}", "count", "lower") for c in FAIL_CLASSES]
    out.append(("fail.wrong", "count", "lower"))
    out += [(f"trace.overhead_pct.{w}", "%", "lower") for w in CYCLE]
    return out


def _span_stat(stat: str, durations: list, selfs: list, errors: list) -> float:
    if not durations:
        return 0.0
    if stat == "calls":
        return float(len(durations))
    if stat == "ms":
        return 1e3 * float(np.mean(durations))
    if stat == "self_ms":
        return 1e3 * float(np.mean(selfs))
    if stat == "ok_ratio":
        return sum(e is None for e in errors) / len(errors)
    raise ValueError(stat)


def per_layer(rows: list, batches: dict, tail_pct: float) -> dict:
    """Per-layer metrics from the traced spans of each workload's batch.

    ``batches[w]`` holds the batch's op ``specs``, their ``outcomes``, the
    ``(first, end)`` range of its spans, both pass wall times and each
    op's host speed ``factors``; span times are divided by the factor of
    their op (see speed.py).
    """
    selfs = spans.self_times(rows)
    units = {name: unit for name, unit, _ in metric_specs()}
    out = {}
    for name, workload, stat, span_names, tag in _SPAN_METRICS:
        b = batches[workload]
        lo, hi = b["spans"]
        names = (span_names,) if isinstance(span_names, str) else span_names
        picked = [
            i for i in range(lo, hi)
            if rows[i][spans.NAME] in names
            and (tag is None or tag[0](b["specs"][rows[i][spans.OP]]) == tag[1])
        ]
        scale = [b["factors"][rows[i][spans.OP]] for i in picked]
        value = _span_stat(
            stat,
            [(rows[i][spans.END] - rows[i][spans.START]) / f for i, f in zip(picked, scale)],
            [selfs[i] / f for i, f in zip(picked, scale)],
            [rows[i][spans.ERROR] for i in picked],
        )
        out[name] = value
    digits = [o.digits for o in batches["periods"]["outcomes"] if o.status != "raised"]
    out["transcendental.legendre.digits.low"] = (
        float(np.percentile(digits, 100.0 - tail_pct)) if digits else 0.0
    )
    everything = [o for b in batches.values() for o in b["outcomes"]]
    for c in FAIL_CLASSES:
        out[f"fail.{c}"] = float(sum(o.error == c for o in everything))
    out["fail.wrong"] = float(sum(o.status == "wrong" for o in everything))
    for w, b in batches.items():
        out[f"trace.overhead_pct.{w}"] = spans.overhead_pct(b["traced_s"], b["untraced_s"])
    return {name: {"value": v, "unit": units[name]} for name, v in out.items()}
