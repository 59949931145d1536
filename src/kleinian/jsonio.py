"""JSON schemas for curves, divisors, records, and period data.

Complex numbers serialize as [re, im]; weight keys as decimal strings;
wp index tuples as comma-joined weights ("2,2"); matrices row-major as
nested lists of [re, im] pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .curves import CurveModel, curve_model
from .divisors import Divisor
from .errors import InputError, InvalidCurveError
from .transcendental import PeriodData
from .uniformization import BasisRecord


def _c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise InputError(f"expected [re, im], got {v!r}")


def _int(key, what: str) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be an integer, got {key!r}") from None


def _index_key(key: str, what: str) -> tuple:
    """A comma-joined key such as "2,2" as a tuple of integers."""
    return tuple(_int(t, what) for t in key.split(","))


def _object(m, what: str) -> dict:
    if not isinstance(m, dict):
        raise InputError(f"{what} must be a JSON object, got {m!r}")
    return m


def _weight_map(m, what: str) -> dict:
    """{weight: complex} from a JSON object keyed by decimal weights."""
    return {_int(k, f"{what} key"): _j2c(v) for k, v in _object(m, what).items()}


def _mat2j(M) -> list:
    return [[_c2j(z) for z in row] for row in np.asarray(M)]


def curve_to_json(curve: CurveModel) -> dict:
    return {
        "n": curve.n,
        "s": curve.s,
        "lambda": {str(k): _c2j(v) for k, v in sorted(curve.lam.items())},
    }


def curve_from_json(data: dict) -> CurveModel:
    try:
        n, s = int(data["n"]), int(data["s"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"curve JSON needs integer n and s: {exc}") from exc
    lam = _weight_map(data.get("lambda") or {}, "lambda")
    extra = set(data) - {"n", "s", "lambda"}
    if extra:
        raise InputError(f"unknown curve keys: {sorted(extra)}")
    try:
        return curve_model(n, s, lam)
    except InvalidCurveError as exc:
        raise InputError(str(exc)) from exc


def divisor_to_json(D: Divisor) -> dict:
    return {"points": [[p.x.real, p.x.imag, p.y.real, p.y.imag] for p in D.points]}


def divisor_from_json(curve: CurveModel, data: dict, tol: float = 1e-8) -> Divisor:
    rows = _object(data, "divisor JSON").get("points", [])
    if not isinstance(rows, list):
        raise InputError(f"divisor points must be a JSON list, got {rows!r}")
    pts = []
    for row in rows:
        if not (
            isinstance(row, list) and len(row) == 4 and all(isinstance(v, (int, float)) for v in row)
        ):
            raise InputError(f"divisor point must be [xre, xim, yre, yim], got {row!r}")
        pts.append((complex(row[0], row[1]), complex(row[2], row[3])))
    return Divisor(curve, pts, tol=tol)


def record_to_json(rec: BasisRecord) -> dict:
    out = {
        "p": {str(w): _c2j(v) for w, v in sorted(rec.p.items())},
        "q": {str(w): _c2j(v) for w, v in sorted(rec.q.items())},
    }
    if rec.extended:
        out["extended"] = {
            ",".join(str(i) for i in key): _c2j(v) for key, v in sorted(rec.extended.items())
        }
    return out


def record_from_json(data: dict) -> BasisRecord:
    _object(data, "basis record JSON")
    try:
        p = _weight_map(data["p"], "p")
        q = _weight_map(data["q"], "q")
    except KeyError as exc:
        raise InputError(f"basis record JSON needs p and q maps: {exc}") from exc
    ext = {
        _index_key(key, "extended index"): _j2c(v)
        for key, v in _object(data.get("extended") or {}, "extended").items()
    }
    return BasisRecord(p, q, ext)


def period_to_json(pd: PeriodData) -> dict:
    out = {
        "omega": _mat2j(pd.omega),
        "omega_prime": _mat2j(pd.omega_prime),
        "eta": _mat2j(pd.eta),
        "eta_prime": _mat2j(pd.eta_prime),
        "tau": _mat2j(pd.tau),
        "kappa": _mat2j(pd.kappa),
        "legendre_residual": pd.legendre_residual,
        "branch_points": [_c2j(z) for z in pd.branch],
    }
    if pd.char is not None:
        out["characteristic"] = {
            "eps_prime": list(pd.char.eps_prime),
            "eps": list(pd.char.eps),
        }
    return out


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
