"""Named tolerances used by the self-test suite and the CLI.

Every check consumes a named tolerance so command-line overrides
(--tol name=value) reach the exact comparison they configure.
"""

from .errors import InputError

DEFAULTS = {
    "roundtrip": 1e-8,
    "identity": 1e-7,
    "identity-extended": 1e-5,
    "ladder": 1e-10,
    "negate-pointwise": 1e-10,
    "group-law": 1e-7,
    "explicit-add": 1e-6,
    "legendre": 1e-8,
    "tau-symmetry": 1e-8,
    "lemniscatic": 1e-8,
    "g1-cubic": 1e-8,
    "bridge": 1e-6,
    "cubic-matrix": 1e-6,
    "rank-gap": 1e-6,
    "kummer": 1e-8,
    "homogeneity": 1e-9,
    "on-curve": 1e-8,
}


def resolve(overrides: dict | None = None) -> dict:
    tols = dict(DEFAULTS)
    for k, v in (overrides or {}).items():
        if k not in tols:
            raise InputError(f"unknown tolerance name {k!r}; known: {sorted(tols)}")
        tols[k] = float(v)
    return tols
