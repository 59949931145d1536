"""The acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion through the shared acceptance runner (the
same code path as `kleinian selftest`) and prints its pass/fail line;
trial counts and tolerances are the contract values, not reduced ones.
"""

import numpy as np
import pytest

from kleinian import acceptance
from kleinian.acceptance import CRITERIA, run_acceptance
from kleinian.errors import DegeneratePairError, SpecialDivisorError, ThetaDivisorError
from kleinian.tolerances import resolve

KEYS = [key for key, _, _ in CRITERIA]


@pytest.mark.parametrize("key", KEYS)
def test_criterion(key, capsys):
    report = run_acceptance(seed=42, suites=[key])
    entry = report["criteria"][0]
    with capsys.disabled():
        status = "PASS" if entry["ok"] else "FAIL"
        print(f"\n[{status}] criterion {entry['id']:2d}: {entry['name']}", flush=True)
    assert entry["ok"], entry["details"]


def test_runtime_budgets():
    # structural < 1 s, roundtrip < 30 s, legendre < 60 s
    report = run_acceptance(seed=42, suites=["structural", "roundtrip", "legendre"], echo=None)
    budget = {"structural": 1.0, "roundtrip": 30.0, "legendre": 60.0}
    for entry in report["criteria"]:
        assert entry["elapsed_s"] < budget[entry["key"]], entry


def test_group_law_counts_tested_and_skipped_trials(monkeypatch):
    # every add triple is counted once, as tested or as skipped under the
    # class of the KleinianError that stopped it
    real_add = acceptance.add

    def flaky_add(curve, D1, D2):
        if abs(D1.points[0].x) < 0.5:
            raise DegeneratePairError("a degenerate draw")
        return real_add(curve, D1, D2)

    monkeypatch.setattr(acceptance, "add", flaky_add)
    _, details = acceptance.group_law(np.random.default_rng(0), resolve(None))
    trials = details["trials"]
    assert set(trials) == {"2-5", "3-4"}
    for tally in trials.values():
        assert tally["tested"] + sum(tally["skipped"].values()) == 50
        assert set(tally["skipped"]) == {"DegeneratePairError"}


def test_group_law_checks_negate_against_the_complement_route(monkeypatch):
    # a draw where the weight-2g route raises is skipped under its class;
    # a negate that is not the inverse fails the criterion
    real_interpolate = acceptance.interpolate

    def flaky_interpolate(curve, weight, D):
        if weight == 2 * curve.genus and abs(D.points[0].x) < 0.5:
            raise SpecialDivisorError("a special draw")
        return real_interpolate(curve, weight, D)

    monkeypatch.setattr(acceptance, "interpolate", flaky_interpolate)
    ok, details = acceptance.group_law(np.random.default_rng(0), resolve(None))
    tally = details["negate_trials"]
    assert ok and 0 < details["negate"] < 1e-14
    assert 0 < tally["tested"] < 25
    assert tally["tested"] + sum(tally["skipped"].values()) == 25
    assert set(tally["skipped"]) == {"SpecialDivisorError"}
    monkeypatch.setattr(acceptance, "negate", lambda curve, D: D)
    ok, details = acceptance.group_law(np.random.default_rng(0), resolve(None))
    assert not ok and details["negate"] > 1e-2


def test_theta_bridge_counts_its_redraws(monkeypatch):
    # every other divisor falls near Sigma: 20 tested, each redraw counted
    real_bridge_errors = acceptance.bridge_errors
    calls = []

    def flaky_bridge_errors(*args):
        calls.append(args)
        if len(calls) % 2:
            raise ThetaDivisorError("near Sigma")
        return real_bridge_errors(*args)

    monkeypatch.setattr(acceptance, "bridge_errors", flaky_bridge_errors)
    ok, details = acceptance.theta_bridge(np.random.default_rng(0), resolve(None))
    assert ok
    assert details["trials"] == {"tested": 20, "skipped": {"ThetaDivisorError": 20}}
