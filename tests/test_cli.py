import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kleinian.cli import main
from kleinian.jsonio import curve_from_json, divisor_to_json
from kleinian.sampling import random_divisor

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def curve34_file(tmp_path):
    path = tmp_path / "c34.json"
    path.write_text(json.dumps({"n": 3, "s": 4, "lambda": {"2": [0.1, 0.05], "6": [0.3, -0.1]}}))
    return str(path)


@pytest.fixture
def lemniscatic_file(tmp_path):
    path = tmp_path / "lemni.json"
    path.write_text(json.dumps({"n": 2, "s": 3, "lambda": {"4": [-1.0, 0.0]}}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe(capsys, curve34_file):
    code, out, _ = run_cli(capsys, "describe", "--curve", curve34_file)
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 3
    assert data["gaps"] == [1, 2, 5]
    assert data["wgt_sigma"] == -5
    assert data["family"] == "trigonal-3m+1"


def test_uniformize_invert_roundtrip(capsys, tmp_path, curve34_file):
    curve = curve_from_json(json.load(open(curve34_file)))
    D = random_divisor(curve, 3, np.random.default_rng(3))
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps(divisor_to_json(D)))
    code, out, _ = run_cli(capsys, "uniformize", "--curve", curve34_file, "--divisor", str(dpath))
    assert code == 0
    rec = json.loads(out)["record"]
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps(rec))
    code, out, _ = run_cli(capsys, "invert-basis", "--curve", curve34_file, "--basis", str(bpath))
    assert code == 0
    result = json.loads(out)
    assert result["max_curve_residual"] < 1e-8
    got = sorted((p[0], p[1]) for p in result["divisor"]["points"])
    want = sorted((p.x.real, p.x.imag) for p in D.points)
    assert np.allclose(got, want, atol=1e-7)


def test_negate_and_add(capsys, tmp_path, curve34_file):
    curve = curve_from_json(json.load(open(curve34_file)))
    rng = np.random.default_rng(5)
    d1, d2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
    p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
    p1.write_text(json.dumps(divisor_to_json(d1)))
    p2.write_text(json.dumps(divisor_to_json(d2)))
    code, out, _ = run_cli(capsys, "negate", "--curve", curve34_file, "--divisor", str(p1))
    assert code == 0 and json.loads(out)["max_curve_residual"] < 1e-8
    code, out, _ = run_cli(capsys, "add", "--curve", curve34_file, "--divisors", str(p1), str(p2))
    assert code == 0
    assert len(json.loads(out)["divisor"]["points"]) == 3


def test_verify_identities_random(capsys, curve34_file):
    code, out, _ = run_cli(
        capsys, "verify-identities", "--curve", curve34_file, "--trials", "3", "--seed", "11"
    )
    assert code == 0
    res = json.loads(out)["residuals"]
    assert set(res) >= {"J12", "J13", "J16", "G6"}
    assert all(v < 1e-7 for k, v in res.items() if not k.startswith("E"))


def test_verify_identities_absurd_tolerance_fails(capsys, curve34_file):
    code, _, _ = run_cli(
        capsys, "verify-identities", "--curve", curve34_file, "--trials", "2",
        "--tol", "identity=1e-30",
    )
    assert code == 1


def test_periods_lemniscatic(capsys, lemniscatic_file):
    code, out, _ = run_cli(capsys, "periods", "--curve", lemniscatic_file)
    assert code == 0
    p = json.loads(out)["periods"]
    tau = complex(*p["tau"][0][0])
    assert abs(tau - 1j) < 1e-8
    assert p["legendre_residual"] < 1e-8
    assert p["characteristic"] == {"eps": [0.5], "eps_prime": [0.5]}


def test_theta_bridge_verb(capsys, tmp_path):
    path = tmp_path / "c25.json"
    path.write_text(json.dumps({"n": 2, "s": 5, "lambda": {"4": [0.2, 0.1], "8": [-0.3, 0.2]}}))
    code, out, _ = run_cli(capsys, "theta-bridge", "--curve", str(path), "--trials", "2", "--seed", "2")
    assert code == 0
    assert json.loads(out)["worst"] < 1e-6


def test_selftest_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "selftest", "--seed", "42", "--suite", "structural",
                             "--suite", "lemniscatic")
    code2, out2, _ = run_cli(capsys, "selftest", "--seed", "42", "--suite", "structural",
                             "--suite", "lemniscatic")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical report under a fixed seed


def test_exit_codes(capsys, tmp_path, curve34_file):
    code, _, err = run_cli(capsys, "describe", "--curve", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "s": 4}')  # non-coprime
    code, _, err = run_cli(capsys, "describe", "--curve", str(bad))
    assert code == 2
    code, _, err = run_cli(capsys, "selftest", "--suite", "structural", "--tol", "nope=1")
    assert code == 2


def test_output_file(capsys, tmp_path, curve34_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "describe", "--curve", curve34_file, "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["genus"] == 3


def test_unsupported_operation_is_input_error(capsys, tmp_path):
    # a valid curve outside an operation's domain exits 2, not 3
    path = tmp_path / "c45.json"
    path.write_text(json.dumps({"n": 4, "s": 5, "lambda": {}}))
    code, _, err = run_cli(capsys, "uniformize", "--curve", str(path), "--divisor", str(path))
    assert code == 2
    code, _, err = run_cli(capsys, "periods", "--curve", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "verb, flag, payload",
    [
        ("describe", "--curve", {"n": 2, "s": 3, "lambda": {"four": [1.0, 0.0]}}),
        ("uniformize", "--divisor", {"points": [["0.5", 0.0, 1.0, 0.0]]}),
        ("invert-basis", "--basis", {"p": {"1": [0.1, 0.0]}, "q": {"x": [0.2, 0.0]}}),
        ("uniformize", "--divisor", [1, 2]),
        ("invert-basis", "--basis", {"p": {"1": [0.1, 0.0]}, "q": {"2": [0.2, 0.0]}, "extended": [1]}),
        ("invert-basis", "--basis", [1]),
        # keys 1, 3 where the (3,4) curve's gaps are 1, 2, 5
        ("invert-basis", "--basis", {"p": {"1": [0.1, 0.0], "3": [0.2, 0.0]},
                                     "q": {"1": [0.3, 0.0], "3": [0.4, 0.0]}}),
    ],
)
def test_malformed_json_is_input_error(capsys, tmp_path, curve34_file, verb, flag, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    argv = [verb, flag, str(path)] if flag == "--curve" else [verb, "--curve", curve34_file, flag, str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["kind"] == "input"


@pytest.fixture
def curve25_file(tmp_path):
    path = tmp_path / "c25.json"
    path.write_text(json.dumps({"n": 2, "s": 5, "lambda": {"4": [0.2, 0.1], "8": [-0.3, 0.2]}}))
    return str(path)


def _divisor_file(tmp_path, curve_file, seed, name="d.json"):
    curve = curve_from_json(json.load(open(curve_file)))
    D = random_divisor(curve, curve.genus, np.random.default_rng(seed))
    path = tmp_path / name
    path.write_text(json.dumps(divisor_to_json(D)))
    return str(path)


def test_uniformize_extended(capsys, tmp_path, curve34_file):
    dpath = _divisor_file(tmp_path, curve34_file, 3)
    code, out, _ = run_cli(capsys, "uniformize", "--curve", curve34_file, "--divisor", dpath)
    assert code == 0
    plain = json.loads(out)["record"]
    code, out, _ = run_cli(capsys, "uniformize", "--curve", curve34_file, "--divisor", dpath,
                           "--extended")
    assert code == 0
    ext = json.loads(out)["record"]
    assert "extended" not in plain and ext["extended"]
    assert ext["p"] == plain["p"] and ext["q"] == plain["q"]


def test_verify_identities_given_divisor(capsys, tmp_path, curve34_file):
    dpath = _divisor_file(tmp_path, curve34_file, 3)
    code, out, _ = run_cli(capsys, "verify-identities", "--curve", curve34_file, "--divisor", dpath)
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 1
    assert all(v < 1e-7 for k, v in data["residuals"].items() if not k.startswith("E"))


def test_verify_identities_default_trials(capsys, curve34_file):
    code, out, _ = run_cli(capsys, "verify-identities", "--curve", curve34_file)
    assert code == 0
    assert json.loads(out)["trials"] == 5


def test_theta_bridge_given_divisor(capsys, tmp_path, curve25_file):
    dpath = _divisor_file(tmp_path, curve25_file, 4)
    code, out, _ = run_cli(capsys, "theta-bridge", "--curve", curve25_file, "--divisor", dpath)
    assert code == 0
    data = json.loads(out)
    assert len(data["bridge"]) == 1
    assert set(data["bridge"][0]) == {"u", "p[1]", "p[3]", "q[1]", "q[3]"}
    assert data["worst"] < 1e-6


def test_theta_bridge_default_trials(capsys, curve25_file):
    code, out, _ = run_cli(capsys, "theta-bridge", "--curve", curve25_file)
    assert code == 0
    assert len(json.loads(out)["bridge"]) == 3


def test_selftest_with_timings(capsys):
    argv = ("selftest", "--suite", "structural")
    _, plain, _ = run_cli(capsys, *argv)
    code, timed, _ = run_cli(capsys, *argv, "--with-timings")
    plain, timed = json.loads(plain), json.loads(timed)
    assert code == 0
    assert "elapsed_s" not in plain and "elapsed_s" not in plain["criteria"][0]
    assert "elapsed_s" in timed and "elapsed_s" in timed["criteria"][0]


def test_report_keys_of_every_verb(capsys, tmp_path, curve34_file, curve25_file):
    d1 = _divisor_file(tmp_path, curve34_file, 5, "d1.json")
    d2 = _divisor_file(tmp_path, curve34_file, 6, "d2.json")
    d25 = _divisor_file(tmp_path, curve25_file, 4, "d25.json")
    _, out, _ = run_cli(capsys, "uniformize", "--curve", curve34_file, "--divisor", d1)
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps(json.loads(out)["record"]))
    head = {"command", "seed", "inputs", "elapsed_s"}
    cases = [
        (["describe", "--curve", curve34_file],
         {"genus", "gaps", "family", "wgt_sigma", "monomials"}, {"curve"}),
        (["uniformize", "--curve", curve34_file, "--divisor", d1], {"record"}, {"curve", "divisor"}),
        (["invert-basis", "--curve", curve34_file, "--basis", str(bpath)],
         {"divisor", "max_curve_residual"}, {"curve"}),
        (["negate", "--curve", curve34_file, "--divisor", d1],
         {"divisor", "max_curve_residual"}, {"curve", "divisor"}),
        (["add", "--curve", curve34_file, "--divisors", d1, d2],
         {"divisor", "max_curve_residual"}, {"curve", "divisors"}),
        (["verify-identities", "--curve", curve34_file, "--divisor", d1],
         {"trials", "residuals", "tolerances"}, {"curve"}),
        (["periods", "--curve", curve25_file], {"periods"}, {"curve"}),
        (["theta-bridge", "--curve", curve25_file, "--divisor", d25],
         {"legendre_residual", "bridge", "worst", "tolerance"}, {"curve"}),
    ]
    for argv, keys, inputs in cases:
        code, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        assert code == 0, argv
        assert set(data) == head | keys, argv
        assert set(data["inputs"]) == inputs, argv
        assert data["command"] == argv[0] and data["seed"] == 0
    code, out, _ = run_cli(capsys, "selftest", "--suite", "structural")
    data = json.loads(out)
    assert code == 0 and set(data) == {"command", "seed", "criteria", "ok"}
    assert set(data["criteria"][0]) == {"id", "key", "name", "ok", "details"}


def test_numerical_failure_exits_3(capsys, tmp_path):
    # y^2 = x^3: every branch point collides
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps({"n": 2, "s": 3, "lambda": {}}))
    code, out, err = run_cli(capsys, "periods", "--curve", str(path))
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "DegenerateCurveError"


def test_non_numeric_tolerance_is_input_error(capsys):
    code, out, err = run_cli(capsys, "selftest", "--suite", "structural", "--tol", "identity=abc")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_that_is_not_finite_and_positive_is_input_error(capsys, value):
    code, out, err = run_cli(capsys, "selftest", "--suite", "structural",
                             "--tol", f"roundtrip={value}")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_is_input_error(capsys, curve34_file, curve25_file, trials):
    for verb, curve in (("verify-identities", curve34_file), ("theta-bridge", curve25_file)):
        code, out, err = run_cli(capsys, verb, "--curve", curve, "--trials", trials)
        assert code == 2 and out == "", verb
        assert json.loads(err)["kind"] == "input"


def _fresh_python(code):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_the_library_runs_and_imports_without_scipy():
    # numpy is the only runtime dependency: with every scipy import made to
    # raise, the roundtrip and bridge suites pass, and a plain import loads
    # no scipy module
    blocked = _fresh_python(
        'import sys; sys.modules["scipy"] = None; from kleinian.cli import main; '
        'sys.exit(main(["selftest", "--seed", "1", "--suite", "roundtrip", "--suite", "bridge"]))')
    assert blocked.returncode == 0, blocked.stderr
    plain = _fresh_python(
        'import sys, kleinian; '
        'assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"], "scipy loaded"')
    assert plain.returncode == 0, plain.stderr
