"""SHA-256 digests of algebra, jet, period and bridge outputs, to compare two commits bit for bit.

    python3 scripts/bit_identity.py [ALGEBRA_OPS] [PERIOD_CURVES] [BRIDGE_OPS]

Run it from the root of each checkout: it imports the library from that
checkout's ``src/`` and the benchmark pools from its ``perfbench/``.  For
seeds 1 and 3 it digests, as exact float hex strings,

* ``algebra``: ``add``, ``negate`` and the ``divisor_to_basis`` ->
  ``basis_to_divisor`` roundtrip on the first ALGEBRA_OPS (default 250)
  ``algebra`` pool ops;
* ``algebra-34``: the same outputs on the (3,4) ops among them alone, so
  a change to the hyperelliptic routes can show that the trigonal
  outputs keep every bit;
* ``flow``: the p and q jets of ``basis_flow`` through D1 on the same
  ops, at order 1 along the first gap and at order 3 along the last;
* ``identities``: the model residuals on the same ops (``residuals_27``
  with ``add27_explicit`` and ``quotient_identity_residual_27`` on (2,7),
  ``residuals_34`` after ``extended_34`` on (3,4));
* ``periods``: ``omega``, ``eta`` and the branch images of
  ``period_matrices`` on the first PERIOD_CURVES (default 60)
  ``periods`` pool curves;
* ``bridge``: the Abel image and the wp-values of BRIDGE_WP (the five
  index tuples a ``bridge`` op reads, and two of order 4) on the first
  BRIDGE_OPS (default 300) ``bridge`` pool divisors, on the curves and
  characteristics of the workload's own set-up.

An op that raises a ``KleinianError`` contributes the name of its class;
any other exception (a ``NameError`` from a deleted helper, say) aborts
the run instead of becoming digest content.  Equal digests on two commits
mean equal bits on every output digested.
"""

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from kleinian import addition as A  # noqa: E402
from kleinian import curves as C  # noqa: E402
from kleinian import divisors as DV  # noqa: E402
from kleinian import identities as I  # noqa: E402
from kleinian import transcendental as T  # noqa: E402
from kleinian import uniformization as U  # noqa: E402
from kleinian.errors import KleinianError  # noqa: E402


def _hex(values) -> list:
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in np.ravel(values)]


def _points(D) -> list:
    return _hex([c for p in D.points for c in (p.x, p.y)])


def _guarded(fn):
    try:
        return fn()
    except KleinianError as exc:  # the failure class is part of the output
        return ("raise", type(exc).__name__)


def _identities(curve, D1, D2) -> list:
    rec = U.divisor_to_basis(curve, D1)
    if (curve.n, curve.s) == (2, 7):
        res = I.residuals_27(rec, curve)
        rec2 = U.divisor_to_basis(curve, D2)
        rec_hat, gammas = A.add27_explicit(rec, rec2, curve)
        res["quotient"] = A.quotient_identity_residual_27(curve, rec, rec2, rec_hat, gammas)
        res.update({f"p_hat{w}": v for w, v in rec_hat.p.items()})
    elif (curve.n, curve.s) == (3, 4):
        res = I.residuals_34(U.extended_34(curve, rec), curve)
    else:
        res = {}
    return sorted((k, _hex([v])) for k, v in res.items())


FLOWS = ((0, 1), (-1, 3))  # (gap index of the direction, order)


def _flow(curve, D, w, order) -> list:
    p, q = U.basis_flow(curve, D, w, order)
    return [_hex(jets[g].c) for jets in (p, q) for g in curve.gaps]


def _periods(curve) -> list:
    pd = T.period_matrices(curve, best_effort_genus3=(curve.genus == 3))
    return [_hex(pd.omega), _hex(pd.eta), _hex(pd.images)]


BRIDGE_WP = ((1, 1), (1, 3), (3, 3), (1, 1, 1), (1, 1, 3), (1, 1, 1, 1), (1, 1, 3, 3))


def _bridge(state, spec) -> list:
    _, curve, pd, ch = state["curves"][spec["curve"]]
    u = T.abel(curve, DV.Divisor(curve, spec["points"]), pd)
    return [_hex(u)] + [_guarded(lambda: _hex([T.wp_theta(pd, ch, u, w)])) for w in BRIDGE_WP]


def main(algebra_ops: int = 250, period_curves: int = 60, bridge_ops: int = 300) -> dict:
    names = ("algebra", "identities", "periods", "bridge", "algebra-34", "flow")
    digests = {name: hashlib.sha256() for name in names}
    for seed in (1, 3):
        for spec in inputs.algebra_pool(inputs.workload_rng("algebra", seed))[:algebra_ops]:
            curve = C.curve_model(spec["n"], spec["s"], spec["lam"])
            D1, D2 = DV.Divisor(curve, spec["D1"]), DV.Divisor(curve, spec["D2"])
            out = [
                _guarded(lambda: _points(A.add(curve, D1, D2))),
                _guarded(lambda: _points(A.negate(curve, D1))),
                _guarded(lambda: _points(U.basis_to_divisor(curve, U.divisor_to_basis(curve, D1)))),
            ]
            digests["algebra"].update(repr(out).encode())
            if (curve.n, curve.s) == (3, 4):
                digests["algebra-34"].update(repr(out).encode())
            digests["identities"].update(repr(_guarded(lambda: _identities(curve, D1, D2))).encode())
            for i, order in FLOWS:
                flow = _guarded(lambda: _flow(curve, D1, curve.gaps[i], order))
                digests["flow"].update(repr(flow).encode())
        for spec in inputs.periods_pool(inputs.workload_rng("periods", seed))[:period_curves]:
            curve = C.curve_model(spec["n"], spec["s"], spec["lam"])
            digests["periods"].update(repr(_guarded(lambda: _periods(curve))).encode())
        state = workloads.setup_bridge(seed)
        for spec in state["pool"][:bridge_ops]:
            digests["bridge"].update(repr(_guarded(lambda: _bridge(state, spec))).encode())
    return {name: h.hexdigest() for name, h in digests.items()}


if __name__ == "__main__":
    for name, digest in main(*(int(a) for a in sys.argv[1:4])).items():
        print(name, digest)
