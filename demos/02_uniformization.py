"""The Jacobi inversion dictionary: divisors <-> basis wp-values.

A reduced degree-g divisor determines two polynomial functions of
weights 2g and 2g+1 through it, whose coefficients are the basis
wp-values at its Abel image; conversely the common zeros of those two
functions recover the divisor.  Derivatives along Jacobian coordinates
come from the jet flow of the basis values along one coordinate line,
driven by the inverse of the Abel map's Jacobian matrix.
"""

import numpy as np

from kleinian import basis_flow, basis_to_divisor, divisor_to_basis
from kleinian.divisors import multiset_distance
from kleinian.sampling import random_curve, random_divisor

rng = np.random.default_rng(7)

# --- a trigonal example -----------------------------------------------------
curve = random_curve(3, 4, rng)
D = random_divisor(curve, curve.genus, rng)
print("divisor:")
for p in D:
    print(f"   x = {p.x:.4f}   y = {p.y:.4f}")

rec = divisor_to_basis(curve, D)
print("\nbasis wp-values (p = 2-index, q = odd 3-index combination):")
for w in curve.gaps:
    print(f"   gap {w}:  p = {rec.p[w]:.6f}   q = {rec.q[w]:.6f}")

back = basis_to_divisor(curve, rec)
print("\nroundtrip multiset distance:", multiset_distance(D, back))

# --- the derivative ladder ----------------------------------------------------
# On hyperelliptic curves q[w] literally is the u_1-derivative of p[w].
curve = random_curve(2, 7, rng)
D = random_divisor(curve, 3, rng)
rec = divisor_to_basis(curve, D)
p, _ = basis_flow(curve, D, 1, 1)
for w in curve.gaps:
    dd = p[w].derivative_at_zero(1)
    print(f"gap {w}:  q = {rec.q[w]:.8f}   d p/du_1 = {dd:.8f}   |diff| = {abs(dd - rec.q[w]):.2e}")
