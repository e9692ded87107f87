"""
Discriminating a symmetric set of pure states
=============================================

Five pure states in dimension 3, generated as the cyclic orbit of a single
reference vector. The best conclusive measurement identifies each state with
confidence dim/order, and the leftover inconclusive probability has a closed
form driven by the smallest coefficient modulus.
"""

import numpy as np

from maxconf import (
    SymmetricFamily,
    pure_symmetric_solution,
    solve_rank1_symmetric,
    square_root_measurement,
)

# a lopsided coefficient vector: the smallest component controls how often
# the measurement must give up
c = np.array([0.8, 0.5, 0.33166247903554])
c = c / np.linalg.norm(c)
family = SymmetricFamily(order=5, purity=1.0, coefficients=c)

sol = pure_symmetric_solution(family)
print("closed form")
print(f"  confidence          C = {sol.confidence:.12f}  (dim/order = {3/5})")
print(f"  failure probability Q = {sol.failure_probability:.12f}")
print(f"  correct probability   = {sol.correct_probability:.12f}")

# the same numbers straight from the solver, certificate included
ensemble = family.ensemble()
report = solve_rank1_symmetric(ensemble)
print("solver")
print(f"  detection rate R      = {report.detection_rate:.12f}")
print(f"  failure probability Q = {report.failure_probability:.12f}")
print(f"  certified optimal     = {report.certified}")

# the square-root measurement never gives up, but pays in confidence
srm_ops, srm_conf = square_root_measurement(family)
print("square-root measurement")
print(f"  confidence            = {srm_conf:.12f}  (below C = {sol.confidence:.12f})")

# pushing one coefficient toward zero drives the failure probability up
print("smallest |c_l|^2 vs failure probability:")
for w in (0.30, 0.20, 0.10, 0.05):
    rest = np.sqrt((1.0 - w) / 2.0)
    cw = np.array([rest, rest, np.sqrt(w)])
    fam = SymmetricFamily(order=5, purity=1.0, coefficients=cw)
    s = pure_symmetric_solution(fam)
    print(f"  min|c|^2 = {w:.2f}   Q = {s.failure_probability:.6f}")
