"""
Certifying optimality, and what a failed certificate buys you
=============================================================

The numerical solver hands back a dual operator Z along with the
measurement. Checking a handful of residuals on (measurement, Z) proves
global optimality of the failure probability; no trust in the solver
required. When a certificate is wrong, the negative eigenvalue it exposes
converts into an explicit deformed measurement, which is a tangible
refutation rather than a failed inequality.
"""

import numpy as np

from maxconf import (
    DetectionSet,
    StateEnsemble,
    build_symmetric_ensemble,
    perturbation_witness,
    solve_numeric,
    verify_certificate,
)

rng = np.random.default_rng(7)


def random_state(d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = g @ g.conj().T
    return s / np.trace(s).real


# three mixed states in dimension 3 with uneven priors, no symmetry
ensemble = StateEnsemble(
    dim=3,
    priors=(0.5, 0.3, 0.2),
    states=tuple(random_state(3) for _ in range(3)),
)

report = solve_numeric(ensemble)
cert = report.certificate
print(f"detection rate R = {report.detection_rate:.9f}")
print(f"failure probability Q = {report.failure_probability:.9f}")
print(f"certified = {report.certified}  (interior-point iterations: {report.iterations})")
print("certificate conditions:")
for name, value in cert.conditions.items():
    print(f"  {name:32s} {value: .3e}")
print(f"rank Z = {cert.rank_z}, rank inconclusive = {cert.rank_inconclusive}, "
      f"dim = {ensemble.dim}")

# sabotage the dual and watch verification catch it
z_bad = 0.8 * cert.z
bad = verify_certificate(ensemble, report.detection, z_bad)
print(f"\nshrunken dual accepted: {bad.accepted}")
print(f"failed conditions: {bad.failures}")
w = perturbation_witness(ensemble, report.detection, z_bad, epsilon=1e-3)
print(f"witness kind = {w.kind}, exposing eigenvalue -{w.mu:.6f}")
print(f"deformed measurement's failed conditions: {w.certificate.failures}")

# when only positivity fails (all equalities intact), the deformation moves
# the dual functional by exactly -epsilon (2 - epsilon) mu. The three
# equiangular qubit states make this easy to stage by hand.
trine = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
det = DetectionSet.from_conclusive(np.stack([(2.0 / 3.0) * s for s in trine.states]))
mu = 0.05
z_neg = np.diag([1.0 + mu, -mu]).astype(complex)
print(f"\ntrine with a unit-trace dual whose smallest eigenvalue is {-mu}:")
for eps in (1e-2, 1e-3, 1e-4):
    w = perturbation_witness(trine, det, z_neg, epsilon=eps)
    exact = -eps * (2.0 - eps) * mu
    print(f"  eps = {eps:6.0e}   gap = {w.gap: .6e}   exact law = {exact: .6e}"
          f"   first order = {w.predicted_first_order: .6e}")
