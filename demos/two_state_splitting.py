"""
Two mixed states: splitting the average along the detection eigenspaces
=======================================================================

For a pair of mixed states the average rho decomposes exactly along the two
orthogonal top eigenspaces of the transformed states. The pieces sigma_1
and sigma_2 are the effective states the measurement actually distinguishes:
the pair behaves like a pure-state problem between them.
"""

import numpy as np

from maxconf import (
    SymmetricFamily,
    build_depolarized_family,
    geometry,
    qubit_mixed_solution,
    solve_numeric,
    two_state_components,
)

# two noisy qubit states separated by a polar angle
purity = 0.7
angle = np.pi / 4
c = np.array([np.cos(angle / 2.0), np.sin(angle / 2.0)])
ensemble = build_depolarized_family(c, 2, purity)
geo = geometry(ensemble)

print(f"confidences: C_1 = {geo.confidences[0]:.9f}, C_2 = {geo.confidences[1]:.9f}")

sigmas, weights = two_state_components(ensemble, geo)
print(f"split weights: q_1 = {weights[0]:.9f}, q_2 = {weights[1]:.9f}")

# the split is exact: q_1 sigma_1 + q_2 sigma_2 recombines to rho
recon = weights[0] * sigmas[0] + weights[1] * sigmas[1]
print(f"recombination error: {np.max(np.abs(recon - geo.rho)):.2e}")
print(f"component purities: Tr sigma_1^2 = {np.trace(sigmas[0] @ sigmas[0]).real:.6f}, "
      f"Tr sigma_2^2 = {np.trace(sigmas[1] @ sigmas[1]).real:.6f}")

# the top eigenspaces are orthogonal, so the components never overlap there:
# with V_j an orthonormal basis of top eigenspace j, V_1^dagger V_2 vanishes
v1, v2 = geo.top_vectors
cross = np.linalg.norm(v1.conj().T @ v2)
print(f"top eigenspace overlap ||V_1^dagger V_2||_F: {cross:.2e}")

# closed form for the failure probability, checked against the solver
sol = qubit_mixed_solution(SymmetricFamily(order=2, purity=purity, coefficients=c))
numeric = solve_numeric(ensemble, geo=geo)
print(f"\nfailure probability: closed form {sol.failure_probability:.9f}, "
      f"numeric {numeric.failure_probability:.9f} "
      f"(formula: purity * cos(angle) = {purity * np.cos(angle):.9f})")
print(f"numeric solve certified: {numeric.certified}")
