"""Geometry of maximum-confidence discrimination.

For an ensemble {eta_j, rho_j} with average state rho, the confidence of
outcome j is the largest eigenvalue C_j of the transformed state

    rho~_j = rho^(-1/2) (eta_j rho_j) rho^(-1/2)

with the inverse square root taken on the support of rho. The transformed
states resolve the support projector of rho, so the C_j and their top
eigenspaces fix everything a maximum-confidence measurement can do. This
module computes that data once and hands it to the solvers:

* P_j: projector onto the top eigenspace of rho~_j (degeneracy m_j),
* Lambda_j: projector onto rho^(-1/2) applied to that eigenspace, the
  subspace any confidence-C_j detection operator must live in.

Lambda_j is computed two independent ways (orthonormalization of the mapped
eigenvectors, and the congruence formula through (P_j rho^-1 P_j)^+) and the
results are cross-checked; a disagreement means the input is too
ill-conditioned to trust and raises GeometryInconsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import StateEnsemble, average_state, validate
from .errors import (
    DegenerateMappingError,
    GeometryInconsistencyError,
    InfeasibleInputError,
)
from .operators import (
    DEGENERACY_RTOL,
    SPLIT_TOL,
    TOL_CONF,
    TOL_HERM,
    TOL_ORTH,
    TOL_PSD,
    TOL_RECON,
    eig_hermitian,
    hermitian_part,
    opnorm,
    psd_power,
    support_cutoff,
)


@dataclass(frozen=True)
class MCGeometry:
    """Spectral data of the transformed states of an ensemble.

    Arrays are indexed by outcome j = 0..N-1 (matching ensemble order).

    Attributes
    ----------
    dim : ambient dimension.
    rho : average state.
    rho_support : projector onto the support of rho.
    inv_sqrt_rho : rho^(-1/2) on the support.
    transformed : (N, d, d) array of rho~_j.
    confidences : (N,) top eigenvalues C_j.
    degeneracies : (N,) multiplicities m_j of the top eigenvalues.
    top_projectors : (N, d, d) projectors P_j.
    top_vectors : (N, d, b) stack, b = max_j m_j: the first m_j columns of
        top_vectors[j] are orthonormal top eigenvectors of rho~_j, the
        columns after them exactly zero.
    detection_blocks : (N, d, b) stack W = rho^(-1/2) @ top_vectors, zero
        past column m_j in the same way; with W_j the first m_j columns of
        detection_blocks[j], every confidence-C_j detection operator is
        W_j a_j W_j^dagger with a_j >= 0.
    supports : (N, d, d) projectors Lambda_j onto the column span of W_j.
    """

    dim: int
    rho: np.ndarray
    rho_support: np.ndarray
    inv_sqrt_rho: np.ndarray
    transformed: np.ndarray
    confidences: np.ndarray
    degeneracies: np.ndarray
    top_projectors: np.ndarray
    top_vectors: np.ndarray
    detection_blocks: np.ndarray
    supports: np.ndarray


def _transform(ensemble: StateEnsemble, rih: np.ndarray) -> np.ndarray:
    """The stack of rih (eta_j rho_j) rih, symmetrized, shape (N, d, d)."""
    return hermitian_part(rih @ (ensemble.priors[:, None, None] * ensemble.states) @ rih)


def transformed_states(ensemble: StateEnsemble) -> np.ndarray:
    """The operators rho^(-1/2) eta_j rho_j rho^(-1/2), shape (N, d, d)."""
    return _transform(ensemble, psd_power(average_state(ensemble), -0.5))


def geometry(ensemble: StateEnsemble) -> MCGeometry:
    """Compute the full discrimination geometry of a valid ensemble.

    Every step acts on all outcomes at once: one eigendecomposition of rho
    (its support projector, rho^-1/2 and rho^-1), one of the stacked
    transformed states, one SVD of the detection blocks zero-padded to the
    widest top eigenspace, and one stacked cross-check. Raises
    InfeasibleInputError for an outcome whose state has no weight on the
    kept support of rho.
    """
    report = validate(ensemble)
    if not report.ok:
        msgs = "; ".join(f"{u.name} ({u.magnitude:.3e})" for u in report.violations)
        raise InfeasibleInputError(f"ensemble fails validation: {msgs}")

    rho = hermitian_part(average_state(ensemble))
    rho_spec = eig_hermitian(rho)
    rho_supp = rho_spec.power(0.0)
    rih = rho_spec.power(-0.5)
    rinv = rho_spec.power(-1.0)

    transformed = _transform(ensemble, rih)
    spec = eig_hermitian(transformed)
    w, v = spec.eigenvalues, spec.eigenvectors
    confidences = w[:, 0].copy()
    # top cluster: eigenvalues within a relative gap of the maximum
    thresh = confidences - DEGENERACY_RTOL * np.abs(confidences)
    degeneracies = np.count_nonzero(w >= thresh[:, None], axis=1)
    width = int(degeneracies.max())
    cols = np.arange(width) < degeneracies[:, None]
    vtop = v[:, :, :width] * cols[:, None, :]
    top_projectors = vtop @ vtop.conj().swapaxes(1, 2)

    blocks = rih @ vtop
    u, sv, _ = np.linalg.svd(blocks, full_matrices=False)
    # W_j^dagger W_j >= 1 on rho's kept support and the padding appends zero
    # singular values, so the first m_j columns of u span Lambda_j; a top
    # eigenvector off that support (C_j = 0: all weight below the cutoff) is lost
    lost = np.flatnonzero((cols & (sv <= TOL_ORTH)).any(axis=1))
    if lost.size:
        raise InfeasibleInputError(f"outcome {lost[0] + 1} has no weight on rho's kept support")
    lam = (u * cols[:, None, :]) @ u.conj().swapaxes(1, 2)

    # independent route: congruence through the pseudo-inverse of
    # P_j rho^-1 P_j, which must give the same projector; its norm can reach
    # ||rho^-1|| = 1 / (smallest nonzero eigenvalue of rho), so its
    # Hermiticity and PSD tests scale with that norm
    w_rho = rho_spec.eigenvalues
    scale = max(1.0 / float(w_rho[w_rho > support_cutoff(w_rho)].min()), 1.0)
    prp = eig_hermitian(top_projectors @ rinv @ top_projectors, TOL_HERM * scale)
    lam_alt = rih @ prp.power(-1.0, TOL_PSD * scale) @ rih
    dev = np.linalg.norm(lam - lam_alt, 2, axis=(1, 2))
    bad = np.flatnonzero(dev > TOL_RECON)
    if bad.size:
        j = int(bad[0])
        raise GeometryInconsistencyError(
            f"two support computations for outcome {j + 1} disagree by {dev[j]:.3e}; "
            "the ensemble is too ill-conditioned"
        )

    return MCGeometry(
        dim=ensemble.dim,
        rho=rho,
        rho_support=rho_supp,
        inv_sqrt_rho=rih,
        transformed=transformed,
        confidences=confidences,
        degeneracies=degeneracies,
        top_projectors=top_projectors,
        top_vectors=vtop,
        detection_blocks=blocks,
        supports=hermitian_part(lam),
    )


def is_unambiguous(ensemble: StateEnsemble, geo: MCGeometry | None = None) -> tuple[bool, dict]:
    """Whether every confidence equals one, i.e. errorless discrimination.

    Equivalent to the top eigenspaces being mutually orthogonal and each
    detection support annihilating the other states. Returns (flag, residuals)
    with the measured deviations backing the answer.
    """
    if geo is None:
        geo = geometry(ensemble)
    conf_dev = float(np.max(np.abs(geo.confidences - 1.0)))
    pairs = ~np.eye(ensemble.n_states, dtype=bool)  # (k, j) with j != k

    def worst(left, right):
        prods = (left[:, None] @ right[None])[pairs]
        return float(np.linalg.norm(prods, 2, axis=(1, 2)).max(initial=0.0))

    cross_p = worst(geo.top_projectors, geo.top_projectors)
    cross_state = worst(geo.supports, ensemble.states)
    ok = conf_dev <= TOL_CONF and cross_p <= TOL_CONF and cross_state <= TOL_CONF
    residuals = {
        "confidence_deviation": conf_dev,
        "projector_overlap": cross_p,
        "support_state_overlap": cross_state,
    }
    return ok, residuals


def two_state_components(
    ensemble: StateEnsemble, geo: MCGeometry | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split the average state of a two-state ensemble along its top eigenspaces.

    For N = 2 ensembles whose transformed states act on the full support
    (P_1 + P_2 = support of rho, the generic situation), the average state
    splits as rho = q_1 sigma_1 + q_2 sigma_2 where sigma_j is the
    normalized piece rho^(1/2) P_j rho^(1/2) / q_j. The sigma_j are unit
    trace, mutually exclusive in the sense of the construction, and satisfy

        q_1 sigma_1 = [eta_1 rho_1 C_2 - eta_2 rho_2 (1 - C_2)] / (C_1 + C_2 - 1)

    which is the formula used here; the spectral route is recomputed as a
    cross-check. Returns (sigmas, weights) with sigmas of shape (2, d, d).

    Raises DegenerateMappingError when C_1 + C_2 = 1 (the split is singular)
    and InfeasibleInputError when the ensemble is not of this two-state form.
    """
    if ensemble.n_states != 2:
        raise InfeasibleInputError("component split is defined for exactly two states")
    if geo is None:
        geo = geometry(ensemble)
    c1, c2 = float(geo.confidences[0]), float(geo.confidences[1])
    denom = c1 + c2 - 1.0
    if abs(denom) <= TOL_CONF:
        raise DegenerateMappingError(
            f"confidences sum to one within tolerance (C1 + C2 - 1 = {denom:.3e})"
        )
    psum = geo.top_projectors[0] + geo.top_projectors[1]
    if opnorm(psum - geo.rho_support) > SPLIT_TOL:
        raise InfeasibleInputError(
            "top eigenspaces do not resolve the support of the average state; "
            "the two-state split does not apply"
        )

    # invert the 2x2 mixing eta_j rho_j = C_j sigma_j + (1 - C_k) sigma_k
    e1 = ensemble.priors[0] * ensemble.states[0]
    e2 = ensemble.priors[1] * ensemble.states[1]
    unnorm1 = (e1 * c2 - e2 * (1.0 - c2)) / denom
    unnorm2 = (e2 * c1 - e1 * (1.0 - c1)) / denom

    sqrt_rho = psd_power(geo.rho, 0.5)
    dev = max(
        opnorm(unnorm1 - sqrt_rho @ geo.top_projectors[0] @ sqrt_rho),
        opnorm(unnorm2 - sqrt_rho @ geo.top_projectors[1] @ sqrt_rho),
    )
    if dev > SPLIT_TOL:
        raise GeometryInconsistencyError(
            f"algebraic and spectral component splits disagree by {dev:.3e}"
        )

    weights = np.array([float(np.trace(unnorm1).real), float(np.trace(unnorm2).real)])
    sigmas = np.stack([unnorm1 / weights[0], unnorm2 / weights[1]])
    return sigmas, weights
