"""Geometry of maximum-confidence discrimination.

For an ensemble {eta_j, rho_j} with average state rho, the confidence of
outcome j is the largest eigenvalue C_j of the transformed state

    rho~_j = rho^(-1/2) (eta_j rho_j) rho^(-1/2)

with the inverse square root taken on the support of rho. The transformed
states resolve the support projector of rho, so the C_j and their top
eigenspaces fix everything a maximum-confidence measurement can do. This
module computes that data once and hands it to the solvers as bases,
(N, d, b) stacks with b = max_j m_j:

* V_j: the top eigenspace of rho~_j (degeneracy m_j), P_j = V_j V_j^dagger,
* Q_j: rho^(-1/2) applied to that eigenspace, the support
  Lambda_j = Q_j Q_j^dagger any confidence-C_j detection operator lives in.

None of it needs rho^(-1/2). The factors rho_j = F_j F_j^dagger stack to
F = [sqrt(eta_j) F_j] = U Sigma V^dagger, so rho~_j = U V_j^dagger V_j U^dagger
with V_j the rows of V of state j: C_j = sigma_max(V_j)^2, the top
eigenvectors are U g_j and W_j = U Sigma^-1 g_j for the top right singular
vectors g_j of V_j (the square-root-measurement algebra of Eldar & Forney,
IEEE TIT 47, 858 (2001)). Ranks are cut at rounding floors only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import StateEnsemble, average_state, validate
from .errors import DegenerateMappingError, InfeasibleInputError
from .operators import (
    DEGENERACY_RTOL,
    EPS,
    SPLIT_TOL,
    TOL_CONF,
    hermitian_part,
    psd_power,
)


@dataclass(frozen=True)
class MCGeometry:
    """Spectral data of the transformed states of an ensemble.

    Arrays are indexed by outcome j = 0..N-1 (matching ensemble order).

    Attributes
    ----------
    rho : average state.
    confidences : (N,) top eigenvalues C_j.
    degeneracies : (N,) multiplicities m_j of the top eigenvalues.
    top_vectors : (N, d, b) stack, b = max_j m_j: the first m_j columns of
        top_vectors[j] are orthonormal top eigenvectors of rho~_j, the
        columns after them exactly zero.
    detection_blocks : (N, d, b) stack W = rho^(-1/2) @ top_vectors, zero
        past column m_j in the same way; with W_j the first m_j columns of
        detection_blocks[j], every confidence-C_j detection operator is
        W_j a_j W_j^dagger with a_j >= 0.
    support_bases : (N, d, b) stack Q, zero past column m_j in the same way,
        its first m_j columns an orthonormal basis of W_j's span Lambda_j.
    """

    rho: np.ndarray
    confidences: np.ndarray
    degeneracies: np.ndarray
    top_vectors: np.ndarray
    detection_blocks: np.ndarray
    support_bases: np.ndarray


def transformed_states(ensemble: StateEnsemble) -> np.ndarray:
    """The operators rho^(-1/2) eta_j rho_j rho^(-1/2), shape (N, d, d)."""
    rih = psd_power(average_state(ensemble), -0.5)
    return hermitian_part(rih @ (ensemble.priors[:, None, None] * ensemble.states) @ rih)


def geometry(ensemble: StateEnsemble) -> MCGeometry:
    """Compute the full discrimination geometry of a valid ensemble.

    Every step acts on all outcomes at once: one eigh of the stacked states,
    one SVD of F, one of the stacked V_j and one QR of the detection blocks
    zero-padded to the widest top eigenspace. Raises InfeasibleInputError
    for an outcome whose state has no weight on the kept support of rho: a
    state with weight there has C_j >= Tr rho~_j / d >= eta_j / d, one
    without has C_j at rounding level, and half that bound parts the two.
    """
    report = validate(ensemble)
    if not report.ok:
        msgs = "; ".join(f"{u.name} ({u.magnitude:.3e})" for u in report.violations)
        raise InfeasibleInputError(f"ensemble fails validation: {msgs}")

    n, d, priors = ensemble.n_states, ensemble.dim, ensemble.priors
    # rho_j = F_j F_j^dagger over the eigenvalues above the rounding floor
    # d u ||rho_j|| of the eigh, which sorts them ascending: the k = max_j
    # rank rho_j kept columns are the last k
    lam, vec = np.linalg.eigh(hermitian_part(ensemble.states))
    kept = lam > d * EPS * lam[:, -1:]
    k = int(kept.sum(axis=1).max())
    lam, kept = lam[:, -k:], kept[:, -k:]
    f = vec[:, :, -k:] * np.sqrt(np.where(kept, lam, 0.0) * priors[:, None])[:, None, :]
    # the eigh tilts the eigenvector of lambda by up to d u ||rho_j|| / lambda,
    # so F's column for it is off by d u ||rho_j|| sqrt(eta_j / lambda); a
    # singular value of F below the root sum of squares of those is rounding
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=kept)
    floor = d * EPS * np.sqrt(priors @ (lam[:, -1] ** 2 * inv.sum(axis=1)))
    u, sigma, vh = np.linalg.svd(f.transpose(1, 0, 2).reshape(d, n * k), full_matrices=False)
    r = int(np.count_nonzero(sigma > floor))
    u, sigma = u[:, :r], sigma[:r]
    _, s, gh = np.linalg.svd(vh[:r].conj().T.reshape(n, k, r), full_matrices=False)

    confidences = s[:, 0] ** 2
    lost = np.flatnonzero(2 * d * confidences < priors)
    if lost.size:
        raise InfeasibleInputError(f"outcome {lost[0] + 1} has no weight on rho's kept support")
    # top cluster: eigenvalues within a relative gap of the maximum
    degeneracies = np.count_nonzero(s**2 >= confidences[:, None] * (1 - DEGENERACY_RTOL), axis=1)
    width = int(degeneracies.max())
    cols = np.arange(width) < degeneracies[:, None]
    g = gh[:, :width].conj().swapaxes(1, 2) * cols[:, None, :]
    vtop = u @ g
    blocks = (u / sigma) @ g
    # W_j has full column rank, so the first m_j columns of its Q span Lambda_j
    q = np.linalg.qr(blocks)[0] * cols[:, None, :]

    return MCGeometry(
        rho=hermitian_part(average_state(ensemble)),
        confidences=confidences,
        degeneracies=degeneracies,
        top_vectors=vtop,
        detection_blocks=blocks,
        support_bases=q,
    )


def is_unambiguous(ensemble: StateEnsemble, geo: MCGeometry | None = None) -> tuple[bool, dict]:
    """Whether every confidence equals one, i.e. errorless discrimination.

    Equivalent to V_k^dagger V_j = 0 (orthogonal top eigenspaces) and
    Q_k^dagger rho_j = 0 (each detection support annihilates the other states)
    for k != j. Returns (flag, residuals) with the measured deviations.
    """
    if geo is None:
        geo = geometry(ensemble)
    conf_dev = float(np.max(np.abs(geo.confidences - 1.0)))
    pairs = ~np.eye(ensemble.n_states, dtype=bool)  # (k, j) with j != k

    def worst(left, right):
        prods = (left[:, None] @ right[None])[pairs]
        return float(np.linalg.norm(prods, 2, axis=(1, 2)).max(initial=0.0))

    cross_p = worst(geo.top_vectors.conj().swapaxes(1, 2), geo.top_vectors)
    cross_state = worst(geo.support_bases.conj().swapaxes(1, 2), ensemble.states)
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

    For N = 2 ensembles whose top eigenspaces cover the kept support of rho
    (P_1 + P_2 = support of rho, the generic situation), the average state
    splits as rho = q_1 sigma_1 + q_2 sigma_2 (Herzog, PRA 79, 032323 (2009))
    with q_j sigma_j = rho^(1/2) P_j rho^(1/2) = (rho W_j)(rho W_j)^dagger.
    The formula used here,

        q_1 sigma_1 = [eta_1 rho_1 C_2 - eta_2 rho_2 (1 - C_2)] / (C_1 + C_2 - 1),

    gives pieces that always sum to rho; the spectral ones sum to rho only
    when P_1 + P_2 covers the support, so one comparison of the two routes
    decides both that the split applies and that it is accurate. Returns
    (sigmas, weights) with sigmas of shape (2, d, d).

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

    # invert the 2x2 mixing eta_j rho_j = C_j sigma_j + (1 - C_k) sigma_k
    e1, e2 = ensemble.priors[:, None, None] * ensemble.states
    unnorm = np.stack([e1 * c2 - e2 * (1.0 - c2), e2 * c1 - e1 * (1.0 - c1)]) / denom

    root = geo.rho @ geo.detection_blocks
    spectral = root @ root.conj().swapaxes(1, 2)
    dev = float(np.linalg.norm(unnorm - spectral, 2, axis=(1, 2)).max())
    if dev > SPLIT_TOL:
        raise InfeasibleInputError(
            "top eigenspaces do not resolve the support of the average state; the algebraic "
            f"and spectral splits differ by {dev:.3e}, so the two-state split does not apply"
        )

    weights = np.trace(unnorm, axis1=1, axis2=2).real
    return unnorm / weights[:, None, None], weights
