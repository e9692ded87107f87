import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateMappingError,
    GeometryInconsistencyError,
    InfeasibleInputError,
    MaxconfError,
    StateEnsemble,
    build_depolarized_family,
    build_symmetric_ensemble,
    eig_hermitian,
    geometry,
    is_unambiguous,
    opnorm,
    psd_power,
    solve_numeric,
    transformed_states,
    two_state_components,
)
from maxconf.operators import DEGENERACY_RTOL, TOL_ORTH, TOL_RECON
from conftest import (
    mixed_width_ensemble,
    random_coefficients,
    random_density,
    random_ensemble,
    random_pure,
)


def orthonormal_columns(cols, tol=TOL_ORTH):
    """Orthonormal basis for the column span, via SVD with a rank cutoff:
    the per-outcome reference for the batched SVD in geometry."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, s > max(tol, s[0] * 1e-12)]


def _reference_geometry(ensemble, transformed):
    """Per-outcome top blocks, detection blocks and supports, with the
    Lambda_j cross-check done one outcome at a time. The eigenvectors are
    taken of the given transformed states, so that degenerate top
    eigenspaces get the same basis as in the stacked computation."""
    rho = np.einsum("j,jab->ab", ensemble.priors, ensemble.states)
    rih = psd_power(rho, -0.5)
    rinv = psd_power(rho, -1.0)
    out = []
    for j in range(ensemble.n_states):
        tj = rih @ (ensemble.priors[j] * ensemble.states[j]) @ rih
        assert opnorm(tj - transformed[j]) < 1e-12
        spec = eig_hermitian(transformed[j])
        c = spec.eigenvalues[0]
        m = int(np.count_nonzero(spec.eigenvalues >= c - DEGENERACY_RTOL * abs(c)))
        vtop = spec.eigenvectors[:, :m]
        wj = rih @ vtop
        span = orthonormal_columns(wj)
        lam = span @ span.conj().T
        pj = vtop @ vtop.conj().T
        assert opnorm(lam - rih @ psd_power(pj @ rinv @ pj, -1.0) @ rih) <= TOL_RECON
        out.append((m, vtop, wj, lam))
    return out


def test_trine_transformed_states(trine):
    # rho = 1/2, so each transformed state is (2/3) |psi_j><psi_j|
    tr = transformed_states(trine)
    for j in range(3):
        expected = (2.0 / 3.0) * trine.states[j]
        assert opnorm(tr[j] - expected) < 1e-12


def test_trine_geometry(trine):
    geo = geometry(trine)
    assert np.allclose(geo.confidences, 2.0 / 3.0, atol=1e-12)
    assert np.array_equal(geo.degeneracies, [1, 1, 1])
    for j in range(3):
        # rank-one top projector aligned with the state itself
        assert opnorm(geo.top_projectors[j] - trine.states[j]) < 1e-10


def test_geometry_inverse_square_root():
    rng = np.random.default_rng(1)
    e = random_ensemble(rng, 3, 4)
    geo = geometry(e)
    sandwich = geo.inv_sqrt_rho @ geo.rho @ geo.inv_sqrt_rho
    assert opnorm(sandwich - geo.rho_support) < 1e-10


def test_geometry_supports_are_projectors():
    rng = np.random.default_rng(2)
    e = random_ensemble(rng, 3, 3)
    geo = geometry(e)
    for lam in geo.supports:
        assert opnorm(lam @ lam - lam) < 1e-9
    for j, p in enumerate(geo.top_projectors):
        assert int(round(float(np.trace(p).real))) == geo.degeneracies[j]


def test_geometry_confidences_are_top_eigenvalues():
    rng = np.random.default_rng(3)
    e = random_ensemble(rng, 4, 3)
    geo = geometry(e)
    tr = transformed_states(e)
    for j in range(3):
        top = float(np.linalg.eigvalsh(tr[j])[-1])
        assert geo.confidences[j] == pytest.approx(top, abs=1e-12)


def test_unambiguous_orbit():
    # d = N pure symmetric orbits are discriminated without error
    psi = np.array([np.sqrt(0.8), np.sqrt(0.2)])
    e = build_symmetric_ensemble(psi, 2)
    geo = geometry(e)
    assert np.allclose(geo.confidences, 1.0, atol=1e-12)
    flag, residuals = is_unambiguous(e, geo)
    assert flag
    assert residuals["confidence_deviation"] < 1e-9


def test_trine_not_unambiguous(trine):
    flag, residuals = is_unambiguous(trine)
    assert not flag
    assert residuals["confidence_deviation"] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 8])
def test_tiny_prior_fails_the_cross_check_not_a_psd_test(seed):
    # priors (1e-7, 1/2, 1/2 - 1e-7): P_j rho^-1 P_j has norm ~1e7, so its
    # rounding noise (~2e-9) must trip neither an absolute Hermiticity nor an
    # absolute PSD tolerance; the two routes to Lambda_j then disagree and
    # the documented error follows
    rng = np.random.default_rng(seed)
    states = np.stack([np.outer(v, v.conj()) for v in (random_pure(rng, 3) for _ in range(3))])
    e = StateEnsemble(dim=3, priors=np.array([1e-7, 0.5, 0.5 - 1e-7]), states=states)
    with pytest.raises(GeometryInconsistencyError, match="outcome 2 disagree"):
        geometry(e)


def _orthogonal_states(priors):
    d = len(priors)
    return StateEnsemble(dim=d, priors=np.array(priors),
                         states=np.stack([np.diag(np.eye(d)[j]) for j in range(d)]).astype(complex))


@pytest.mark.parametrize("priors", [
    (1e-12, 1 - 1e-12), (1e-10, 1 - 1e-10), (1e-9, 1 - 1e-9), (1e-12, 0.5, 0.5 - 1e-12),
], ids=["qubit-1e-12", "qubit-1e-10", "qubit-1e-9", "qutrit-1e-12"])
def test_state_below_the_support_cutoff_is_refused(priors):
    # the first state's weight lies below rho's support cutoff, so C_1 = 0
    # and rho^-1/2 sends its top eigenvectors to zero; the solver used to
    # double Z until it overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MaxconfError, match="outcome 1 has no weight"):
            solve_numeric(_orthogonal_states(priors))


def test_state_above_the_support_cutoff_certifies():
    report = solve_numeric(_orthogonal_states((1e-8, 1 - 1e-8)))
    assert report.certified
    assert np.allclose(report.confidences, 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 8])
def test_tiny_prior_below_the_support_cutoff_still_solves(seed):
    # priors (1e-11, 1/2, 1/2 - 1e-11): the first state keeps a sliver of
    # weight on rho's kept support, so C_1 ~ 1e-11 with m_1 = 1
    rng = np.random.default_rng(seed)
    states = np.stack([np.outer(v, v.conj()) for v in (random_pure(rng, 3) for _ in range(3))])
    e = StateEnsemble(dim=3, priors=np.array([1e-11, 0.5, 0.5 - 1e-11]), states=states)
    report = solve_numeric(e)
    assert report.certified
    assert 0.0 < report.confidences[0] < 1e-10


def test_two_state_components_recombine():
    rng = np.random.default_rng(8)
    c = random_coefficients(rng, 2)
    e = build_depolarized_family(c, 2, 0.6)
    geo = geometry(e)
    sigmas, weights = two_state_components(e, geo)
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(weights > 0)
    rho = geo.rho
    assert opnorm(weights[0] * sigmas[0] + weights[1] * sigmas[1] - rho) < 1e-9
    for s in sigmas:
        assert float(np.trace(s).real) == pytest.approx(1.0, abs=1e-10)
        assert float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0]) > -1e-9
    # the pieces live on the orthogonal top eigenspaces
    assert opnorm(geo.top_projectors[0] @ geo.top_projectors[1]) < 1e-9


def test_two_state_components_spectral_route():
    rng = np.random.default_rng(9)
    pri = (0.45, 0.55)
    states = (random_density(rng, 2), random_density(rng, 2))
    e = StateEnsemble(dim=2, priors=pri, states=states)
    geo = geometry(e)
    sigmas, weights = two_state_components(e, geo)
    from maxconf import psd_power

    sqrt_rho = psd_power(geo.rho, 0.5)
    for j in range(2):
        spectral = sqrt_rho @ geo.top_projectors[j] @ sqrt_rho
        assert opnorm(weights[j] * sigmas[j] - spectral) < 1e-9


def test_two_state_components_rejects_singular_split():
    # identical states give C_1 = C_2 = 1/2, where the mixing matrix is singular
    e = StateEnsemble(
        dim=2,
        priors=(0.5, 0.5),
        states=(np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
    )
    with pytest.raises(DegenerateMappingError):
        two_state_components(e)


def test_two_state_components_needs_two_states(trine):
    with pytest.raises(InfeasibleInputError):
        two_state_components(trine)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_two_state_split_property(seed):
    rng = np.random.default_rng(seed)
    e = random_ensemble(rng, 2, 2)
    geo = geometry(e)
    c1, c2 = geo.confidences
    if abs(c1 + c2 - 1.0) < 1e-6:
        return
    if opnorm(geo.top_projectors[0] + geo.top_projectors[1] - geo.rho_support) > 1e-8:
        return
    sigmas, weights = two_state_components(e, geo)
    assert opnorm(weights[0] * sigmas[0] + weights[1] * sigmas[1] - geo.rho) < 1e-8


def test_geometry_mixed_widths_match_per_outcome_reference():
    rng = np.random.default_rng(21)
    e = mixed_width_ensemble(rng)
    geo = geometry(e)
    assert geo.degeneracies.tolist() == [2, 2, 1]
    for j, (m, vtop, wj, lam) in enumerate(_reference_geometry(e, geo.transformed)):
        assert geo.degeneracies[j] == m
        assert geo.top_vectors[j].shape == geo.detection_blocks[j].shape == (e.dim, 2)
        assert np.max(np.abs(geo.top_vectors[j, :, :m] - vtop)) < 1e-12
        assert np.max(np.abs(geo.detection_blocks[j, :, :m] - wj)) < 1e-12
        # the padding past column m_j is exactly zero
        assert not np.any(geo.top_vectors[j, :, m:]) and not np.any(geo.detection_blocks[j, :, m:])
        assert np.max(np.abs(geo.supports[j] - lam)) < 1e-12
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    assert np.max(np.abs(report.confidences - geo.confidences)) < 1e-8
