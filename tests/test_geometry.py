import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateMappingError,
    InfeasibleInputError,
    MaxconfError,
    StateEnsemble,
    average_state,
    build_depolarized_family,
    build_symmetric_ensemble,
    eig_hermitian,
    geometry,
    is_unambiguous,
    opnorm,
    psd_power,
    solve_numeric,
    support_projector,
    transformed_states,
    two_state_components,
)
from maxconf.operators import DEGENERACY_RTOL
from conftest import (
    mixed_width_ensemble,
    projectors,
    pure_qubit_pair,
    random_coefficients,
    random_density,
    random_ensemble,
    random_pure,
)


def _reference_geometry(ensemble):
    """Per-outcome C_j, m_j, P_j, Lambda_j and W_j W_j^dagger through
    rho^(-1/2), the route geometry does without. Only basis-free quantities
    are returned: a degenerate top eigenspace may get another basis."""
    rih = psd_power(average_state(ensemble), -0.5)
    out = []
    for j in range(ensemble.n_states):
        spec = eig_hermitian(rih @ (ensemble.priors[j] * ensemble.states[j]) @ rih)
        c = spec.eigenvalues[0]
        m = int(np.count_nonzero(spec.eigenvalues >= c - DEGENERACY_RTOL * abs(c)))
        vtop = spec.eigenvectors[:, :m]
        wj = rih @ vtop
        span = np.linalg.svd(wj, full_matrices=False)[0]
        out.append((c, m, vtop @ vtop.conj().T, span @ span.conj().T, wj @ wj.conj().T))
    return out


def _assert_matches_reference(ensemble, geo, tol=1e-12):
    # the reference's subspaces are as accurate as rho^(-1/2): to within
    # tol times the condition number of rho on its support
    rho = average_state(ensemble)
    loose = tol * opnorm(rho) * opnorm(psd_power(rho, -1.0))
    tops, supports = projectors(geo.top_vectors), projectors(geo.support_bases)
    for j, (c, m, pj, lam, wwh) in enumerate(_reference_geometry(ensemble)):
        assert abs(geo.confidences[j] - c) <= tol
        assert geo.degeneracies[j] == m
        wj = geo.detection_blocks[j]
        assert opnorm(tops[j] - pj) <= loose
        assert opnorm(supports[j] - lam) <= loose
        assert opnorm(wj @ wj.conj().T - wwh) <= loose * opnorm(wwh)


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
        assert opnorm(projectors(geo.top_vectors)[j] - trine.states[j]) < 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_geometry_matches_per_outcome_reference(seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    e = random_ensemble(rng, d, n, mixed=bool(seed % 2))
    _assert_matches_reference(e, geometry(e))


def test_geometry_supports_are_projectors():
    rng = np.random.default_rng(2)
    e = random_ensemble(rng, 3, 3)
    geo = geometry(e)
    # Q_j^dagger Q_j and V_j^dagger V_j are diag(1_{m_j}, 0), so Q_j Q_j^dagger
    # and V_j V_j^dagger are projectors of rank m_j
    for bases in (geo.support_bases, geo.top_vectors):
        for j, m in enumerate(geo.degeneracies):
            gram = np.diag((np.arange(bases.shape[2]) < m).astype(float))
            assert opnorm(bases[j].conj().T @ bases[j] - gram) < 1e-9


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


@pytest.mark.parametrize("seed", range(20))
def test_is_unambiguous_matches_projector_form(seed):
    # ||V_k^dagger V_j|| = ||P_k P_j|| and ||Q_k^dagger rho_j|| = ||Lambda_k rho_j||
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    e = random_ensemble(rng, d, n, mixed=bool(seed % 2))
    geo = geometry(e)
    _, residuals = is_unambiguous(e, geo)
    tops, supports = projectors(geo.top_vectors), projectors(geo.support_bases)
    pairs = [(k, j) for k in range(n) for j in range(n) if k != j]
    overlap = max(opnorm(tops[k] @ tops[j]) for k, j in pairs)
    state_overlap = max(opnorm(supports[k] @ e.states[j]) for k, j in pairs)
    assert abs(residuals["projector_overlap"] - overlap) <= 1e-12
    assert abs(residuals["support_state_overlap"] - state_overlap) <= 1e-12


def test_trine_not_unambiguous(trine):
    flag, residuals = is_unambiguous(trine)
    assert not flag
    assert residuals["confidence_deviation"] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 8])
def test_tiny_prior_fails_the_cross_check_not_a_psd_test(seed):
    # priors (1e-7, 1/2, 1/2 - 1e-7): P_j rho^-1 P_j has norm ~1e7, and its
    # rounding noise used to make the two routes to Lambda_j disagree. The
    # name records that failure; geometry now takes neither route. These
    # pure states are linearly independent, so C_j = 1 and Lambda_j is the
    # rank-1 projector orthogonal to every other state, whatever the priors
    rng = np.random.default_rng(seed)
    vs = [random_pure(rng, 3) for _ in range(3)]
    states = np.stack([np.outer(v, v.conj()) for v in vs])
    e = StateEnsemble(dim=3, priors=np.array([1e-7, 0.5, 0.5 - 1e-7]), states=states)
    geo = geometry(e)
    assert np.max(np.abs(geo.confidences - 1.0)) <= 1e-12
    assert geo.degeneracies.tolist() == [1, 1, 1]
    for j, lam in enumerate(projectors(geo.support_bases)):
        assert opnorm(lam @ lam - lam) <= 1e-12
        assert abs(np.trace(lam).real - 1.0) <= 1e-12
        for k, v in enumerate(vs):
            if k != j:
                assert np.linalg.norm(lam @ v) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 8])
def test_tiny_prior_below_the_support_cutoff_still_solves(seed):
    # priors (p, 1/2, 1/2 - p) on three linearly independent pure qutrits:
    # every C_j = 1 however small p is, though rho's smallest eigenvalue is
    # ~p, below a 1e-9 relative cutoff on rho's spectrum at p = 1e-11; the
    # answer must not move between p = 1e-7 and 1e-11
    rng = np.random.default_rng(seed)
    states = np.stack([np.outer(v, v.conj()) for v in (random_pure(rng, 3) for _ in range(3))])
    q = []
    for p in (1e-11, 1e-7):
        e = StateEnsemble(dim=3, priors=np.array([p, 0.5, 0.5 - p]), states=states)
        assert np.max(np.abs(geometry(e).confidences - 1.0)) <= 1e-12
        report = solve_numeric(e)
        assert report.certified, report.certificate.failures
        q.append(report.failure_probability)
    assert abs(q[0] - q[1]) <= 1e-6


def _orthogonal_states(priors):
    d = len(priors)
    return StateEnsemble(dim=d, priors=np.array(priors),
                         states=np.stack([np.diag(np.eye(d)[j]) for j in range(d)]).astype(complex))


@pytest.mark.parametrize("priors", [
    (1e-35, 1 - 1e-35), (1e-40, 1 - 1e-40), (1e-40, 0.5, 0.5 - 1e-40),
], ids=["qubit-1e-35", "qubit-1e-40", "qutrit-1e-40"])
def test_state_below_the_support_cutoff_is_refused(priors):
    # the first state's factor sqrt(eta_1) lies below the rounding floor of
    # the SVD of the stacked factors, so C_1 = 0 and its top eigenvectors
    # leave rho's kept support; the solver used to double Z until it overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MaxconfError, match="outcome 1 has no weight"):
            solve_numeric(_orthogonal_states(priors))


def test_state_above_the_support_cutoff_certifies():
    for priors in ((1e-8, 1 - 1e-8), (1e-8, 0.5, 0.5 - 1e-8)):
        report = solve_numeric(_orthogonal_states(priors))
        assert report.certified, report.certificate.failures
        assert np.allclose(report.confidences, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("priors", [
    (1e-12, 1 - 1e-12), (1e-10, 1 - 1e-10), (1e-9, 1 - 1e-9),
    (1e-12, 0.5, 0.5 - 1e-12), (1e-10, 0.5, 0.5 - 1e-10), (1e-9, 0.5, 0.5 - 1e-9),
], ids=["qubit-1e-12", "qubit-1e-10", "qubit-1e-9", "qutrit-1e-12", "qutrit-1e-10", "qutrit-1e-9"])
def test_tiny_prior_of_an_orthogonal_state_certifies(priors):
    # below a 1e-9 relative cutoff on rho's spectrum, but sqrt(eta_1) is far
    # above the rounding floor of the stacked factors: C = 1, and it certifies
    e = _orthogonal_states(priors)
    assert np.allclose(geometry(e).confidences, 1.0, rtol=0.0, atol=1e-12)
    report = solve_numeric(e)
    assert report.certified, report.certificate.failures


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
    tops = projectors(geo.top_vectors)
    assert opnorm(tops[0] @ tops[1]) < 1e-9


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
        spectral = sqrt_rho @ projectors(geo.top_vectors)[j] @ sqrt_rho
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


@pytest.mark.parametrize("theta", [3e-5, 1e-5])
def test_two_state_split_of_a_near_parallel_pair(theta):
    # rho's smallest eigenvalue is below a 1e-9 relative cutoff, but geometry
    # keeps it, so P_1 + P_2 = 1 and the split applies with q_j = eta_j
    e = pure_qubit_pair(theta)
    sigmas, weights = two_state_components(e)
    assert np.max(np.abs(weights - [0.4, 0.6])) <= 1e-12
    assert opnorm(weights[0] * sigmas[0] + weights[1] * sigmas[1] - average_state(e)) <= 1e-12


def test_two_state_split_refuses_full_rank_qutrits():
    # two rank-1 top eigenspaces cannot cover a rank-3 average state
    rng = np.random.default_rng(0)
    e = StateEnsemble(dim=3, priors=(0.5, 0.5), states=(random_density(rng, 3), random_density(rng, 3)))
    with pytest.raises(InfeasibleInputError, match="do not resolve the support"):
        two_state_components(e)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_two_state_split_property(seed):
    rng = np.random.default_rng(seed)
    e = random_ensemble(rng, int(rng.integers(2, 4)), 2)
    geo = geometry(e)
    c1, c2 = geo.confidences
    if abs(c1 + c2 - 1.0) < 1e-6:
        return
    # the split applies exactly when P_1 + P_2 is rho's support projector
    miss = opnorm(projectors(geo.top_vectors).sum(axis=0) - support_projector(geo.rho))
    if miss < 1e-10:
        sigmas, weights = two_state_components(e, geo)
        assert opnorm(weights[0] * sigmas[0] + weights[1] * sigmas[1] - geo.rho) < 1e-8
    elif miss > 1e-6:
        with pytest.raises(InfeasibleInputError):
            two_state_components(e, geo)


def test_geometry_mixed_widths_match_per_outcome_reference():
    rng = np.random.default_rng(21)
    e = mixed_width_ensemble(rng)
    geo = geometry(e)
    assert geo.degeneracies.tolist() == [2, 2, 1]
    _assert_matches_reference(e, geo)
    rih = psd_power(geo.rho, -0.5)
    for j, m in enumerate(geo.degeneracies):
        vtop = geo.top_vectors[j, :, :m]
        assert geo.top_vectors[j].shape == geo.detection_blocks[j].shape == (e.dim, 2)
        assert opnorm(vtop.conj().T @ vtop - np.eye(m)) < 1e-12
        assert np.max(np.abs(geo.detection_blocks[j, :, :m] - rih @ vtop)) < 1e-12
        # the padding past column m_j is exactly zero
        assert not np.any(geo.top_vectors[j, :, m:]) and not np.any(geo.detection_blocks[j, :, m:])
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    assert np.max(np.abs(report.confidences - geo.confidences)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_isometric_embedding_keeps_confidences(seed):
    # C_j and m_j depend on the states' span only, not on the space around it
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    e = random_ensemble(rng, d, n, mixed=bool(rng.integers(2)))
    iso = np.linalg.qr(rng.standard_normal((d + 2, d)) + 1j * rng.standard_normal((d + 2, d)))[0]
    big = StateEnsemble(dim=d + 2, priors=e.priors, states=iso @ e.states @ iso.conj().T)
    geo, geo_big = geometry(e), geometry(big)
    assert np.max(np.abs(geo_big.confidences - geo.confidences)) <= 1e-12
    assert np.array_equal(geo_big.degeneracies, geo.degeneracies)
