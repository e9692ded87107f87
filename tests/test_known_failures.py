"""Reproducers of the defects listed as open in ROADMAP.md, one strict xfail
each, with the passing controls that bound them. A fix flips its own xfail
by making the assertion true; the assertion is never loosened. Each input
runs in a few milliseconds."""

import itertools

import numpy as np
import pytest

from maxconf import (DetectionSet, MaxconfError, StateEnsemble, SymmetricFamily, geometry, solve_numeric,
                     verify_certificate)
from maxconf.operators import CERT_TOL, psd_power
from conftest import KNOWN, pure_qubit_pair, random_density
from test_robustness import adversarial_ensembles, certified_q, reordered


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 8: equal states make the Schur complement singular")
def test_repeated_state_gets_an_answer():
    # two copies of one pure qubit: Q = 0 and both confidences 1/2 exactly,
    # but the first Newton system is singular (cond 1.5e16)
    u = np.array([np.cos(1.36), np.exp(0.3j) * np.sin(1.36)])
    e = StateEnsemble(dim=2, priors=[0.5, 0.5], states=np.stack([np.outer(u, u.conj())] * 2))
    report = solve_numeric(e)
    assert report.certified, report.certificate.failures
    assert report.failure_probability <= 1e-8
    assert np.max(np.abs(report.confidences - 0.5)) <= 1e-8


@pytest.mark.parametrize("theta", [1e-4, 1e-5])
def test_never_concluding_is_not_certified_for_a_near_parallel_pair(theta):
    # the optimal R is 6.0e-9 at 1e-4 and 6.0e-11 at 1e-5, and solve_numeric
    # finds it; Pi_0 = 1 with Z = 0 passes every residual at CERT_TOL, and
    # fails on the lower rank bound alone: rank Z = 0 < max_j m_j = 1
    e = pure_qubit_pair(theta)
    never = DetectionSet.from_conclusive(np.zeros((2, 2, 2)))
    cert = verify_certificate(e, never, np.zeros((2, 2)))
    assert not cert.accepted
    assert cert.failures == ["rank_bound"]


def _shrunken_own_dual(theta):
    """The certified solve of pure_qubit_pair(theta), with 0.1 Z in place of
    its dual Z: Tr(0.1 Z) < R, which weak duality rules out for a dual."""
    e = pure_qubit_pair(theta)
    report = solve_numeric(e)
    assert report.certified, report.certificate.failures
    return verify_certificate(e, report.detection, 0.1 * report.certificate.z)


def test_shrunken_own_dual_is_rejected_at_a_wider_angle():
    # at theta = 3e-4 the residuals of 0.1 Z rise above CERT_TOL
    assert _shrunken_own_dual(3e-4).failures == [
        "support_slack_min_eigenvalue", "stationarity_residual", "trace_gap"]


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 3: certificate residuals are absolute while R is tiny")
@pytest.mark.parametrize("theta", [1e-4, 3e-5, 1e-5])
def test_shrunken_own_dual_is_not_accepted_for_a_near_parallel_pair(theta):
    # Tr(0.1 Z) - R is -5.4e-9, -4.9e-10 and -5.4e-11: every residual
    # scales with R, far below the absolute CERT_TOL
    assert not _shrunken_own_dual(theta).accepted


def _split_top(delta):
    """Three qutrit states whose first transformed state has top eigenvalues
    0.4 and 0.4 (1 - delta): pick the transformed states and rho, then
    eta_j rho_j = rho^1/2 T_j rho^1/2, drawn in a fixed order from one seed."""
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    t1 = u @ np.diag([0.4, 0.4 * (1 - delta), 0.05]) @ u.conj().T
    t2 = 0.25 * np.outer(v, v.conj()) / np.vdot(v, v).real
    root = psd_power(rho, 0.5)
    weighted = root @ np.stack([t1, t2, np.eye(3) - t1 - t2]) @ root
    priors = np.trace(weighted, axis1=1, axis2=2).real
    return StateEnsemble(dim=3, priors=priors, states=weighted / priors[:, None, None])


def test_exactly_degenerate_top_keeps_its_width():
    assert geometry(_split_top(0.0)).degeneracies[0] == 2


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 2: DEGENERACY_RTOL merges a 1e-8 split, and Q jumps")
@pytest.mark.parametrize("delta", [1e-8, 1e-10])
def test_near_degenerate_top_stays_simple(delta):
    # at delta = 1e-6, m_1 = 1 and Q = 0.963578024; merging the split top
    # gives m_1 = 2 and Q = 0.655614100, both certified
    reference = solve_numeric(_split_top(1e-6)).failure_probability
    e = _split_top(delta)
    assert geometry(e).degeneracies[0] == 1
    assert abs(solve_numeric(e).failure_probability - reference) <= 1e-8


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 2: a top split near DEGENERACY_RTOL leaves the top vector inaccurate")
@pytest.mark.parametrize("order, dim", [(8, 4), (9, 3)])
def test_nearly_pure_flat_family_certifies(order, dim):
    # exact Q = 0; at purity 1e-8 the top eigenvalue stays simple (m = 1)
    # and the solve is uncertified on support_slack_min_eigenvalue and
    # stationarity_residual, with Q = 1.5e-7 (order 8) and 9.9e-8 (order 9)
    report = solve_numeric(SymmetricFamily.flat(order=order, dim=dim, purity=1e-8).ensemble())
    assert report.certified, report.certificate.failures
    assert report.failure_probability <= 1e-8


def _rare_state(eta):
    """An unambiguous pair in d = 6: a rank-3 state of prior eta and a
    rank-2 state, so C = (1, 1) and m = (3, 2)."""
    rng = np.random.default_rng(0)
    states = np.stack([random_density(rng, 6, 3), random_density(rng, 6, 2)])
    return StateEnsemble(dim=6, priors=[eta, 1 - eta], states=states)


def test_rare_state_at_prior_1e_5_certifies():
    report = solve_numeric(_rare_state(1e-5))
    assert report.certified, report.certificate.failures


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 9: ranks are cut against one scale, not the rare outcome's")
@pytest.mark.parametrize("eta", [1e-6, 1e-8, 1e-12])
def test_rare_state_certifies(eta):
    # 1e-6 leaves the cone at duality gap 1.0e-10; 1e-8 and 1e-12 stop with
    # Z's rank 2 below the lower bound 3 and fail on rank_bound alone
    report = solve_numeric(_rare_state(eta))
    assert report.certified, report.certificate.failures


def _near_duplicates(seed, eps):
    """Two qutrit states (1 - eps) psi psi^dagger + eps sigma_j, uniform
    priors: psi drawn first, then each full-rank sigma_j."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = v / np.linalg.norm(v)
    pure = np.outer(psi, psi.conj())
    states = np.stack([(1 - eps) * pure + eps * random_density(rng, 3, 3) for _ in range(2)])
    return StateEnsemble(dim=3, priors=[0.5, 0.5], states=states)


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 9: the loop mixes X1 of order 1 with Tr Z of order R")
def test_near_duplicate_states_certify():
    # the optimal R is about 3e-10; 16 of the 40 seeds leave the cone at a
    # duality gap near 1e-17 or stop uncertified
    failed = []
    for seed in range(40):
        try:
            report = solve_numeric(_near_duplicates(seed, 1e-9))
        except MaxconfError as exc:
            failed.append((seed, str(exc)))
            continue
        if not report.certified:
            failed.append((seed, report.certificate.failures))
    assert failed == []


@pytest.mark.xfail(strict=True, raises=KNOWN,
                   reason="ROADMAP item 16: a nearly singular rho's rounding moves the certified Q")
def test_outcome_order_does_not_move_a_certified_answer():
    # draw 59 of adversarial_ensembles(20, 0), near_rank_rho in d = 2 with
    # N = 3 and rho's eigenvalues 1.18e-14 and 1: as given, reversed and in
    # order (2, 3, 1) it certifies Q = 0.261864232, 0.264362714 and
    # 0.263037240; the 60-digit geometry gives 0.260647310 in every order
    kind, e = next(itertools.islice(adversarial_ensembles(20, 0), 59, None))
    assert kind == "near_rank_rho"
    qs = [certified_q(reordered(e, order)) for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0])]
    assert None not in qs, qs
    assert max(qs) - min(qs) <= 2.0 * CERT_TOL, qs
