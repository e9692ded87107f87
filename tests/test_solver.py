import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateTopEigenvalueError,
    DetectionSet,
    InfeasibleInputError,
    InvalidPhasesError,
    NoNegativeEigenvalueError,
    NotConvergedError,
    NotSymmetricError,
    StateEnsemble,
    SymmetricFamily,
    build_depolarized_family,
    build_symmetric_ensemble,
    default_phases,
    evaluate_measurement,
    geometry,
    opnorm,
    perturbation_witness,
    pure_symmetric_solution,
    qubit_mixed_solution,
    solve_numeric,
    solve_rank1_symmetric,
    verify_certificate,
)
from maxconf import solver
from maxconf.operators import CERT_TOL, RANK_CUTOFF, support_rank
from maxconf.solver import (
    _cone_factors,
    _cone_lows,
    _embed,
    _entry_tables,
    _interior_point,
    _newton_system,
)
from conftest import (
    mixed_width_ensemble,
    projectors,
    pure_qubit_pair,
    random_coefficients,
    random_density,
    random_ensemble,
    random_unitary,
    rank_raised_dual,
)


def trine_optimal_detection(trine):
    ops = np.stack([(2.0 / 3.0) * s for s in trine.states])
    return DetectionSet.from_conclusive(ops)


def test_detection_set_completeness(trine):
    det = trine_optimal_detection(trine)
    assert det.dim == 2
    assert det.n_conclusive == 3
    assert det.completeness_residual() < 1e-12
    # the trine detections exhaust the identity, so Pi_0 = 0
    assert opnorm(det.inconclusive) < 1e-12
    assert det.min_eigenvalue() > -1e-12


def test_detection_set_shape_check():
    with pytest.raises(InfeasibleInputError):
        DetectionSet(np.zeros((2, 3)))


def test_evaluate_measurement_trine(trine):
    det = trine_optimal_detection(trine)
    stats = evaluate_measurement(trine, det)
    assert stats.failure_probability == pytest.approx(0.0, abs=1e-12)
    assert stats.detection_rate == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(stats.outcome_probabilities[1:], 1.0 / 3.0, atol=1e-12)
    assert np.allclose(stats.confidences, 2.0 / 3.0, atol=1e-12)
    assert stats.correct_probability == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_evaluate_measurement_zero_probability_outcome(trine):
    ops = np.stack([np.zeros((2, 2), dtype=complex)] + [(2.0 / 3.0) * s for s in trine.states[:2]])
    det = DetectionSet.from_conclusive(ops)
    stats = evaluate_measurement(trine, det)
    assert stats.zero_probability_outcomes == [1]
    assert np.isnan(stats.confidences[0])


def test_evaluate_measurement_dimension_mismatch(trine):
    det = DetectionSet.from_conclusive(np.zeros((3, 3, 3), dtype=complex))
    with pytest.raises(InfeasibleInputError):
        evaluate_measurement(trine, det)


def test_solve_rank1_trine(trine):
    report = solve_rank1_symmetric(trine)
    assert report.mode == "analytic"
    assert report.certified
    assert report.detection_rate == pytest.approx(1.0, abs=1e-12)
    assert report.failure_probability == pytest.approx(0.0, abs=1e-12)
    # the optimal dual for the trine is rho itself
    assert opnorm(report.certificate.z - np.eye(2) / 2.0) < 1e-9
    assert report.certificate.rank_z == 2
    assert report.certificate.rank_inconclusive == 0


def test_solve_rank1_matches_qubit_closed_form():
    fam = SymmetricFamily.qubit(order=3, purity=0.5, angle=np.pi / 3)
    report = solve_rank1_symmetric(fam.ensemble())
    sol = qubit_mixed_solution(fam)
    assert report.certified
    assert report.failure_probability == pytest.approx(sol.failure_probability, abs=1e-10)
    assert np.nanmax(np.abs(report.confidences - sol.confidence)) < 1e-10


def test_solve_rank1_requires_symmetry():
    rng = np.random.default_rng(0)
    with pytest.raises(NotSymmetricError):
        solve_rank1_symmetric(random_ensemble(rng, 2, 3))


def test_solve_rank1_requires_distinct_phases():
    e = build_symmetric_ensemble(
        np.array([1.0, 1.0]) / np.sqrt(2), 3, phases=np.array([1.0, 1.0])
    )
    with pytest.raises(InvalidPhasesError):
        solve_rank1_symmetric(e)


def test_solve_rank1_rejects_degenerate_top():
    # purity 0 makes every transformed state proportional to a projector
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    e = build_depolarized_family(c, 3, 0.0)
    with pytest.raises(DegenerateTopEigenvalueError):
        solve_rank1_symmetric(e)


def test_solve_numeric_trine(trine):
    report = solve_numeric(trine)
    assert report.mode == "numeric"
    assert report.certified
    assert report.detection_rate == pytest.approx(1.0, abs=1e-6)
    assert report.iterations > 0


def test_solve_numeric_random_ensembles():
    rng = np.random.default_rng(11)
    for _ in range(4):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        e = random_ensemble(rng, d, n)
        report = solve_numeric(e)
        assert report.certified, report.certificate.failures
        cert = report.certificate
        assert cert.conditions["trace_gap"] < 1e-8
        assert cert.conditions["stationarity_residual"] < 1e-8
        assert cert.rank_z + cert.rank_inconclusive <= e.dim


def test_solve_numeric_agrees_with_analytic(trine):
    analytic = solve_rank1_symmetric(trine)
    numeric = solve_numeric(trine)
    assert abs(analytic.detection_rate - numeric.detection_rate) < 1e-6


@pytest.mark.parametrize("embedding", ["corner", "rotated"])
def test_solve_numeric_reduces_rank_deficient_average(embedding):
    rng = np.random.default_rng(6)
    base = random_ensemble(rng, 2, 3)
    if embedding == "corner":
        iso = np.eye(3, 2)
    else:
        # a random isometry into 5 dimensions: the span of the states is
        # not spanned by coordinate axes
        iso = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))[0]
    e = StateEnsemble(dim=iso.shape[0], priors=base.priors,
                      states=iso @ base.states @ iso.conj().T)
    report = solve_numeric(e)
    assert report.certified
    baseline = solve_numeric(base)
    assert report.detection_rate == pytest.approx(baseline.detection_rate, abs=1e-6)


@pytest.mark.parametrize("theta", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5])
def test_solve_numeric_certifies_near_parallel_pair(theta):
    # two pure qubits at angle theta with priors 1/2: the unambiguous limit,
    # C = 1 and Q = cos(theta), so R = 2 sin^2(theta / 2). At 1e-3 the kernel
    # eigenvalue of Pi_0 (about gap / R) must get below the rank cutoff; at
    # 1e-4, R = 5e-9 and Z (of norm R) must keep its rank, which a gap-only
    # stop missed with R 9.4% wrong
    report = solve_numeric(pure_qubit_pair(theta, (0.5, 0.5)))
    assert report.certified, report.certificate.failures
    assert abs(report.failure_probability - np.cos(theta)) < 1e-6
    assert report.certificate.rank_z == 1
    assert abs(report.detection_rate / (2.0 * np.sin(theta / 2.0) ** 2) - 1.0) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("eps", [1e-3, 3e-4])
def test_solve_numeric_certifies_near_parallel_qutrits(seed, eps):
    # three pure qutrits within eps of |0>: R ~ eps^2, and the stop waits
    # until rank Z + rank Pi_0 fits in d = 3
    rng = np.random.default_rng(seed)
    g = np.stack([rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)])
    psi = np.eye(3)[0] + eps * g
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    states = np.einsum("ja,jb->jab", psi, psi.conj())
    report = solve_numeric(StateEnsemble(dim=3, priors=np.full(3, 1.0 / 3.0), states=states))
    assert report.certified, report.certificate.failures


@pytest.mark.parametrize("states, priors", [
    ([np.diag([1.0, 0.0])] * 2, [0.5, 0.5]),
    ([np.diag([1.0, 0.0, 0.0])] * 3, [0.2, 0.3, 0.5]),
])
def test_solve_numeric_identical_pure_states(states, priors):
    # lambda_max(rho) = 1, so the start point Z = 1 is not strictly dual
    # feasible and is doubled; the best measurement is to guess by prior
    e = StateEnsemble(dim=len(states[0]), priors=np.array(priors),
                      states=np.stack(states).astype(complex))
    report = solve_numeric(e)
    assert report.certified, report.certificate.failures
    assert np.max(np.abs(report.confidences - e.priors)) < 1e-8
    assert report.failure_probability < 1e-8


def _random_numeric_ensemble(seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    return rng, random_ensemble(rng, d, n, mixed=bool(rng.integers(2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_numeric_invariant_under_global_unitary(seed):
    rng, e = _random_numeric_ensemble(seed)
    u = random_unitary(rng, e.dim)
    rotated = StateEnsemble(dim=e.dim, priors=e.priors, states=u @ e.states @ u.conj().T)
    q = solve_numeric(e).failure_probability
    assert abs(solve_numeric(rotated).failure_probability - q) < 1e-7


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_numeric_invariant_under_relabelling(seed):
    rng, e = _random_numeric_ensemble(seed)
    perm = rng.permutation(e.n_states)
    relabelled = StateEnsemble(dim=e.dim, priors=e.priors[perm], states=e.states[perm])
    q = solve_numeric(e).failure_probability
    assert abs(solve_numeric(relabelled).failure_probability - q) < 1e-7


def test_solve_numeric_iteration_budget(trine, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
    with pytest.raises(NotConvergedError):
        solve_numeric(trine)


def test_singular_newton_system_does_not_converge(trine, monkeypatch):
    # a singular Schur complement leaves the interior point as a cone exit
    # does, not as a bare numpy error
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(solver.np.linalg, "solve", singular)
    with pytest.raises(NotConvergedError, match="singular Newton system"):
        solve_numeric(trine)


def test_solve_numeric_without_fitting_ranks_does_not_converge(trine, monkeypatch):
    # with a zero rank cutoff every eigenvalue of the interior iterates Z > 0
    # and S > 0 counts, the ranks never fit, and the path ends in
    # NotConvergedError, not in a division by a vanishing gap
    monkeypatch.setattr(solver, "RANK_CUTOFF", 0.0)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotConvergedError):
            solve_numeric(trine)


def test_solve_numeric_reports_duality_gap(trine):
    report = solve_numeric(trine)
    assert report.certified
    # the gap of a feasible primal-dual pair is the certificate's Tr Z - R
    cert = report.certificate
    assert 0.0 < report.duality_gap <= CERT_TOL
    assert abs(report.duality_gap - (np.trace(cert.z).real - cert.rate)) <= 1e-12
    assert solve_rank1_symmetric(trine).duality_gap == 0.0


def _stacked_blocks(geo):
    """geometry's (N, d, b) stack of the W_j, zero-padded to b = max m_j,
    the (N, b) mask of their real columns and the one cluster P = 1 of a
    generic ensemble."""
    cols = np.arange(geo.degeneracies.max()) < geo.degeneracies[:, None]
    return geo.detection_blocks, cols, np.ones((1, len(geo.rho)), dtype=bool)


def test_stacked_embedding_matches_per_outcome_reference():
    geo = geometry(mixed_width_ensemble(np.random.default_rng(21)))
    assert geo.degeneracies.tolist() == [2, 2, 1]
    w, cols, one = _stacked_blocks(geo)
    a, _, _, _ = _interior_point(geo.rho, w, geo.degeneracies, one)
    # the a_j fill the real corners of the stack; the padding stays exactly zero
    assert not np.any(a[~(cols[:, :, None] & cols[:, None, :])])
    reference = np.stack([wj[:, :m] @ aj[:m, :m] @ wj[:, :m].conj().T
                          for wj, aj, m in zip(geo.detection_blocks, a, geo.degeneracies)])
    assert np.max(np.abs(_embed(w, a) - reference)) < 1e-12


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]], ids=["widths-2-2-1", "widths-1-2-2"])
def test_solve_numeric_padding_never_enters(order):
    e = mixed_width_ensemble(np.random.default_rng(21))
    e = StateEnsemble(dim=e.dim, priors=e.priors[order], states=e.states[order])
    geo = geometry(e)
    assert sorted(geo.degeneracies.tolist()) == [1, 2, 2]
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    cert = report.certificate
    assert abs(report.duality_gap - (np.trace(cert.z).real - cert.rate)) <= 1e-12
    base = solve_numeric(mixed_width_ensemble(np.random.default_rng(21)))
    assert abs(report.failure_probability - base.failure_probability) < 1e-9
    # A is exactly zero off the real m_j x m_j entries of its (N, b, b) stack
    w, cols, one = _stacked_blocks(geo)
    a, _, gap, _ = _interior_point(geo.rho, w, geo.degeneracies, one)
    assert not np.any(a[~(cols[:, :, None] & cols[:, None, :])])
    assert gap == report.duality_gap


@pytest.mark.parametrize("n", [1, 7])
def test_width_one_cone_matches_stacked_linear_algebra(n):
    # on 1 x 1 blocks the factor, the inverse and the step bound are
    # elementwise; they must equal the cholesky / inv / eigvalsh route
    rng = np.random.default_rng(40 + n)
    pair = (rng.uniform(0.1, 3.0, (2, n, 1, 1)) + 0j)
    (f, fh), first_inv = _cone_factors(pair)
    ref_f = np.linalg.inv(np.linalg.cholesky(pair))
    assert np.allclose(f, ref_f, rtol=1e-14, atol=0) and np.array_equal(f, fh)
    assert np.allclose(first_inv, np.linalg.inv(pair[0]), rtol=1e-14, atol=0)
    for sign in (1.0, -1.0, 0.0):
        step = sign * rng.uniform(0.1, 2.0, (2, n, 1, 1)) + 0j
        ref = np.linalg.eigvalsh(ref_f @ step @ ref_f.conj().swapaxes(-1, -2))[..., 0]
        lows = _cone_lows(f, fh, step)
        assert np.allclose(lows, ref.min(axis=1), rtol=1e-14, atol=0)
        ratios = (step.real / pair.real).reshape(2, -1)
        assert np.allclose(lows, ratios.min(axis=1), rtol=1e-14, atol=0)
    for bad in (0.0, -1e-3, np.nan):
        broken = pair.copy()
        broken[1, n // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.isnan(bad):  # numpy's cholesky lets a NaN through
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(broken)
            with pytest.raises(np.linalg.LinAlgError):
                _cone_factors(broken)


def test_interior_point_stops_on_a_nan_iterate():
    # a NaN reaches the loop unflagged by cholesky; it must stop at once
    geo = geometry(mixed_width_ensemble(np.random.default_rng(21)))
    w, _, one = _stacked_blocks(geo)
    rho = geo.rho.copy()
    rho[0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConvergedError, match="left the cone"):
            _interior_point(rho, w, geo.degeneracies, one)


def _with_averages(rng, dim, n, at):
    """n states of C^dim: random full-rank ones, with the states at the
    positions at equal to their average, so that those states' top
    eigenspace is all of C^dim (m = dim) while the rest have m = 1."""
    rest = random_ensemble(rng, dim, n - len(at))
    others = np.setdiff1d(np.arange(n), at)
    priors, states = np.empty(n), np.empty((n, dim, dim), dtype=complex)
    priors[others], states[others] = 0.5 * np.array(rest.priors), rest.states
    priors[at], states[at] = 0.5 / len(at), np.einsum("j,jab->ab", rest.priors, np.array(rest.states))
    return StateEnsemble(dim=dim, priors=priors, states=states)


def _check_against_width_sorted(dim, n, at):
    # blocks of different widths need no ordering: the solve must match the
    # solve of the same states sorted by width, up to that permutation
    e = _with_averages(np.random.default_rng(23), dim, n, at)
    geo = geometry(e)
    assert geo.degeneracies.tolist() == [dim if j in at else 1 for j in range(n)]
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    by_width = np.argsort(geo.degeneracies, kind="stable")
    sorted_e = StateEnsemble(dim=dim, priors=e.priors[by_width], states=e.states[by_width])
    sorted_report = solve_numeric(sorted_e)
    assert sorted_report.certified, sorted_report.certificate.failures
    assert abs(report.failure_probability - sorted_report.failure_probability) < 1e-9
    gaps = report.detection.conclusive[by_width] - sorted_report.detection.conclusive
    assert np.max(np.abs(gaps)) < 1e-6
    w, cols, one = _stacked_blocks(geo)
    a, _, gap, _ = _interior_point(geo.rho, w, geo.degeneracies, one)
    assert not np.any(a[~(cols[:, :, None] & cols[:, None, :])])
    assert gap == report.duality_gap


def test_solve_numeric_interleaved_widths():
    _check_against_width_sorted(3, 8, [0, 4])


def test_solve_numeric_three_wide_blocks_among_thirty():
    # 30 states of C^6 with m = 6 at 0, 10 and 20 and m = 1 elsewhere
    _check_against_width_sorted(6, 30, [0, 10, 20])


@pytest.mark.parametrize("k", [2, 3])
def test_solve_numeric_degenerate_tops(k):
    # rho_j (x) 1/k: every top eigenspace has dimension m_j = k
    rng = np.random.default_rng(30 + k)
    base = random_ensemble(rng, 3, 4)
    e = StateEnsemble(dim=3 * k, priors=base.priors,
                      states=tuple(np.kron(s, np.eye(k) / k) for s in base.states))
    geo = geometry(e)
    assert list(geo.degeneracies) == [k] * 4
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    assert np.max(np.abs(report.confidences - geo.confidences)) < 1e-8


def _random_blocks(rng, d, widths):
    """Zero-padded (N, d, b) detection blocks, and an (N, b, b) stack of
    well-conditioned random positive blocks A_j with W A W^dagger <= 1/2."""
    n, b = len(widths), max(widths)
    w = np.zeros((n, d, b), dtype=complex)
    a = np.zeros((n, b, b), dtype=complex)
    for j, m in enumerate(widths):
        w[j, :, :m] = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        a[j, :m, :m] = random_density(rng, m) + np.eye(m)
    return w, a * 0.5 / np.linalg.norm(_embed(w, a).sum(axis=0), 2)


def _random_step(rng, widths):
    """A random Hermitian (N, b, b) stack, zero off the m_j x m_j corners."""
    b = max(widths)
    da = np.zeros((len(widths), b, b), dtype=complex)
    for j, m in enumerate(widths):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        da[j, :m, :m] = g + g.conj().T
    return da


def _real_coordinates(entries, swap, da, target):
    """The coordinates h of the step da that _newton_system takes, after
    checking that they give da back, and its image Re u + Im u of the
    Hermitian target stack, u_i = Tr(E_i target_j) = target_j[col_i, row_i]."""
    blk, row, col = entries
    v = da[blk, row, col]
    h = (v.real + v.imag) / 2.0
    assert np.allclose((1 + 1j) * h + (1 - 1j) * h[swap], v, rtol=0, atol=1e-14)
    u = target[blk, col, row]
    return h, u.real + u.imag


WIDTHS = [(1, 2, 3), (3, 1, 2), (1, 1, 1, 1)]


@pytest.mark.parametrize("clusters", [
    [[1, 1, 1, 1, 1]],
    [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]],
    np.eye(5).tolist(),
], ids=["one", "three", "five"])
def test_newton_system_sums_over_clusters(clusters):
    # on a Hermitian block-diagonal dA the system gives the Hermitian part of
    # X1 dA A^-1 + sum_c Y_c dA K_c, checked on the dense M x M matrices
    rng = np.random.default_rng(8)
    clusters = np.array(clusters, dtype=bool)
    pinch = clusters.T @ clusters
    for widths in WIDTHS:
        n, b, m = len(widths), max(widths), sum(widths)
        w, a = _random_blocks(rng, 5, widths)
        x1 = _random_step(rng, widths)
        z, s = (random_density(rng, 5) * pinch for _ in range(2))
        real = np.arange(b) < np.array(widths)[:, None]
        wc = clusters[:, :, None] * w.transpose(1, 0, 2)[:, real]  # unpadded, per cluster
        ys = wc.conj().swapaxes(1, 2) @ z @ wc
        ks = wc.conj().swapaxes(1, 2) @ np.linalg.inv(s) @ wc
        # the padding of X1 and A^-1 is never read
        a_inv = np.full((n, b, b), np.nan, dtype=complex)
        for j, mj in enumerate(widths):
            a_inv[j, :mj, :mj] = np.linalg.inv(a[j, :mj, :mj])
        x1[~(real[:, :, None] & real[:, None, :])] = np.nan
        entries, swap, take, local = _entry_tables(np.array(widths), b, len(clusters))
        system = _newton_system(x1, a_inv, ys, ks, take, local, swap)
        assert system.shape == (sum(mj * mj for mj in widths),) * 2

        def dense(stack):
            out, lo = np.zeros((m, m), dtype=complex), 0
            for j, mj in enumerate(widths):
                out[lo:lo + mj, lo:lo + mj], lo = stack[j, :mj, :mj], lo + mj
            return out

        def corners(x):
            out, lo = np.zeros((n, b, b), dtype=complex), 0
            for j, mj in enumerate(widths):
                out[j, :mj, :mj], lo = x[lo:lo + mj, lo:lo + mj], lo + mj
            return out

        for _ in range(3):
            da = _random_step(rng, widths)
            hm = dense(x1) @ dense(da) @ dense(a_inv) + sum(y @ dense(da) @ k for y, k in zip(ys, ks))
            h, image = _real_coordinates(entries, swap, da, corners((hm + hm.conj().T) / 2.0))
            assert np.linalg.norm(system @ h - image) <= 1e-12 * np.linalg.norm(image)


@pytest.mark.parametrize("widths", WIDTHS)
def test_newton_system_is_the_barrier_hessian_at_the_center(widths):
    # at the central point of parameter 1/t (X1 = A^-1 / t, Z = S^-1 / t) the
    # system is the negated Hessian of log det A + log det S over t, here a
    # central difference of the gradient A^-1 - W_j^dagger S^-1 W_j
    rng = np.random.default_rng(7)
    d, t, eps = 5, 2.3, 1e-7
    n, b = len(widths), max(widths)
    w, a = _random_blocks(rng, d, widths)
    real = np.arange(b) < np.array(widths)[:, None]
    pad = np.eye(b) * ~real[:, None, :]
    wf = w.transpose(1, 0, 2)[:, real]

    def gradient(a):
        s_inv = np.linalg.inv(np.eye(d) - _embed(w, a).sum(axis=0))
        return np.linalg.inv(a + pad) - pad - w.conj().swapaxes(1, 2) @ s_inv @ w

    a_inv = np.linalg.inv(a + pad)
    k = wf.conj().T @ np.linalg.inv(np.eye(d) - _embed(w, a).sum(axis=0)) @ wf
    entries, swap, take, local = _entry_tables(np.array(widths), b, 1)
    system = _newton_system(a_inv / t, a_inv, k[None] / t, k[None], take, local, swap)
    for _ in range(3):
        da = _random_step(rng, widths)
        hess = (gradient(a + eps * da) - gradient(a - eps * da)) / (2.0 * eps)
        h, image = _real_coordinates(entries, swap, da, -hess / t)
        assert np.linalg.norm(system @ h - image) <= 1e-7 * np.linalg.norm(image)
    if set(widths) == {1}:
        # the orthant: twice |K|^2 + diag(1 / a^2), over t
        closed = 2.0 * (np.abs(k) ** 2 + np.diag(1.0 / a[:, 0, 0].real ** 2)) / t
        assert np.allclose(system, closed, rtol=1e-10, atol=0)


@pytest.mark.parametrize("kind", ["depolarized-qutrit", "repeated-phases", "embedded"])
def test_solve_numeric_is_covariant(kind):
    c = np.array([0.6, 0.64, 0.48])
    if kind == "depolarized-qutrit":
        e = build_depolarized_family(c, 4, 0.7)
    elif kind == "repeated-phases":
        # repeated phases: only the numerical solver handles this orbit
        e = build_symmetric_ensemble(c, 3, phases=(1.0, 1.0, np.exp(2j * np.pi / 3)))
    else:
        # the pure qutrit orbit of order 4 plus an idle fourth dimension of
        # phase 1, outside the support of the average state
        phases = np.append(default_phases(4, 3), 1.0)
        e = build_symmetric_ensemble(np.append(c, 0.0), 4, phases=phases)
    report = solve_numeric(e)
    assert report.certified, report.certificate.failures
    if kind == "embedded":
        exact = pure_symmetric_solution(SymmetricFamily(order=4, purity=1.0, coefficients=c))
        assert abs(report.failure_probability - exact.failure_probability) < 1e-6
    v = e.symmetry.generator()
    det = report.detection
    for k in range(e.n_states):
        vk = np.linalg.matrix_power(v, k)
        assert opnorm(det.conclusive[k] - vk @ det.conclusive[0] @ vk.conj().T) < 1e-12
    assert opnorm(det.inconclusive @ v - v @ det.inconclusive) < 1e-12
    z = report.certificate.z
    assert opnorm(z @ v - v @ z) < 1e-12


def _degenerate_cyclic_qudit(rng, order, k):
    """rho_1 (x) 1/k of a depolarized qutrit orbit under V (x) 1: every
    phase repeats k times and every top eigenspace has dimension k."""
    base = build_depolarized_family(random_coefficients(rng, 3), order, 0.8)
    return build_symmetric_ensemble(np.kron(base.states[0], np.eye(k) / k), order,
                                    phases=np.repeat(base.symmetry.phases, k))


def _symmetric_ensemble(kind, seed):
    rng = np.random.default_rng(seed)
    c = random_coefficients(rng, 3)
    if kind == "qubit":
        return SymmetricFamily.qubit(order=int(rng.integers(2, 5)), purity=float(rng.uniform(0.1, 1.0)),
                                     angle=float(rng.uniform(0.1, np.pi / 2))).ensemble()
    if kind == "pure":
        return SymmetricFamily(order=int(rng.integers(3, 9)), purity=1.0, coefficients=c).ensemble()
    if kind == "mixed":
        return SymmetricFamily(order=int(rng.integers(3, 9)), purity=float(rng.uniform(0.1, 1.0)),
                               coefficients=c).ensemble()
    if kind == "repeated-phases":
        return build_depolarized_family(c, 3, 0.7, phases=(1.0, 1.0, np.exp(2j * np.pi / 3)))
    if kind == "embedded":
        return build_symmetric_ensemble(np.append(c, 0.0), 4, phases=np.append(default_phases(4, 3), 1.0))
    return _degenerate_cyclic_qudit(rng, int(rng.integers(4, 7)), 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["qubit", "pure", "mixed", "repeated-phases", "embedded", "degenerate"])
def test_covariant_solve_matches_symmetry_stripped(kind, seed):
    # the one covariant block against the N-block problem of the same states;
    # from its covariant start the N-block path stays covariant, so with one
    # step rule both solves follow one central path (up to rounding in the
    # step decisions). With distinct phases and m = 1 every covariant cone is
    # an orthant and takes the longer orthant step, while the stripped
    # problem's (S, Z) is a d x d SDP pair that keeps the shorter one.
    e = _symmetric_ensemble(kind, seed)
    covariant = solve_numeric(e)
    stripped = solve_numeric(StateEnsemble(dim=e.dim, priors=e.priors, states=e.states))
    assert covariant.certified, covariant.certificate.failures
    assert stripped.certified, stripped.certificate.failures
    assert abs(covariant.failure_probability - stripped.failure_probability) <= 1e-7
    if kind in ("repeated-phases", "degenerate"):
        assert abs(covariant.iterations - stripped.iterations) <= 1
    else:
        assert covariant.iterations < stripped.iterations


@pytest.mark.parametrize("k", [2, 3])
def test_solve_numeric_degenerate_cyclic_qudits(k):
    e = _degenerate_cyclic_qudit(np.random.default_rng(50 + k), 5, k)
    geo = geometry(e)
    assert geo.degeneracies.tolist() == [k] * 5
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    plain = solve_numeric(StateEnsemble(dim=e.dim, priors=e.priors, states=e.states))
    assert abs(report.failure_probability - plain.failure_probability) <= 1e-8
    with pytest.raises(InvalidPhasesError):
        solve_rank1_symmetric(e, geo)


def test_verify_certificate_ranks_use_hermitian_part(trine):
    # the ranks are taken of the Hermitian part, so a small anti-Hermitian
    # defect in Pi_0 fails completeness but raises no NonHermitianError
    ops = trine_optimal_detection(trine).operators.copy()
    ops[0] += 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    cert = verify_certificate(trine, DetectionSet(ops), np.eye(2) / 2.0)
    assert "completeness_residual" in cert.failures
    assert (cert.rank_z, cert.rank_inconclusive, cert.min_rank_required) == (2, 0, 1)
    assert cert.rank_bound_ok


def test_verify_certificate_diagonalizes_each_operator_once(trine, monkeypatch):
    # one spectrum each of Z, the Pi stack, the slack stack and the
    # Lambda_j rho_j Lambda_j stack serves every condition and rank
    geo = geometry(trine)
    det = trine_optimal_detection(trine)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    cert = verify_certificate(trine, det, np.eye(2) / 2.0, geo=geo)
    assert cert.accepted, cert.failures
    assert len(calls) == 4, calls


def test_verify_certificate_accepts_optimal_duals(trine):
    det = trine_optimal_detection(trine)
    # the dual certificate is not unique here: any I/2 + s sigma_z with
    # |s| <= 1/2 satisfies every condition
    for z in (np.eye(2) / 2.0, np.diag([0.7, 0.3]).astype(complex)):
        cert = verify_certificate(trine, det, z)
        assert cert.accepted, cert.failures
        assert cert.conditions["trace_gap"] < 1e-12


def _reference_certificate(ensemble, detection, z, geo, tol=1e-8, projector=False):
    """The certificate conditions and ranks, one outcome at a time: on the
    b x b compressions by the support bases Q_j, or with projector=True in
    the d x d form of Lambda_j = Q_j Q_j^dagger that the compressions replace."""
    sym = lambda a: 0.5 * (a + a.conj().T)
    rho, n = geo.rho, ensemble.n_states
    z = sym(np.asarray(z, dtype=complex))
    rate = sum(float(np.trace(rho @ detection.conclusive[j]).real) for j in range(n))
    slack_min, stationarity, lower = np.inf, 0.0, 0
    for j in range(n):
        q = geo.support_bases[j]
        if projector:
            q = q @ q.conj().T  # Lambda_j, so q^dagger (Z - rho) q is Lambda_j (Z - rho) Lambda_j
        slack_min = min(slack_min, float(np.linalg.eigvalsh(sym(q.conj().T @ (z - rho) @ q))[0]))
        stationarity = max(stationarity, opnorm(q.conj().T @ (z - rho) @ detection.conclusive[j]))
        lower = max(lower, support_rank(q.conj().T @ ensemble.states[j] @ q, RANK_CUTOFF))
    conditions = {
        "povm_min_eigenvalue": min(float(np.linalg.eigvalsh(sym(op))[0])
                                   for op in detection.operators),
        "completeness_residual": opnorm(detection.operators.sum(axis=0) - np.eye(ensemble.dim)),
        "z_min_eigenvalue": float(np.linalg.eigvalsh(z)[0]),
        "support_slack_min_eigenvalue": slack_min,
        "inconclusive_orthogonality": opnorm(z @ detection.inconclusive),
        "stationarity_residual": stationarity,
        "trace_gap": abs(float(np.trace(z).real) - rate),
    }
    z_w = np.abs(np.linalg.eigvalsh(z))  # rank Z counts relative to ||Z||, with no floor
    ranks = (int(np.sum(z_w > RANK_CUTOFF * z_w.max())),
             support_rank(detection.inconclusive, RANK_CUTOFF), lower)
    failures = [k for k, v in conditions.items() if (v < -tol if "min_eigenvalue" in k else v > tol)]
    if ranks[0] + ranks[1] > ensemble.dim or ranks[0] < ranks[2]:
        failures.append("rank_bound")
    return conditions, ranks, failures


@pytest.mark.parametrize("z, accepted", [
    (np.eye(2) / 2.0, True),  # the optimum
    (np.diag([0.7, 0.3]), True),  # another optimal dual
    (0.4 * np.eye(2), False),  # the shrunken dual
    (np.array([[0.5, 0.1], [0.1, 0.5]]), False),  # slacks differ by outcome
    (np.array([[0.6, 0.1j], [-0.1j, 0.2]]), False),
])
def test_verify_certificate_matches_per_outcome_reference(trine, z, accepted):
    det = trine_optimal_detection(trine)
    geo = geometry(trine)
    cert = verify_certificate(trine, det, z, geo=geo)
    _assert_matches_reference(cert, _reference_certificate(trine, det, z, geo))
    assert cert.accepted == accepted


def test_verify_certificate_mixed_widths_matches_reference():
    # detection supports of ranks 2, 2 and 1, so the rank lower bound is
    # the largest of unequal per-outcome ranks
    e = mixed_width_ensemble(np.random.default_rng(21))
    geo = geometry(e)
    report = solve_numeric(e, geo)
    for z in (report.certificate.z, 0.9 * report.certificate.z):
        cert = verify_certificate(e, report.detection, z, geo=geo)
        _assert_matches_reference(cert, _reference_certificate(e, report.detection, z, geo))
    assert report.certificate.min_rank_required == 2


def _assert_matches_reference(cert, reference):
    conditions, ranks, failures = reference
    assert cert.conditions.keys() == conditions.keys()
    for k, v in conditions.items():
        assert abs(cert.conditions[k] - v) <= 1e-12, k
    assert (cert.rank_z, cert.rank_inconclusive, cert.min_rank_required) == ranks
    assert cert.failures == failures


_EQUIVALENCE_INPUTS = {
    "trine": lambda: build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3),
    "pair-0.4": lambda: pure_qubit_pair(0.4, (0.5, 0.5)),
    "mixed-widths": lambda: mixed_width_ensemble(np.random.default_rng(21)),
    "qutrit-triple": lambda: random_ensemble(np.random.default_rng(4), 3, 3),
}


@pytest.mark.parametrize("name", sorted(_EQUIVALENCE_INPUTS))
def test_compressed_certificate_matches_projector_form(name):
    # the d x d projector form gives each slack d - m_j structural zeros, the
    # compressions only the b - m_j of the padding: the slack minimum can only
    # rise, and only where it is >= 0, so no failure list or rank changes
    e = _EQUIVALENCE_INPUTS[name]()
    geo = geometry(e)
    report = solve_numeric(e, geo)
    z0, d = report.certificate.z, e.dim
    for z in (z0, 0.9 * z0, z0 - 0.05 * np.eye(d), z0 + 0.2 * np.diag((-1.0) ** np.arange(d))):
        cert = verify_certificate(e, report.detection, z, geo=geo)
        conditions, ranks, failures = _reference_certificate(e, report.detection, z, geo, projector=True)
        assert cert.failures == failures
        assert (cert.rank_z, cert.rank_inconclusive, cert.min_rank_required) == ranks
        for k, v in conditions.items():
            if k != "support_slack_min_eigenvalue":
                assert abs(cert.conditions[k] - v) <= 1e-12, k
        slack = cert.conditions["support_slack_min_eigenvalue"]
        projected = conditions["support_slack_min_eigenvalue"]
        assert slack >= projected - 1e-15
        if slack < 0.0:
            assert abs(slack - projected) <= 1e-12


def test_verify_certificate_rejects_shrunken_dual(trine):
    det = trine_optimal_detection(trine)
    cert = verify_certificate(trine, det, 0.4 * np.eye(2))
    assert not cert.accepted
    assert "support_slack_min_eigenvalue" in cert.failures
    assert "trace_gap" in cert.failures


def test_verify_certificate_rank_bound(trine):
    report = solve_numeric(trine)
    cert = report.certificate
    assert cert.rank_bound_ok
    assert cert.rank_z >= cert.min_rank_required
    assert cert.rank_z + cert.rank_inconclusive <= trine.dim


def test_verify_certificate_fails_on_rank_bound_alone():
    e = pure_qubit_pair(0.4, (0.5, 0.5))
    report = solve_numeric(e)
    z = rank_raised_dual(report.certificate.z, report.detection.inconclusive)
    cert = verify_certificate(e, report.detection, z)
    assert cert.failures == ["rank_bound"]
    assert (cert.rank_z, cert.rank_inconclusive) == (2, 1)
    assert not cert.rank_bound_ok and not cert.accepted


def test_witness_dual_negativity(trine):
    det = trine_optimal_detection(trine)
    for t, mu in ((0.51, 0.01), (0.55, 0.05), (0.60, 0.10)):
        # unit trace but an eigenvalue 0.5 - t below zero
        z = np.diag([0.5 + t, 0.5 - t]).astype(complex)
        eps = 1e-3
        w = perturbation_witness(trine, det, z, eps)
        assert w.kind == "dual-negativity"
        assert w.outcome == 0
        assert w.mu == pytest.approx(mu, abs=1e-12)
        assert w.gap == pytest.approx(-eps * (2.0 - eps) * mu, abs=1e-12)
        assert w.gap / w.predicted_first_order == pytest.approx(1.0 - eps / 2.0, abs=1e-9)
        assert w.completeness_residual < 1e-12
        assert w.min_eigenvalue > -1e-12


def test_witness_support_slack(trine):
    # drop the first outcome and rebalance: the slack on Lambda_1 opens up
    ops = np.stack([
        np.zeros((2, 2), dtype=complex),
        (2.0 / 3.0) * trine.states[1],
        (2.0 / 3.0) * trine.states[2],
    ])
    det = DetectionSet.from_conclusive(ops)
    psi_perp = np.array([1.0, -1.0]) / np.sqrt(2.0)
    z = (2.0 / 3.0) * np.outer(psi_perp, psi_perp)
    eps = 1e-3
    w = perturbation_witness(trine, det, z, eps)
    assert w.kind == "support-slack"
    assert w.outcome == 1
    assert w.mu == pytest.approx(0.5, abs=1e-9)
    assert w.gap == pytest.approx(-eps * (2.0 - eps) * 0.5, abs=1e-10)
    assert w.detection.completeness_residual() < 1e-12


@pytest.mark.parametrize("count", [2, 4])
def test_witness_refuses_a_detection_set_of_the_wrong_size(trine, count):
    ops = np.stack([(2.0 / 3.0) * trine.states[j % 3] for j in range(count)]) / 2.0
    with pytest.raises(InfeasibleInputError, match=f"{count} conclusive outcomes for 3 states"):
        perturbation_witness(trine, DetectionSet.from_conclusive(ops), 0.4 * np.eye(2), 1e-3)


def test_witness_requires_negativity(trine):
    det = trine_optimal_detection(trine)
    with pytest.raises(NoNegativeEigenvalueError):
        perturbation_witness(trine, det, np.eye(2) / 2.0, 1e-3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_symmetric_solves_certify_and_match(seed):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 6))
    dim = int(rng.integers(2, order + 1))
    c = random_coefficients(rng, dim)
    e = build_depolarized_family(c, order, 1.0)
    geo = geometry(e)
    report = solve_rank1_symmetric(e, geo)
    assert report.certified, report.certificate.failures
    q_expected = 1.0 - dim * float(np.min(np.abs(c)) ** 2)
    assert report.failure_probability == pytest.approx(q_expected, abs=1e-9)
    assert np.nanmax(np.abs(report.confidences - dim / order)) < 1e-9
