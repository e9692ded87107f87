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
from maxconf.operators import GAP_TOL, RANK_CUTOFF, support_rank
from maxconf.solver import (
    _cone_factors,
    _cone_lows,
    _embed,
    _hermitian_basis,
    _interior_point,
    _newton_system,
    _width_groups,
)
from conftest import (
    mixed_width_ensemble,
    random_coefficients,
    random_density,
    random_ensemble,
    random_unitary,
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


_TRUNCATED_RHO = "rho truncated to rank 1, Q ~ 1e-10 certified; ROADMAP item 3"


@pytest.mark.parametrize("theta", [
    1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4,
    pytest.param(3e-5, marks=pytest.mark.xfail(reason=_TRUNCATED_RHO)),
    pytest.param(1e-5, marks=pytest.mark.xfail(reason=_TRUNCATED_RHO)),
])
def test_solve_numeric_certifies_near_parallel_pair(theta):
    # two pure qubits at angle theta with priors 1/2: the unambiguous limit,
    # C = 1 and Q = cos(theta), so R = 2 sin^2(theta / 2). At 1e-3 the kernel
    # eigenvalue of Pi_0 (about gap / R) must get below the rank cutoff; at
    # 1e-4, R = 5e-9 and Z (of norm R) must keep its rank, which a gap-only
    # stop missed with R 9.4% wrong
    v = np.array([np.cos(theta), np.sin(theta)])
    states = np.stack([np.diag([1.0, 0.0]), np.outer(v, v)]).astype(complex)
    report = solve_numeric(StateEnsemble(dim=2, priors=np.array([0.5, 0.5]), states=states))
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
    assert 0.0 < report.duality_gap <= GAP_TOL
    assert abs(report.duality_gap - (np.trace(cert.z).real - cert.rate)) <= 1e-12
    assert solve_rank1_symmetric(trine).duality_gap == 0.0


def _stacked_blocks(geo):
    """geometry's (N, d, b) stack of the W_j, zero-padded to b = max m_j,
    the (N, b) mask of their real columns and the one cluster P = 1 of a
    generic ensemble."""
    cols = np.arange(geo.degeneracies.max()) < geo.degeneracies[:, None]
    return geo.detection_blocks, cols, np.ones((1, geo.dim), dtype=bool)


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


def test_solve_numeric_interleaved_widths():
    # the states at 0 and 4 equal the average of the others, so their top
    # eigenspace is all of C^3 (m = 3) while the rest have m = 1; the loop
    # runs on the blocks ordered by width and returns A in ensemble order
    rest = random_ensemble(np.random.default_rng(23), 3, 6)
    states, priors = np.array(rest.states), np.array(rest.priors)
    avg = np.einsum("j,jab->ab", priors, states)
    order = [6, 0, 1, 2, 6, 3, 4, 5]
    e = StateEnsemble(dim=3, priors=np.append(0.5 * priors, 0.25)[order],
                      states=np.concatenate([states, avg[None]])[order])
    geo = geometry(e)
    assert geo.degeneracies.tolist() == [3, 1, 1, 1, 3, 1, 1, 1]
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    by_width = [1, 2, 3, 5, 6, 7, 0, 4]
    sorted_e = StateEnsemble(dim=3, priors=e.priors[by_width], states=e.states[by_width])
    sorted_report = solve_numeric(sorted_e)
    assert abs(report.failure_probability - sorted_report.failure_probability) < 1e-9
    gaps = report.detection.conclusive[by_width] - sorted_report.detection.conclusive
    assert np.max(np.abs(gaps)) < 1e-6
    w, cols, one = _stacked_blocks(geo)
    a, _, gap, _ = _interior_point(geo.rho, w, geo.degeneracies, one)
    assert not np.any(a[~(cols[:, :, None] & cols[:, None, :])])
    assert gap == report.duality_gap


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


def _reference_barrier_hessian(blocks, a_blocks):
    """Hessian of log det A + log det S, one einsum per block pair."""
    d = blocks[0].shape[0]
    total = sum(w @ a @ w.conj().T for w, a in zip(blocks, a_blocks))
    s_inv = np.linalg.inv(np.eye(d) - total)
    bases = [_hermitian_basis(w.shape[1]) for w in blocks]
    offsets = np.cumsum([0] + [b.shape[0] for b in bases])
    hess = np.zeros((offsets[-1], offsets[-1]))
    for j, (wj, aj, bj) in enumerate(zip(blocks, a_blocks, bases)):
        a_inv = np.linalg.inv(aj)
        sl_j = slice(offsets[j], offsets[j + 1])
        hess[sl_j, sl_j] -= np.einsum("ab,rbc,cd,sda->rs", a_inv, bj, a_inv, bj).real
        for k, (wk, bk) in enumerate(zip(blocks, bases)):
            c = wj.conj().T @ s_inv @ wk
            t2 = np.einsum("rab,bc,scd,ad->rs", bj, c, bk, c.conj()).real
            hess[sl_j, offsets[k]:offsets[k + 1]] -= t2
    return hess


def _padded(blocks, mats=None, fill=1.0):
    """Zero-pad (d, m_j) blocks into an (N, d, b) stack, or (m_j, m_j)
    matrices into an (N, b, b) stack with fill times the identity on the
    padding."""
    b = max(x.shape[1] for x in blocks)
    if mats is None:
        out = np.zeros((len(blocks), blocks[0].shape[0], b), dtype=complex)
        for j, x in enumerate(blocks):
            out[j, :, :x.shape[1]] = x
        return out
    out = np.tile(fill * np.eye(b, dtype=complex), (len(mats), 1, 1))
    for j, x in enumerate(mats):
        out[j, :len(x), :len(x)] = x
    return out


@pytest.mark.parametrize("widths", [(1, 2, 3), (1, 1, 1, 1)])
def test_newton_system_matches_block_pairs(widths):
    rng = np.random.default_rng(7)
    d, t = 5, 2.3
    blocks = [rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)) for m in widths]
    a_blocks = [random_density(rng, m) for m in widths]
    # scale into the interior: W A W^dagger <= 1/2
    scale = 0.5 / np.linalg.norm(sum(w @ a @ w.conj().T for w, a in zip(blocks, a_blocks)), 2)
    a_blocks = [scale * a for a in a_blocks]
    wf = np.concatenate(blocks, axis=1)
    # the central point of parameter 1/t: X1 = A^-1 / t and Z = S^-1 / t,
    # where the Schur complement is the negated barrier Hessian over t
    a_inv = np.linalg.inv(_padded(blocks, a_blocks))
    s = np.eye(d) - sum(b @ a @ b.conj().T for b, a in zip(blocks, a_blocks))
    k = wf.conj().T @ np.linalg.inv(s) @ wf
    schur = _newton_system(a_inv / t, a_inv, k[None] / t, k[None], _width_groups(np.array(widths)))
    ref_hess = _reference_barrier_hessian(blocks, a_blocks)
    assert np.linalg.norm(schur + ref_hess / t) <= 1e-10 * np.linalg.norm(ref_hess / t)
    if set(widths) == {1}:
        a_diag = np.array([a[0, 0].real for a in a_blocks])
        closed = (np.abs(k) ** 2 + np.diag(1.0 / a_diag ** 2)) / t
        assert np.allclose(schur, closed, rtol=1e-10, atol=0)


def _block_units(widths):
    """The Hermitian basis of each block, embedded as M x M matrices on the
    block's diagonal position, M = sum of the widths, in block order."""
    m_total, units, lo = sum(widths), [], 0
    for m in widths:
        for e in _hermitian_basis(m):
            u = np.zeros((m_total, m_total), dtype=complex)
            u[lo:lo + m, lo:lo + m] = e
            units.append(u)
        lo += m
    return np.array(units)


def _reference_cluster_schur(x1, a_inv, ys, ks, widths):
    """Re Tr(E_r H(E_s)) with H(E) = X1 E A^-1 + sum_c Y_c E K_c, built one
    basis element and one cluster at a time on the dense M x M matrices."""
    units = _block_units(widths)
    schur = np.zeros((len(units),) * 2)
    for s, e_s in enumerate(units):
        h = x1 @ e_s @ a_inv
        for y, k in zip(ys, ks):
            h = h + y @ e_s @ k
        for r, e_r in enumerate(units):
            schur[r, s] = np.trace(e_r @ h).real
    return schur


@pytest.mark.parametrize("clusters", [
    [[1, 1, 1, 1, 1]],
    [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]],
    np.eye(5).tolist(),
], ids=["one", "three", "five"])
def test_newton_system_sums_over_clusters(clusters):
    rng = np.random.default_rng(8)
    d, widths = 5, (1, 2, 3)
    clusters = np.array(clusters, dtype=bool)
    pinch = clusters.T @ clusters
    a_blocks, x1_blocks = [], []
    for m in widths:
        a_blocks.append(random_density(rng, m))
        x1_blocks.append(random_density(rng, m))
    m = sum(widths)
    wd = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    w_blocks = np.split(wd, np.cumsum(widths)[:-1], axis=1)
    z, s = (random_density(rng, d) * pinch for _ in range(2))
    # the per-block stacks the solver holds ...
    wdc = clusters[:, :, None] * wd
    ys = wdc.conj().swapaxes(1, 2) @ z @ wdc
    ks = wdc.conj().swapaxes(1, 2) @ np.linalg.inv(s) @ wdc
    x1 = _padded(w_blocks, x1_blocks, fill=0.0)  # X1 is zero on the padding
    a_inv = np.linalg.inv(_padded(w_blocks, a_blocks))
    schur = _newton_system(x1, a_inv, ys, ks, _width_groups(np.array(widths)))
    # ... against the dense M x M matrices, one basis element at a time
    edges = np.cumsum([0, *widths])
    dense_x1, dense_a_inv = (np.zeros((edges[-1],) * 2, dtype=complex) for _ in range(2))
    for lo, hi, xj, aj in zip(edges[:-1], edges[1:], x1_blocks, a_blocks):
        dense_x1[lo:hi, lo:hi], dense_a_inv[lo:hi, lo:hi] = xj, np.linalg.inv(aj)
    reference = _reference_cluster_schur(dense_x1, dense_a_inv, ys, ks, widths)
    assert np.linalg.norm(schur - reference) <= 1e-12 * np.linalg.norm(reference)
    if len(clusters) == 1:
        # one cluster: the unreduced T(X1, A^-1) + T(Y, K) with Y = W^dagger Z W
        # over the index pairs (a, b) inside each block, T[i, k] =
        # X[q_i, p_k] Y[q_k, p_i] with p_i = a and q_i = b, in the coordinates
        # of B = diag(E_1, ..., E_N) with E_j the basis of
        # _hermitian_basis(m_j), one block pair at a time
        y, k = wd.conj().T @ z @ wd, wd.conj().T @ np.linalg.inv(s) @ wd
        dense = [np.zeros((edges[-1],) * 2, dtype=complex) for _ in range(2)]
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            for out, stack in zip(dense, (x1, a_inv)):
                out[lo:hi, lo:hi] = stack[j, :hi - lo, :hi - lo]
        pairs = [np.array([(a, c) for a in range(lo, hi) for c in range(lo, hi)]).T
                 for lo, hi in zip(edges[:-1], edges[1:])]
        herm = [_hermitian_basis(m).reshape(m * m, m * m) for m in widths]
        unreduced = np.block([[
            (e_j @ (dense[0][np.ix_(q_j, p_l)] * dense[1][np.ix_(q_l, p_j)].T
                    + y[np.ix_(q_j, p_l)] * k[np.ix_(q_l, p_j)].T) @ e_l.T).real
            for (p_l, q_l), e_l in zip(pairs, herm)] for (p_j, q_j), e_j in zip(pairs, herm)])
        assert np.array_equal(schur, unreduced)


def test_hermitian_basis_is_one_orthonormal_array():
    basis = _hermitian_basis(3)
    assert basis.shape == (9, 3, 3) and not basis.flags.writeable
    assert np.allclose(basis, basis.conj().transpose(0, 2, 1))
    assert np.allclose(np.einsum("rab,sba->rs", basis, basis), np.eye(9))


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


def _reference_certificate(ensemble, detection, z, geo, tol=1e-8):
    """The certificate conditions and ranks, one outcome at a time."""
    sym = lambda a: 0.5 * (a + a.conj().T)
    rho, n = geo.rho, ensemble.n_states
    z = sym(np.asarray(z, dtype=complex))
    rate = sum(float(np.trace(rho @ detection.conclusive[j]).real) for j in range(n))
    slack_min, stationarity, lower = np.inf, 0.0, 0
    for j in range(n):
        lam = geo.supports[j]
        slack_min = min(slack_min, float(np.linalg.eigvalsh(sym(lam @ (z - rho) @ lam))[0]))
        stationarity = max(stationarity, opnorm(lam @ (z - rho) @ detection.conclusive[j]))
        lower = max(lower, support_rank(lam @ ensemble.states[j] @ lam, RANK_CUTOFF))
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
