import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateTopEigenvalueError,
    DetectionSet,
    InfeasibleInputError,
    InvalidPhasesError,
    MeasurementStats,
    NoNegativeEigenvalueError,
    NonHermitianError,
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
from maxconf import operators, solver
from maxconf.operators import CERT_TOL, RANK_CUTOFF, hermitian_part
from maxconf.solver import (
    _Blocks,
    _Clusters,
    _Diagonal,
    _Entries,
    _Layout,
    _Orthant,
    _Sum,
    _embed,
    _interior_point,
    _newton_system,
)
from conftest import (
    count_linalg,
    failing_lapack,
    mixed_width_ensemble,
    projectors,
    pure_qubit_pair,
    random_coefficients,
    random_density,
    random_ensemble,
    random_unitary,
    rank_raised_dual,
    short_budget,
)


def trine_optimal_detection(trine):
    ops = np.stack([(2.0 / 3.0) * s for s in trine.states])
    return DetectionSet.from_conclusive(ops)


def test_detection_set_completeness(trine):
    det = trine_optimal_detection(trine)
    assert det.dim == 2
    assert det.n_conclusive == 3
    conditions = verify_certificate(trine, det, np.eye(2) / 2.0).conditions
    assert conditions["completeness_residual"] < 1e-12
    # the trine detections exhaust the identity, so Pi_0 = 0
    assert opnorm(det.inconclusive) < 1e-12
    assert conditions["povm_min_eigenvalue"] > -1e-12


def test_detection_set_shape_check():
    with pytest.raises(InfeasibleInputError):
        DetectionSet(np.zeros((2, 3)))
    with pytest.raises(InfeasibleInputError, match=r"N >= 1"):
        DetectionSet(np.eye(2)[None])  # Pi_0 alone


def test_zero_dimensional_detection_set_is_refused():
    # 0 x 0 operators used to be accepted, and their smallest eigenvalue and
    # completeness residual then raised IndexError
    with pytest.raises(InfeasibleInputError, match="d >= 1"):
        DetectionSet(np.zeros((2, 0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "infinity"])
def test_detection_set_refuses_non_finite_entries(trine, bad):
    ops = trine_optimal_detection(trine).operators.copy()
    ops[2, 1, 1] = bad
    with pytest.raises(InfeasibleInputError, match="detection operators: entries must be finite"):
        DetectionSet(ops)


def test_detection_set_stores_the_exact_hermitian_part(trine):
    # an anti-Hermitian defect within TOL_HERM is dropped on construction
    ops = trine_optimal_detection(trine).operators.copy()
    ops[1] += 4e-10j * np.array([[0.0, 1.0], [1.0, 0.0]])
    det = DetectionSet(ops)
    assert np.array_equal(det.operators, det.operators.conj().swapaxes(1, 2))
    assert np.array_equal(det.operators, 0.5 * (ops + ops.conj().swapaxes(1, 2)))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["hermitian", "anti-hermitian"])
def test_gates_take_operators_whose_adjoint_sum_overflows(trine, sign):
    # entries +-1e308 are finite, but a + a^dagger (Hermitian) or a - a^dagger
    # (anti-Hermitian) is not: both gates store a finite Hermitian part,
    # which the certificate rejects, or refuse the operator
    report = solve_rank1_symmetric(trine)
    big = np.array([[0.0, 1e308], [sign * 1e308, 0.0]])
    ops = report.detection.operators + np.stack([big, -big, 0.0 * big, 0.0 * big])
    z = report.certificate.z + big
    if sign < 0:
        with pytest.raises(NonHermitianError, match="detection set deviates"):
            DetectionSet(ops)
        with pytest.raises(NonHermitianError, match="dual Z deviates"):
            verify_certificate(trine, report.detection, z)
        return
    detection = DetectionSet(ops)
    assert operators.all_finite(detection.operators)
    with np.errstate(over="ignore", invalid="ignore"):  # the certificate's Grams overflow
        for cert in (verify_certificate(trine, detection, report.certificate.z),
                     verify_certificate(trine, report.detection, z)):
            assert operators.all_finite(cert.z) and not cert.accepted


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


def test_solve_rank1_on_a_vanishing_coefficient():
    # rho = diag(0.36, 0.64, 0): the orbit lives in the first two coordinates,
    # and the closed form must not divide by the empty third one
    e = build_symmetric_ensemble(np.array([0.6, 0.8, 0.0]), 4)
    report = solve_rank1_symmetric(e)
    exact = pure_symmetric_solution(SymmetricFamily(order=4, purity=1.0, coefficients=np.array([0.6, 0.8])))
    assert report.certified, report.certificate.failures
    assert abs(report.failure_probability - exact.failure_probability) < 1e-12
    assert np.nanmax(np.abs(report.confidences - exact.confidence)) < 1e-12


def _eigenbasis_closed_form(ensemble):
    """The closed form's alpha and dual support by the eigenbasis route: with
    r_l the diagonal of rho and nu the top eigenvector of the first
    transformed state, alpha = (1/N) min_l r_l / |nu_l|^2 over the l with
    |nu_l|^2 > 1e-14, the dual on the l within 1e-9 of the minimum ratio."""
    geo = geometry(ensemble)
    r, overlaps = np.diag(geo.rho).real, np.abs(geo.top_vectors[0, :, 0]) ** 2
    usable = overlaps > 1e-14
    ratios = np.full(ensemble.dim, np.inf)
    ratios[usable] = r[usable] / overlaps[usable]
    tied = np.flatnonzero(usable & (ratios <= ratios.min() * (1.0 + 1e-9)))
    return float(ratios.min()) / ensemble.n_states, tied


def _closed_form_inputs():
    rng = np.random.default_rng(19)
    yield "trine", build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
    for dim, order, purity in ((2, 3, 1.0), (3, 5, 0.6), (4, 4, 0.3)):
        yield f"flat d={dim}", SymmetricFamily.flat(order=order, dim=dim, purity=purity).ensemble()
    for k in range(6):
        dim = int(rng.integers(2, 6))
        purity = 1.0 if k % 2 == 0 else float(rng.uniform(0.1, 0.95))
        fam = SymmetricFamily(order=int(rng.integers(dim, 9)), purity=purity,
                              coefficients=random_coefficients(rng, dim))
        yield f"{'pure' if purity == 1.0 else 'mixed'} d={dim}", fam.ensemble()


_CLOSED_FORM_INPUTS = list(_closed_form_inputs())


@pytest.mark.parametrize("label, ensemble", _CLOSED_FORM_INPUTS, ids=[label for label, _ in _CLOSED_FORM_INPUTS])
def test_closed_form_matches_the_eigenbasis_route(label, ensemble):
    # alpha = 1 / (N max_l |w_l|^2) from the detection block alone is the
    # eigenbasis formula, w_l = nu_l / sqrt(r_l) on rho's support
    alpha, tied = _eigenbasis_closed_form(ensemble)
    report = solve_rank1_symmetric(ensemble)
    assert report.certified, report.certificate.failures
    assert abs(report.detection_rate / ensemble.n_states - alpha) <= 1e-13 * alpha
    assert np.flatnonzero(np.diag(report.certificate.z).real > 0.0).tolist() == tied.tolist()
    if label.startswith("flat"):
        assert tied.size == ensemble.dim


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_certificate_tolerance_must_be_finite_and_nonnegative(trine, tol):
    # at a NaN tolerance every residual comparison is False and any dual passes
    det, z = trine_optimal_detection(trine), np.eye(2) / 4.0
    with pytest.raises(InfeasibleInputError, match="finite nonnegative"):
        verify_certificate(trine, det, z, tol=tol)
    with pytest.raises(InfeasibleInputError, match="finite nonnegative"):
        perturbation_witness(trine, det, z, 1e-3, tol=tol)


@pytest.mark.parametrize("k", [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                         ids=["sigma-x", "diag-10", "diag-01"])
@pytest.mark.parametrize("check", ["verify", "witness", "evaluate"])
def test_non_hermitian_detection_operators_are_refused(trine, k, check):
    # 0.3i K moved from Pi_2 to Pi_1 keeps completeness and the Hermitian
    # parts, and the rate and statistics take real parts, so only the
    # Hermiticity gate sees it; DetectionSet runs it on construction, before
    # any of the three can read the set
    report = solve_rank1_symmetric(trine)
    ops = report.detection.operators.copy()
    ops[1] += 0.3j * k
    ops[2] -= 0.3j * k
    z = report.certificate.z
    with pytest.raises(NonHermitianError, match="detection set deviates"):
        det = DetectionSet(ops)
        if check == "verify":
            verify_certificate(trine, det, z)
        elif check == "witness":
            perturbation_witness(trine, det, z, 1e-3)
        else:
            evaluate_measurement(trine, det)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "infinity"])
@pytest.mark.parametrize("check", ["verify", "witness"])
def test_non_finite_dual_is_refused(trine, check, bad):
    report = solve_rank1_symmetric(trine)
    z = report.certificate.z.copy()
    z[1, 1] = bad
    with pytest.raises(InfeasibleInputError, match="certificate z: entries must be finite"):
        if check == "verify":
            verify_certificate(trine, report.detection, z)
        else:
            perturbation_witness(trine, report.detection, z, 1e-3)


@pytest.mark.parametrize("check", ["verify", "witness"])
def test_non_hermitian_dual_is_refused(trine, check):
    # the certificate reads only Z's Hermitian part, which 0.3i sigma_x
    # leaves as it is: the optimal Z would pass
    report = solve_rank1_symmetric(trine)
    z = report.certificate.z + 0.3j * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonHermitianError, match="dual Z deviates"):
        if check == "verify":
            verify_certificate(trine, report.detection, z)
        else:
            perturbation_witness(trine, report.detection, z, 1e-3)


def test_nan_certificate_conditions_are_failures(trine):
    # 1e300 Z is finite, but the Grams of its products overflow and their
    # norms read NaN; a NaN condition is no pass
    report = solve_rank1_symmetric(trine)
    with np.errstate(over="ignore", invalid="ignore"):
        cert = verify_certificate(trine, report.detection, 1e300 * report.certificate.z)
    nan = [name for name, value in cert.conditions.items() if np.isnan(value)]
    assert nan, cert.conditions
    assert set(nan) <= set(cert.failures), (nan, cert.failures)
    assert not cert.accepted


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, 2.0, 3.0, np.nan, np.inf])
def test_witness_refuses_epsilon_outside_the_open_interval(trine, epsilon):
    # the released weight epsilon (2 - epsilon) |u><u| must be positive:
    # at epsilon = -1 the deformed set has eigenvalue -1/3
    report = solve_rank1_symmetric(trine)
    with pytest.raises(InfeasibleInputError, match="epsilon"):
        perturbation_witness(trine, report.detection, 0.8 * report.certificate.z, epsilon)


@pytest.mark.parametrize("solve", [solve_rank1_symmetric, solve_numeric])
def test_a_solve_report_checks_hermiticity_once_per_input(trine, solve, monkeypatch):
    # the detection set checks itself when it is built, and the gate for Z
    # checks the dual once; verify_certificate and evaluate_measurement
    # repeat neither
    names = []
    original = solver.require_hermitian

    def counting(a, name="operator"):
        names.append(name)
        return original(a, name=name)

    monkeypatch.setattr(solver, "require_hermitian", counting)
    report = solve(trine)
    assert report.certified
    assert names == ["detection set", "dual Z"], names


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
        # the stop rule reports no iterate far from commuting: ||Z S||_F <= gap,
        # and S is Pi_0 for a generic ensemble
        assert np.linalg.norm(cert.z @ report.detection.inconclusive) <= report.duality_gap


def test_solve_numeric_agrees_with_analytic(trine):
    analytic = solve_rank1_symmetric(trine)
    numeric = solve_numeric(trine)
    assert abs(analytic.detection_rate - numeric.detection_rate) < 1e-6


@pytest.mark.parametrize("solve", [solve_rank1_symmetric, solve_numeric])
def test_report_is_its_measurements_statistics(solve, trine):
    report = solve(trine)
    assert isinstance(report, MeasurementStats)
    stats = evaluate_measurement(trine, report.detection)
    for f in dataclasses.fields(MeasurementStats):
        mine, theirs = getattr(report, f.name), getattr(stats, f.name)
        if isinstance(theirs, np.ndarray):
            assert np.array_equal(mine, theirs, equal_nan=True), f.name
        else:
            assert mine == theirs, f.name


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
    monkeypatch.setattr(solver, "MAX_ITERATIONS", short_budget(monkeypatch, lambda: solve_numeric(trine)))
    with pytest.raises(NotConvergedError):
        solve_numeric(trine)


def test_singular_newton_system_does_not_converge(trine, monkeypatch):
    # a singular Schur complement leaves the interior point as a cone exit
    # does, not as a bare numpy error: the trine without its symmetry has a
    # 3 x 3 system, solved by LAPACK's solve1 (solver._solve), which returns
    # NaN for a singular one under the loop's errstate; the covariant
    # trine's is 1 x 1, a division that refuses a pivot not > 0, NaN
    # included, with no RuntimeWarning
    def singular(_, rhs):
        return np.full_like(rhs, np.nan)

    generic = StateEnsemble(dim=trine.dim, priors=trine.priors, states=trine.states)
    with monkeypatch.context() as patched:
        patched.setattr(solver, "_solve", singular)
        with pytest.raises(NotConvergedError, match="singular Newton system"):
            solve_numeric(generic)
    system = solver._newton_system
    for pivot in (0.0, -1.0, np.nan):
        with monkeypatch.context() as patched:
            # the system becomes the 1 x 1 pivot; K's block entries stay
            patched.setattr(solver, "_newton_system", lambda *args: (np.full((1, 1), pivot), system(*args)[1]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
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
    # a width-1 part of a cone pair is a pair of vectors: its inverse and step
    # bound are elementwise and must equal the cholesky / inv / eigvalsh
    # route on the same entries as 1 x 1 blocks
    rng = np.random.default_rng(40 + n)
    x, y = rng.uniform(0.1, 3.0, (2, n))
    blocks = lambda u, v: np.array((u, v))[:, :, None, None] + 0j
    x_inv, factors = _Orthant.factors(x, y)
    ref_f = np.linalg.inv(np.linalg.cholesky(blocks(x, y)))
    ref_fh = ref_f.conj().swapaxes(-1, -2)
    # the factors are L^-dagger L^-1 = (1/x, 1/y), and x_inv is 1/x
    assert np.allclose(factors, (ref_fh @ ref_f)[..., 0, 0].real, rtol=1e-14, atol=0)
    assert np.allclose(x_inv, np.linalg.inv(blocks(x, y)[0])[:, 0, 0].real, rtol=1e-14, atol=0)
    for sign in (1.0, -1.0, 0.0):
        dx, dy = sign * rng.uniform(0.1, 2.0, (2, n))
        ref = np.linalg.eigvalsh(ref_f @ blocks(dx, dy) @ ref_fh)[..., 0]
        # one bound per 1 x 1 block, as the stacks give one per block
        lows = _Orthant.lows(factors, dx, dy)
        assert np.allclose(lows, ref, rtol=1e-14, atol=0)
        assert np.allclose(lows, np.array((dx, dy)) / np.array((x, y)), rtol=1e-14, atol=0)
    for bad in (0.0, -1e-3, np.nan):
        broken = y.copy()
        broken[n // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.isnan(bad):  # numpy's cholesky lets a NaN through
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(blocks(x, broken))
            assert _Orthant.factors(x, broken) is None


def _negating_second(factors):
    """A cone form's factors with the second matrix of its pair negated:
    a negative definite block, whose LAPACK cholesky fails."""
    return staticmethod(lambda x, y: factors(x, -y))


@pytest.mark.parametrize("failure", ["(S, Z)", "(A, X1)", "singular"])
def test_a_failure_in_the_loop_stops_at_a_finite_gap_without_a_warning(trine, monkeypatch, failure):
    # LAPACK's gufuncs return NaN, under the loop's errstate, for a block
    # that does not factor and for a singular system; each must stop the
    # solve there with NotConvergedError at the finite gap of the iterate
    # that failed, warn nothing and leave numpy's error state as it was:
    # a non-positive-definite (S, Z) stack of one cluster (the trine
    # without its symmetry), a non-positive-definite wide (A, X1) stack
    # (widths 2, 2 and 1, the stack one part of a sum) and a singular
    # 3 x 3 Newton system (the zero matrix)
    generic = StateEnsemble(dim=trine.dim, priors=trine.priors, states=trine.states)
    if failure == "(S, Z)":
        e, message = generic, r"iterate left the cone at duality gap (\S+): \(S, Z\) not positive definite$"
        monkeypatch.setattr(solver._Clusters, "factors", _negating_second(solver._Clusters.factors))
    elif failure == "(A, X1)":
        e, message = mixed_width_ensemble(np.random.default_rng(21)), \
            r"iterate left the cone at duality gap (\S+): \(A, X1\) not positive definite$"
        monkeypatch.setattr(solver._Blocks, "factors", _negating_second(solver._Blocks.factors))
    else:
        e, message = generic, r"singular Newton system at duality gap (\S+)$"
        system = solver._newton_system

        def singular(*args):
            t, k = system(*args)
            return 0.0 * t, k

        monkeypatch.setattr(solver, "_newton_system", singular)
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConvergedError, match=message) as raised:
            solve_numeric(e)
    assert np.isfinite(float(re.search(message, str(raised.value)).group(1)))
    assert np.geterr() == state


def test_a_positive_pivot_below_one_is_divided_by(trine, monkeypatch):
    # the trine's Newton system is 1 x 1, solved by a division by its pivot
    # (120 at the first iteration), refused only unless it is > 0: scaled
    # to a pivot of 0.5, the one iteration of a budget of 1 must be taken,
    # and the solve end on the budget, not on a singular system
    system, pivots = solver._newton_system, []

    def scaled(*args):
        t, k = system(*args)
        assert t.shape == (1, 1)
        pivots.append(t[0, 0])
        return t * (0.5 / t[0, 0]), k

    monkeypatch.setattr(solver, "_newton_system", scaled)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    with pytest.raises(NotConvergedError, match=r"^iteration budget 1 exhausted at duality gap \S+$"):
        solve_numeric(trine)
    assert len(pivots) == 1 and pivots[0] > 1.0, pivots


@pytest.mark.parametrize("pair", ["(S, Z)", "(A, X1)"])
def test_a_step_bound_that_does_not_converge_names_its_pair(trine, monkeypatch, pair):
    # an eigvalsh of _Semidefinite.lows that does not converge makes a NaN
    # step bound; the solve must stop there with NotConvergedError naming
    # the pair, at the finite gap of the iterate, warn nothing and leave
    # numpy's error state as it was: the loop's eigvalsh fails only inside
    # the lows of the one-cluster (S, Z) stack of the trine without its
    # symmetry (whose (A, X1) is a vector), or of the wide (A, X1) stack
    # (widths 2, 2 and 1), one part of its sum
    if pair == "(S, Z)":
        e, form = StateEnsemble(dim=trine.dim, priors=trine.priors, states=trine.states), solver._Clusters
    else:
        e, form = mixed_width_ensemble(np.random.default_rng(21)), solver._Blocks
    inside, lows = [False], form.lows

    def flagged(*args):
        inside[0] = True
        try:
            return lows(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(form, "lows", staticmethod(flagged))
    monkeypatch.setattr(solver, "_eigvalsh", failing_lapack(solver._eigvalsh, lambda a: inside[0]))
    message = rf"step bound of {re.escape(pair)} not computed at duality gap (\S+)$"
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConvergedError, match=message) as raised:
            solve_numeric(e)
    assert np.isfinite(float(re.search(message, str(raised.value)).group(1)))
    assert np.geterr() == state


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
    # solve of the same states sorted by width in what the optimum fixes,
    # Q, Pi_0 and Z. How the conclusive weight splits among the outcomes is
    # not unique (solving deeper does not shrink the differences, up to 3e-5
    # here), so it is not compared; the interior point itself, on the same
    # geometry's blocks sorted by width, must give bitwise the same point
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
    assert np.linalg.norm(report.detection.inconclusive - sorted_report.detection.inconclusive) <= 1e-12
    assert np.max(np.abs(report.certificate.z - sorted_report.certificate.z)) <= 1e-10
    w, cols, one = _stacked_blocks(geo)
    a, iterations, gap, z = _interior_point(geo.rho, w, geo.degeneracies, one)
    assert not np.any(a[~(cols[:, :, None] & cols[:, None, :])])
    assert gap == report.duality_gap
    a_s, iterations_s, gap_s, z_s = _interior_point(geo.rho, w[by_width], geo.degeneracies[by_width], one)
    assert (iterations_s, gap_s) == (iterations, gap)
    assert np.array_equal(a_s, a[by_width]) and np.array_equal(z_s, z)


def test_solve_numeric_interleaved_widths():
    _check_against_width_sorted(3, 8, [0, 4])


def test_solve_numeric_three_wide_blocks_among_thirty():
    # 30 states of C^6 with m = 6 at 0, 10 and 20 and m = 1 elsewhere
    _check_against_width_sorted(6, 30, [0, 10, 20])


def test_solve_numeric_one_wide_block_among_thirty():
    # 30 states of C^8, one of them the average of the others (m = 8)
    _check_against_width_sorted(8, 30, [0])


def _tensored_with_mixed(k):
    """rho_j (x) 1/k for four random qutrit states: every m_j = k in d = 3k."""
    base = random_ensemble(np.random.default_rng(30 + k), 3, 4)
    return StateEnsemble(dim=3 * k, priors=base.priors,
                         states=tuple(np.kron(s, np.eye(k) / k) for s in base.states))


@pytest.mark.parametrize("k", [2, 3])
def test_solve_numeric_degenerate_tops(k):
    # rho_j (x) 1/k: every top eigenspace has dimension m_j = k
    e = _tensored_with_mixed(k)
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


def _x1_form(lay, stack):
    """The (A, X1) form (lay.ax.cones) of an X1-like (N, b, b) stack, from
    its entries X1_j[c_i, r_i] as the loop holds them; real when every
    block has width 1, as in the loop. The form holds those entries and no
    padding: its parts have n entries in all."""
    blk, row, col = lay.place
    entries = stack[blk, col, row]
    form = lay.ax.cones(entries.real if lay.real else entries, True)
    assert sum(np.size(part) for part in (form if isinstance(lay.ax, _Sum) else (form,))) == blk.size
    return form


def _parts(form):
    """The part classes of a cone pair's form, in the order it holds them."""
    return [type(part) for part in (form.parts if isinstance(form, _Sum) else (form,))]


# mixed widths in both orders, width-1 blocks only, and no width-1 block
WIDTHS = [(1, 2, 3), (3, 1, 2), (1, 1, 1, 1), (2, 3, 2)]


@pytest.mark.parametrize("clusters", [
    [[1, 1, 1, 1, 1]],
    [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]],
    np.eye(5).tolist(),
], ids=["one", "three", "five"])
def test_newton_system_sums_over_clusters(clusters):
    # on a Hermitian block-diagonal dA the system gives the Hermitian part of
    # X1 dA A^-1 + sum_c Y_c dA K_c, checked on the dense M x M matrices:
    # each cone pair is a direct sum of parts, the width-1 blocks and the
    # one-coordinate clusters a vector each, and the blocks of each wider
    # width and the clusters of each larger size an unpadded stack each
    # ("three" has clusters of sizes 2, 2 and 1: a vector and a stack of two)
    rng = np.random.default_rng(8)
    clusters = np.array(clusters, dtype=bool)
    pinch = clusters.T @ clusters
    sizes = set(clusters.sum(axis=1).tolist())
    for widths in WIDTHS:
        lay = _Layout(_random_blocks(rng, 5, widths)[0], np.array(widths), clusters)
        assert _parts(lay.ax) == [_Entries] * (1 in widths) + [_Blocks] * len(set(widths) - {1})
        assert _parts(lay.sz) == [_Diagonal] * (1 in sizes) + [_Clusters] * (max(sizes) > 1)
        n, b, m = len(widths), max(widths), sum(widths)
        w, a = _random_blocks(rng, 5, widths)
        x1 = _random_step(rng, widths)
        z, s = (random_density(rng, 5) * pinch for _ in range(2))
        real = np.arange(b) < np.array(widths)[:, None]
        wc = clusters[:, :, None] * w.transpose(1, 0, 2)[:, real]  # unpadded, per cluster
        ys = wc.conj().swapaxes(1, 2) @ z @ wc
        ks = wc.conj().swapaxes(1, 2) @ np.linalg.inv(s) @ wc
        a_inv = np.zeros((n, b, b), dtype=complex)
        for j, mj in enumerate(widths):
            a_inv[j, :mj, :mj] = np.linalg.inv(a[j, :mj, :mj])
        lay = _Layout(w, np.array(widths), clusters)
        system, k = _newton_system(lay, _x1_form(lay, x1), _x1_form(lay, a_inv),
                                   lay.sz.pinched(z), lay.sz.pinched(np.linalg.inv(s)))
        assert system.shape == (sum(mj * mj for mj in widths),) * 2
        # K's block entries: the entries of the W_j^dagger S^-1 W_j (S^-1 is pinched)
        blk, row, col = lay.place
        k_blocks = (w.conj().swapaxes(1, 2) @ np.linalg.inv(s) @ w)[blk, col, row]
        assert np.allclose(k, k_blocks, rtol=0, atol=1e-12 * np.abs(k_blocks).max())

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
            h, image = _real_coordinates((blk, row, col), lay.swap, da, corners((hm + hm.conj().T) / 2.0))
            assert np.linalg.norm(system @ h - image) <= 1e-12 * np.linalg.norm(image)


@pytest.mark.parametrize("clusters", [
    [[1, 1, 1, 1, 1]],
    [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]],
    np.eye(5).tolist(),
], ids=["one", "three", "five"])
def test_layout_maps_are_the_pinched_total_and_its_adjoint(clusters):
    # on the entries and forms the loop holds: pinch(sum_j W_j A_j W_j^dagger)
    # and the entries X_j[c_i, r_i] of W_j^dagger Z W_j, against the dense
    # forms, and Tr(Z total(A)) = sum_i blocks(Z)_i a_i, which makes them adjoint
    rng = np.random.default_rng(9)
    clusters = np.array(clusters, dtype=bool)
    pinch = clusters.T @ clusters
    for widths in WIDTHS:
        w, a = _random_blocks(rng, 5, widths)
        z = random_density(rng, 5) * pinch
        lay = _Layout(w, np.array(widths), clusters)
        sz, (blk, row, col) = lay.sz, lay.place
        a_entries = a[blk, row, col].real if lay.real else a[blk, row, col]
        assert np.allclose(sz.dense(sz.herm(sz.total(a_entries))),
                           _embed(w, a).sum(axis=0) * pinch, rtol=0, atol=1e-13)
        blocks = w.conj().swapaxes(1, 2) @ z @ w
        assert np.allclose(sz.blocks(sz.pinched(z)), blocks[blk, col, row], rtol=0, atol=1e-13)
        assert np.isclose(sz.blocks(sz.pinched(z)) @ a_entries, np.vdot(z, _embed(w, a).sum(axis=0)),
                          rtol=1e-13, atol=0)


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
    s_inv = np.linalg.inv(np.eye(d) - _embed(w, a).sum(axis=0))
    k = wf.conj().T @ s_inv @ wf
    lay = _Layout(w, np.array(widths), np.ones((1, d), dtype=bool))
    system, _ = _newton_system(lay, _x1_form(lay, a_inv / t), _x1_form(lay, a_inv),
                               lay.sz.pinched(s_inv / t), lay.sz.pinched(s_inv))
    for _ in range(3):
        da = _random_step(rng, widths)
        hess = (gradient(a + eps * da) - gradient(a - eps * da)) / (2.0 * eps)
        h, image = _real_coordinates(lay.place, lay.swap, da, -hess / t)
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
        closed = solve_rank1_symmetric(e)
        assert closed.certified, closed.certificate.failures
        assert abs(closed.failure_probability - exact.failure_probability) < 1e-12
    v = np.diag(e.symmetry.phases)
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
    # the ranks are taken of the Hermitian part: an anti-Hermitian defect in
    # Pi_0 within TOL_HERM (|A - A^dagger| = 8e-10) passes the Hermiticity
    # gate and leaves them as they are; a 1e-6 defect is refused there
    ops = trine_optimal_detection(trine).operators.copy()
    ops[0] += 4e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    cert = verify_certificate(trine, DetectionSet(ops), np.eye(2) / 2.0)
    assert cert.accepted, cert.failures
    assert (cert.rank_z, cert.rank_inconclusive, cert.min_rank_required) == (2, 0, 1)
    assert cert.rank_bound_ok
    ops[0] += 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NonHermitianError, match="detection set deviates"):
        verify_certificate(trine, DetectionSet(ops), np.eye(2) / 2.0)


def _linalg_calls_of_verify(monkeypatch, ensemble, detection, z):
    """The LAPACK calls (count_linalg), with their argument shapes, that
    one accepted verify_certificate makes once its geometry is built."""
    geo = geometry(ensemble)
    calls = count_linalg(monkeypatch, ("eigvalsh", "eigh", "svd", "norm"))
    cert = verify_certificate(ensemble, detection, z, geo=geo)
    assert cert.accepted, cert.failures
    return calls


def _linalg_calls_of_interior_point(monkeypatch, ensemble):
    """The LAPACK calls (count_linalg), with their argument shapes, of one
    certified solve_numeric's interior point alone: not geometry, the
    embedding or the certificate."""
    geo = geometry(ensemble)
    inside = [False]
    calls = count_linalg(monkeypatch, ("cholesky", "inv", "solve", "eigvalsh", "eigh", "svd", "norm"),
                         lambda: inside[0])
    loop = solver._interior_point

    def counted(*args):
        inside[0] = True
        try:
            return loop(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(solver, "_interior_point", counted)
    report = solve_numeric(ensemble, geo)
    assert report.certified, report.certificate.failures
    return calls, report


def test_trine_interior_point_makes_no_linalg_call(trine, monkeypatch):
    # the covariant trine is a linear program: every cone is an orthant, a
    # vector handled elementwise, and its 1 x 1 Newton system is a division,
    # so no iteration factors, inverts, solves or diagonalizes anything
    calls, report = _linalg_calls_of_interior_point(monkeypatch, trine)
    assert report.iterations > 0
    assert calls == [], calls


def test_width_one_blocks_stay_out_of_the_factored_stacks(monkeypatch):
    # one m = 8 block among 29 of m = 1: the width-1 blocks are one vector,
    # so no stack the loop factors, inverts or diagonalizes holds more than
    # one pair of 8 x 8 blocks (padding every block to 8 x 8 gives (2, 30, 8, 8))
    e = _with_averages(np.random.default_rng(23), 8, 30, [0])
    calls, _ = _linalg_calls_of_interior_point(monkeypatch, e)
    # the count sees the loop's factors, inverses, step bounds and solves
    assert {name for name, _ in calls} == {"cholesky", "inv", "eigvalsh", "solve"}, calls
    stacks = [shape for name, shape in calls if name in ("cholesky", "inv", "eigvalsh")]
    assert all(int(np.prod(shape[:-2])) <= 2 for shape in stacks), stacks


def test_verify_certificate_diagonalizes_each_operator_once(trine, monkeypatch):
    # one d x d spectrum (Z, the Pi stack and the Grams of the completeness
    # and orthogonality residuals) and one b x b spectrum (the slacks and the
    # stationarity Grams) serve every condition and counted rank; the lower
    # rank bound is geometry's max_j m_j, and no norm goes through an SVD. With
    # b = 1, as here, the b x b stack is 1 x 1, its own spectrum, and takes
    # no eigvalsh
    calls = _linalg_calls_of_verify(monkeypatch, trine, trine_optimal_detection(trine), np.eye(2) / 2.0)
    assert calls == [("eigvalsh", (7, 2, 2))], calls


def test_verify_certificate_diagonalizes_a_wide_stack_once(monkeypatch):
    # top eigenspaces of dimensions 2, 2 and 1: b = 2 keeps the b x b eigvalsh
    # of the (2N, b, b) stack, the N slacks and then the N stationarity Grams
    e = mixed_width_ensemble(np.random.default_rng(6))
    report = solve_numeric(e)
    calls = _linalg_calls_of_verify(monkeypatch, e, report.detection, report.certificate.z)
    assert calls == [("eigvalsh", (7, 4, 4)), ("eigvalsh", (6, 2, 2))], calls


def test_a_failed_spectrum_never_understates_the_rank_bound(monkeypatch):
    # the lower bound is geometry's max_j m_j = 2, read from no spectrum;
    # LAPACK's failure on the slacks (NaN, invalid flag raised) must raise
    # numpy's LinAlgError or fail the certificate, with no warning and with
    # the bound unchanged
    e = mixed_width_ensemble(np.random.default_rng(6))
    report = solve_numeric(e)
    geo, n = geometry(e), e.n_states
    assert report.certified and report.certificate.min_rank_required == 2

    eigvalsh = operators._eigvalsh

    def failing(a):
        w = eigvalsh(a)
        if a.shape[0] == 2 * n:  # the b x b stack: the slacks, then the stationarity Grams
            w[:n] = np.subtract(np.inf, np.inf)
        return w

    monkeypatch.setattr(operators, "_eigvalsh", failing)
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cert = verify_certificate(e, report.detection, report.certificate.z, geo=geo)
        except np.linalg.LinAlgError as err:
            assert str(err) == "Eigenvalues did not converge"
        else:
            assert not cert.accepted, cert.conditions
            assert cert.min_rank_required == 2
    assert np.geterr() == state


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
    the d x d form of Lambda_j = Q_j Q_j^dagger that the compressions replace.
    Norms are numpy's SVD-based ones, not the Gram route of the verifier,
    and ranks are counted here, not by the package's rank rule."""
    sym = lambda a: 0.5 * (a + a.conj().T)
    norm = lambda a: float(np.linalg.norm(a, 2))

    def rank(a):  # eigenvalue magnitudes above RANK_CUTOFF max(||a||, 1)
        w = np.abs(np.linalg.eigvalsh(sym(a)))
        return int(np.sum(w > RANK_CUTOFF * max(w.max(), 1.0)))

    rho, n = geo.rho, ensemble.n_states
    z = sym(np.asarray(z, dtype=complex))
    rate = sum(float(np.trace(rho @ detection.conclusive[j]).real) for j in range(n))
    slack_min, stationarity, lower = np.inf, 0.0, 0
    for j in range(n):
        q = geo.support_bases[j]
        if projector:
            q = q @ q.conj().T  # Lambda_j, so q^dagger (Z - rho) q is Lambda_j (Z - rho) Lambda_j
        slack_min = min(slack_min, float(np.linalg.eigvalsh(sym(q.conj().T @ (z - rho) @ q))[0]))
        stationarity = max(stationarity, norm(q.conj().T @ (z - rho) @ detection.conclusive[j]))
        lower = max(lower, rank(q.conj().T @ ensemble.states[j] @ q))
    conditions = {
        "povm_min_eigenvalue": min(float(np.linalg.eigvalsh(sym(op))[0])
                                   for op in detection.operators),
        "completeness_residual": norm(detection.operators.sum(axis=0) - np.eye(ensemble.dim)),
        "z_min_eigenvalue": float(np.linalg.eigvalsh(z)[0]),
        "support_slack_min_eigenvalue": slack_min,
        "inconclusive_orthogonality": norm(z @ detection.inconclusive),
        "stationarity_residual": stationarity,
        "trace_gap": abs(float(np.trace(z).real) - rate),
    }
    z_w = np.abs(np.linalg.eigvalsh(z))  # rank Z counts relative to ||Z||, with no floor
    ranks = (int(np.sum(z_w > RANK_CUTOFF * z_w.max())),
             rank(detection.inconclusive), lower)
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


_CLOSED_FORM_INPUTS = {
    "trine": lambda: build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3),
    "pure-qudit": lambda: build_symmetric_ensemble(random_coefficients(np.random.default_rng(5), 4), 6),
    "mixed-qutrit": lambda: build_depolarized_family(random_coefficients(np.random.default_rng(6), 3), 5, 0.7),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_INPUTS))
def test_certificate_norms_of_tiny_residuals_match_svd(name):
    # an exact optimum moved by 1e-12 gives residuals of that order; the
    # square roots of the Grams' top eigenvalues keep the SVD norms' relative
    # accuracy there
    e = _CLOSED_FORM_INPUTS[name]()
    geo = geometry(e)
    report = solve_rank1_symmetric(e, geo)
    rng = np.random.default_rng(9)

    def tiny(shape):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return 1e-12 * (g + g.conj().swapaxes(-1, -2))

    det = DetectionSet(report.detection.operators + tiny(report.detection.operators.shape))
    z = report.certificate.z + tiny((e.dim, e.dim))
    cert = verify_certificate(e, det, z, geo=geo)
    conditions = _reference_certificate(e, det, z, geo)[0]
    for k in ("completeness_residual", "inconclusive_orthogonality", "stationarity_residual"):
        assert 1e-14 < conditions[k] < 1e-10, (k, conditions[k])
        assert abs(cert.conditions[k] - conditions[k]) <= 1e-10 * conditions[k], k


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


@pytest.mark.parametrize("build, bound", [
    (lambda: build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3), 1),
    (lambda: mixed_width_ensemble(np.random.default_rng(6)), 2),
    (lambda: _tensored_with_mixed(2), 2),
    (lambda: _tensored_with_mixed(3), 3),
    (lambda: _tensored_with_mixed(4), 4),
    (lambda: pure_qubit_pair(1e-4), 1),
], ids=["trine", "mixed_width", "tensor_2", "tensor_3", "tensor_4", "near_parallel"])
def test_lower_rank_bound_is_the_top_multiplicity(build, bound):
    # rank Z >= max_j m_j; the near-parallel pair's Q_j^dagger rho_j Q_j is
    # theta^2 = 1e-8, so a rank counted against a cut floored at 1 reads 0
    e = build()
    geo = geometry(e)
    assert int(geo.degeneracies.max()) == bound
    report = solve_numeric(e, geo)
    assert report.certified, report.certificate.failures
    assert report.certificate.min_rank_required == bound


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
        cert = w.certificate
        assert cert.conditions["completeness_residual"] < 1e-12
        assert cert.conditions["povm_min_eigenvalue"] > -1e-12
        # the deformed set's own reading against the same Z, bitwise
        fresh = verify_certificate(trine, w.detection, z)
        assert cert.conditions == fresh.conditions
        assert cert.failures == fresh.failures and cert.rate == fresh.rate
        assert (cert.rank_z, cert.rank_inconclusive, cert.min_rank_required) == (
            fresh.rank_z, fresh.rank_inconclusive, fresh.min_rank_required)
        assert not cert.accepted  # Z keeps its negative eigenvalue


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
    assert w.certificate.conditions["completeness_residual"] < 1e-12
    assert w.certificate.conditions["povm_min_eigenvalue"] > -1e-12


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


def test_records_compare_and_hash_by_identity(trine):
    # records that hold arrays compare and hash as objects: == between two
    # separate builds of the trine, their symmetries, reports or detection
    # sets would otherwise compare arrays and raise, and hash() would fail
    other = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
    report, other_report = solve_rank1_symmetric(trine), solve_rank1_symmetric(other)
    for a, b in ((trine, other), (trine.symmetry, other.symmetry), (report, other_report),
                 (report.detection, other_report.detection), (report.certificate, other_report.certificate)):
        assert a == a and not a != a
        assert a != b and not a == b
        assert {a: 1}[a] == 1 and len({a, b}) == 2
