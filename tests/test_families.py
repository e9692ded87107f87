import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateCoefficientError,
    InfeasibleInputError,
    InvalidPhasesError,
    SymmetricFamily,
    flat_mixed_solution,
    opnorm,
    pure_symmetric_solution,
    qubit_mixed_solution,
    solve_rank1_symmetric,
    square_root_measurement,
)
from conftest import random_coefficients


def test_family_validation():
    with pytest.raises(InfeasibleInputError):
        SymmetricFamily(order=3, purity=1.0, coefficients=np.array([1.0, 1.0]))
    with pytest.raises(DegenerateCoefficientError):
        SymmetricFamily(order=3, purity=1.0, coefficients=np.array([1.0, 0.0]))
    with pytest.raises(InfeasibleInputError):
        SymmetricFamily.qubit(order=3, purity=1.2, angle=1.0)
    with pytest.raises(InfeasibleInputError):
        SymmetricFamily.flat(order=2, dim=3, purity=1.0)
    # the order is checked before it is compared with the dimension
    for order in ("3", None):
        with pytest.raises(InvalidPhasesError, match="group order must be an integer, got"):
            SymmetricFamily(order=order, purity=1.0, coefficients=[0.6, 0.8])


@pytest.mark.parametrize("dim", [0, -2])
def test_flat_family_refuses_a_dimension_below_one(dim):
    # refused before 1/sqrt(dim), which warns on either
    with pytest.raises(InfeasibleInputError, match=f"dimension must be at least 1, got {dim}"):
        SymmetricFamily.flat(order=3, dim=dim, purity=0.5)


def test_closed_forms_refuse_families_outside_their_scope():
    mixed = SymmetricFamily.qubit(order=3, purity=0.5, angle=1.0)
    with pytest.raises(InfeasibleInputError, match="pure family solution requires purity = 1"):
        pure_symmetric_solution(mixed)
    with pytest.raises(InfeasibleInputError, match="square-root measurement comparison requires purity = 1"):
        square_root_measurement(mixed)
    with pytest.raises(InfeasibleInputError, match="qubit family solution requires dim = 2"):
        qubit_mixed_solution(SymmetricFamily.flat(order=4, dim=3, purity=0.5))


def test_family_rejects_nan_coefficients():
    # a NaN norm fails no comparison, so the norm test must be written to fail on it
    with pytest.raises(InfeasibleInputError):
        SymmetricFamily.qubit(order=3, purity=0.5, angle=np.nan)
    with pytest.raises(InfeasibleInputError):
        SymmetricFamily(order=3, purity=1.0, coefficients=np.array([np.nan, 1.0]))


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_family_refuses_a_non_finite_angle(angle):
    # refused before cos and sin, which warn on an infinite angle and
    # would give coefficients of norm NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleInputError, match="family angle must be finite"):
            SymmetricFamily.qubit(order=3, purity=0.5, angle=angle)


def test_pure_symmetric_closed_form():
    c = np.array([np.sqrt(0.8), np.sqrt(0.2)])
    fam = SymmetricFamily(order=3, purity=1.0, coefficients=c)
    sol = pure_symmetric_solution(fam)
    assert sol.confidence == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sol.failure_probability == pytest.approx(1.0 - 2.0 * 0.2, abs=1e-12)
    assert sol.alpha == pytest.approx((1.0 - sol.failure_probability) / 3.0, abs=1e-12)
    assert sol.correct_probability == pytest.approx(sol.confidence * 0.4, abs=1e-12)


def test_pure_symmetric_matches_solver():
    rng = np.random.default_rng(12)
    c = random_coefficients(rng, 3)
    fam = SymmetricFamily(order=5, purity=1.0, coefficients=c)
    sol = pure_symmetric_solution(fam)
    report = solve_rank1_symmetric(fam.ensemble())
    assert report.certified
    assert report.failure_probability == pytest.approx(sol.failure_probability, abs=1e-9)
    assert np.nanmax(np.abs(report.confidences - sol.confidence)) < 1e-9


def test_qubit_mixed_closed_form():
    fam = SymmetricFamily.qubit(order=3, purity=0.5, angle=np.pi / 3)
    sol = qubit_mixed_solution(fam)
    assert sol.confidence == pytest.approx((1.0 + 1.0 / np.sqrt(5.0)) / 3.0, abs=1e-12)
    assert sol.failure_probability == pytest.approx(0.25, abs=1e-12)
    assert sol.alpha == pytest.approx(0.25, abs=1e-12)


def test_qubit_mixed_matches_solver():
    fam = SymmetricFamily.qubit(order=4, purity=0.7, angle=1.1)
    sol = qubit_mixed_solution(fam)
    report = solve_rank1_symmetric(fam.ensemble())
    assert report.certified
    assert report.failure_probability == pytest.approx(sol.failure_probability, abs=1e-9)


def test_qubit_pure_limit_agrees():
    # purity 1 reduces the mixed formula to the pure one
    fam = SymmetricFamily.qubit(order=3, purity=1.0, angle=0.9)
    mixed = qubit_mixed_solution(fam)
    pure = pure_symmetric_solution(fam)
    assert mixed.confidence == pytest.approx(pure.confidence, abs=1e-12)
    assert mixed.failure_probability == pytest.approx(pure.failure_probability, abs=1e-12)


def test_flat_mixed_closed_form():
    fam = SymmetricFamily.flat(order=4, dim=3, purity=0.5)
    sol = flat_mixed_solution(fam)
    assert sol.confidence == pytest.approx(0.5, abs=1e-12)
    assert sol.failure_probability == 0.0
    ops = sol.detection_operators
    assert ops is not None
    e = fam.ensemble()
    for j in range(4):
        # recover the pure component from the depolarized state
        psi_proj = (e.states[j] - 0.5 * np.eye(3) / 3.0) / 0.5
        assert opnorm(ops[j] - (3.0 / 4.0) * psi_proj) < 1e-10


def test_flat_mixed_rejects_nonflat():
    fam = SymmetricFamily(order=3, purity=0.5,
                          coefficients=np.array([np.sqrt(0.8), np.sqrt(0.2)]))
    with pytest.raises(InfeasibleInputError):
        flat_mixed_solution(fam)


def test_square_root_measurement_confidence():
    c = np.array([np.sqrt(0.8), np.sqrt(0.2)])
    fam = SymmetricFamily(order=2, purity=1.0, coefficients=c)
    ops, conf = square_root_measurement(fam)
    assert conf == pytest.approx(0.9, abs=1e-12)
    total = ops.sum(axis=0)
    assert opnorm(total - np.eye(2)) < 1e-9
    for op in ops:
        assert float(np.linalg.eigvalsh(0.5 * (op + op.conj().T))[0]) > -1e-12


def test_srm_below_optimum_when_not_flat():
    c = np.array([np.sqrt(0.7), np.sqrt(0.3)])
    fam = SymmetricFamily(order=3, purity=1.0, coefficients=c)
    _, conf_srm = square_root_measurement(fam)
    sol = pure_symmetric_solution(fam)
    assert conf_srm < sol.confidence - 1e-6


def test_srm_equals_optimum_when_flat():
    fam = SymmetricFamily.flat(order=5, dim=3, purity=1.0)
    _, conf_srm = square_root_measurement(fam)
    sol = pure_symmetric_solution(fam)
    assert conf_srm == pytest.approx(sol.confidence, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_srm_never_beats_optimum(seed):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 7))
    dim = int(rng.integers(2, order + 1))
    c = random_coefficients(rng, dim)
    fam = SymmetricFamily(order=order, purity=1.0, coefficients=c)
    _, conf_srm = square_root_measurement(fam)
    sol = pure_symmetric_solution(fam)
    assert conf_srm <= sol.confidence + 1e-9
