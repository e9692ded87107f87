import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateCoefficientError,
    InfeasibleInputError,
    InvalidPhasesError,
    StateEnsemble,
    SymmetrySpec,
    average_state,
    build_depolarized_family,
    build_symmetric_ensemble,
    default_phases,
    orbit,
    solve_rank1_symmetric,
    validate,
)
from conftest import random_coefficients, random_density


def test_default_phases_order_two():
    ph = default_phases(2, 2)
    assert np.allclose(ph, [-1.0, 1.0])


def test_default_phases_distinct_roots():
    ph = default_phases(5, 4)
    assert np.allclose(np.abs(ph), 1.0)
    assert np.allclose(ph**5, 1.0)
    assert len(set(np.round(ph, 12))) == 4


def test_default_phases_needs_enough_roots():
    with pytest.raises(InvalidPhasesError):
        default_phases(2, 3)


def test_symmetry_spec_distinct():
    good = SymmetrySpec(order=3, phases=default_phases(3, 2), reference=np.eye(2) / 2)
    assert good.distinct()
    bad = SymmetrySpec(order=3, phases=np.array([1.0, 1.0]), reference=np.eye(2) / 2)
    assert not bad.distinct()


def test_symmetry_spec_clusters_are_eigenspaces():
    w = np.exp(2j * np.pi / 3)
    spec = SymmetrySpec(order=3, phases=np.array([w, 1.0, w, w**2, 1.0]), reference=np.eye(5) / 5)
    assert spec.clusters().astype(int).tolist() == [
        [1, 0, 1, 0, 0], [0, 1, 0, 0, 1], [0, 0, 0, 1, 0]]
    assert np.array_equal(SymmetrySpec(order=4, phases=default_phases(4, 3),
                                       reference=np.eye(3) / 3).clusters(), np.eye(3, dtype=bool))


def test_symmetry_spec_generator_unitary():
    spec = SymmetrySpec(order=4, phases=default_phases(4, 3), reference=np.eye(3) / 3)
    v = spec.generator()
    assert np.allclose(v @ v.conj().T, np.eye(3))
    assert np.allclose(np.linalg.matrix_power(v, 4), np.eye(3))


def test_state_ensemble_shape_checks():
    with pytest.raises(InfeasibleInputError):
        StateEnsemble(dim=2, priors=(0.5, 0.5), states=(np.eye(3) / 3, np.eye(3) / 3))
    with pytest.raises(InfeasibleInputError):
        StateEnsemble(dim=2, priors=(1.0,), states=(np.eye(2) / 2, np.eye(2) / 2))


def test_average_state():
    e = StateEnsemble(
        dim=2,
        priors=(0.25, 0.75),
        states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )
    assert np.allclose(average_state(e), np.diag([0.25, 0.75]))


def test_validate_accepts_good_ensemble():
    rng = np.random.default_rng(0)
    e = StateEnsemble(
        dim=3,
        priors=(0.2, 0.3, 0.5),
        states=tuple(random_density(rng, 3) for _ in range(3)),
    )
    report = validate(e)
    assert report.ok
    assert report.violations == []


def test_validate_flags_bad_priors():
    e = StateEnsemble(dim=2, priors=(0.7, 0.7), states=(np.eye(2) / 2, np.eye(2) / 2))
    report = validate(e)
    assert not report.ok
    assert any("prior" in v.name for v in report.violations)


def test_validate_flags_nonunit_trace():
    e = StateEnsemble(dim=2, priors=(0.5, 0.5), states=(np.eye(2), np.eye(2) / 2))
    assert not validate(e).ok


def test_validate_flags_non_psd_state():
    bad = np.diag([1.5, -0.5]).astype(complex)
    e = StateEnsemble(dim=2, priors=(0.5, 0.5), states=(bad, np.eye(2) / 2))
    assert not validate(e).ok


@pytest.mark.parametrize("where, value", [("prior", np.nan), ("entry", np.nan), ("prior", np.inf)],
                         ids=["nan-prior", "nan-entry", "inf-prior"])
def test_validate_rejects_non_finite_input(where, value):
    # NaN fails every comparison, so without its own check it passed them all
    priors = np.array([0.5, 0.5])
    states = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
    if where == "prior":
        priors[0] = value
    else:
        states[1, 0, 1] = value
    report = validate(StateEnsemble(dim=2, priors=priors, states=states))
    assert [v.name for v in report.violations] == ["finite_values"]


def test_validate_rejects_non_finite_phases():
    e = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2), 3)
    spec = SymmetrySpec(order=3, phases=np.array([np.nan, 1.0]), reference=e.symmetry.reference)
    tampered = StateEnsemble(dim=2, priors=e.priors, states=e.states, symmetry=spec)
    assert [v.name for v in validate(tampered).violations] == ["finite_values"]


def test_validate_flags_broken_orbit():
    # tamper with one state so the declared symmetry no longer holds
    e = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2), 3)
    states = list(e.states)
    states[2] = np.eye(2, dtype=complex) / 2
    tampered = StateEnsemble(dim=2, priors=e.priors, states=tuple(states), symmetry=e.symmetry)
    report = validate(tampered)
    assert not report.ok
    assert any("orbit" in v.name or "symmetry" in v.name for v in report.violations)


def test_validate_flags_nonuniform_priors_under_symmetry():
    e = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2), 3)
    tampered = StateEnsemble(
        dim=2, priors=(0.5, 0.25, 0.25), states=e.states, symmetry=e.symmetry
    )
    assert not validate(tampered).ok


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_orbit_matches_matrix_power(stacked):
    rng = np.random.default_rng(3)
    order, dim = 5, 3
    phases = default_phases(order, dim)
    ops = np.stack([random_density(rng, dim) for _ in range(order)])
    got = orbit(ops if stacked else ops[0], phases, order)
    assert got.shape == (order, dim, dim)
    for k in range(order):
        vk = np.linalg.matrix_power(np.diag(phases), k)
        src = ops[k] if stacked else ops[0]
        assert np.max(np.abs(got[k] - vk @ src @ vk.conj().T)) < 1e-14


def test_build_symmetric_ensemble_orbit():
    # order-2 orbit with explicit phases (1, -1) flips the second component
    psi = np.array([np.sqrt(0.8), np.sqrt(0.2)])
    e = build_symmetric_ensemble(psi, 2, phases=np.array([1.0, -1.0]))
    psi2 = np.array([np.sqrt(0.8), -np.sqrt(0.2)])
    assert np.allclose(e.states[0], np.outer(psi, psi))
    assert np.allclose(e.states[1], np.outer(psi2, psi2))
    assert np.allclose(e.priors, [0.5, 0.5])
    assert validate(e).ok


def test_build_symmetric_ensemble_matrix_reference():
    rho = np.diag([0.7, 0.3]).astype(complex)
    e = build_symmetric_ensemble(rho, 4)
    assert e.n_states == 4
    # diagonal reference commutes with the diagonal generator: constant orbit
    for s in e.states:
        assert np.allclose(s, rho)
    assert validate(e).ok


def test_build_symmetric_ensemble_rejects_unnormalized():
    with pytest.raises(InfeasibleInputError):
        build_symmetric_ensemble(np.array([1.0, 1.0]), 3)
    with pytest.raises(InfeasibleInputError):
        build_symmetric_ensemble((1.0 + 2e-9) * np.array([1.0, 1.0]) / np.sqrt(2.0), 3)


def test_build_symmetric_ensemble_normalizes_accepted_reference():
    # a norm off by 5e-10 passes the reference test; the orbit is built from
    # the normalized vector, so its traces meet validate's tighter TRACE_TOL
    e = build_symmetric_ensemble((1.0 + 5e-10) * np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
    assert validate(e).ok
    assert abs(np.linalg.norm(e.symmetry.reference) - 1.0) < 1e-15
    assert solve_rank1_symmetric(e).certified


def test_build_depolarized_family():
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    e = build_depolarized_family(c, 3, 0.5)
    rho1 = 0.5 * np.outer(c, c) + 0.25 * np.eye(2)
    assert np.allclose(e.states[0], rho1)
    assert validate(e).ok
    assert float(np.trace(e.states[1]).real) == pytest.approx(1.0)


def test_build_depolarized_family_rejects_zero_coefficient():
    with pytest.raises(DegenerateCoefficientError):
        build_depolarized_family(np.array([1.0, 0.0]), 3, 0.5)


def test_build_depolarized_family_rejects_bad_purity():
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(InfeasibleInputError):
        build_depolarized_family(c, 3, 1.5)


def test_dim_larger_than_order_rejected():
    c = np.ones(4) / 2.0
    with pytest.raises(InvalidPhasesError):
        build_symmetric_ensemble(c, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_random_symmetric_ensembles_validate(seed, order):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, order + 1))
    c = random_coefficients(rng, dim)
    e = build_depolarized_family(c, order, float(rng.uniform(0.1, 1.0)))
    report = validate(e)
    assert report.ok, [v.name for v in report.violations]
