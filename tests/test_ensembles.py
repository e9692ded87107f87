import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import (
    DegenerateCoefficientError,
    InfeasibleInputError,
    InvalidPhasesError,
    MaxconfError,
    StateEnsemble,
    SymmetricFamily,
    SymmetrySpec,
    average_state,
    build_depolarized_family,
    build_symmetric_ensemble,
    default_phases,
    geometry,
    orbit,
    solve_rank1_symmetric,
    validate,
)
from maxconf.serialize import dump_json, ensemble_from_json, ensemble_to_json
from conftest import pure_qubit_pair, random_coefficients, random_density


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
    good = SymmetrySpec(order=3, phases=default_phases(3, 2))
    assert good.distinct()
    bad = SymmetrySpec(order=3, phases=np.array([1.0, 1.0]))
    assert not bad.distinct()


def test_symmetry_spec_clusters_are_eigenspaces():
    w = np.exp(2j * np.pi / 3)
    spec = SymmetrySpec(order=3, phases=np.array([w, 1.0, w, w**2, 1.0]))
    assert spec.clusters.astype(int).tolist() == [
        [1, 0, 1, 0, 0], [0, 1, 0, 0, 1], [0, 0, 0, 1, 0]]
    assert np.array_equal(SymmetrySpec(order=4, phases=default_phases(4, 3)).clusters,
                          np.eye(3, dtype=bool))


def test_symmetry_spec_tables_are_built_once():
    # the phase-power and eigenspace tables are built on first use, then kept
    spec = SymmetrySpec(order=5, phases=default_phases(5, 3))
    assert "powers" not in vars(spec) and "clusters" not in vars(spec)
    assert spec.powers is spec.powers and spec.clusters is spec.clusters
    assert np.array_equal(spec.powers, np.stack([spec.phases**k for k in range(5)]))


def test_symmetry_spec_generator_unitary():
    # V = diag(phases) is unitary with V^order = 1; phases off the unit
    # circle or not order-th roots of unity are refused
    spec = SymmetrySpec(order=4, phases=default_phases(4, 3))
    v = np.diag(spec.phases)
    assert np.allclose(v @ v.conj().T, np.eye(3))
    assert np.allclose(np.linalg.matrix_power(v, 4), np.eye(3))
    with pytest.raises(InvalidPhasesError, match="unit modulus"):
        SymmetrySpec(order=4, phases=[1.0, 1.0 + 1e-9])
    with pytest.raises(InvalidPhasesError, match="4-th roots of unity"):
        SymmetrySpec(order=4, phases=[1.0, np.exp(2j * np.pi / 3)])


def test_state_ensemble_shape_checks():
    with pytest.raises(InfeasibleInputError):
        StateEnsemble(dim=2, priors=(0.5, 0.5), states=(np.eye(3) / 3, np.eye(3) / 3))
    with pytest.raises(InfeasibleInputError):
        StateEnsemble(dim=2, priors=(1.0,), states=(np.eye(2) / 2, np.eye(2) / 2))


def test_zero_dimensional_ensemble_is_refused():
    # a 0 x 0 state used to be accepted, and validate and geometry then raised
    # a bare ValueError from an empty reduction, outside every MaxconfError
    with pytest.raises(InfeasibleInputError, match="dimension must be an integer of at least 1"):
        StateEnsemble(dim=0, priors=[1.0], states=np.zeros((1, 0, 0)))


def test_non_integer_dimension_is_refused():
    # dim = 2.0 matched the states' shape, and validate then raised a bare
    # TypeError when it reshaped the states by d * d
    with pytest.raises(InfeasibleInputError, match="got 2.0"):
        StateEnsemble(dim=2.0, priors=[1.0], states=np.eye(2)[None] / 2)
    # a boolean is a Python int; dim=True was written as "dim": true, which
    # ensemble_from_json refuses
    with pytest.raises(InfeasibleInputError, match="got True"):
        StateEnsemble(dim=True, priors=[1.0], states=np.ones((1, 1, 1)))
    dim = StateEnsemble(dim=np.int64(2), priors=[1.0], states=np.eye(2)[None] / 2).dim
    assert dim == 2 and type(dim) is int


def test_numpy_integer_dims_and_orders_round_trip_through_json():
    # a kept np.int64 made dump_json raise "not JSON serializable"
    trine = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), np.int64(3))
    e = StateEnsemble(dim=np.int64(2), priors=trine.priors, states=trine.states,
                      symmetry=SymmetrySpec(order=np.int64(3), phases=trine.symmetry.phases))
    for ensemble in (trine, e):
        back = ensemble_from_json(json.loads(dump_json(ensemble_to_json(ensemble))))
        assert (back.dim, back.symmetry.order) == (2, 3)
        assert np.array_equal(back.states, ensemble.states)
    assert type(SymmetricFamily.qubit(order=np.int64(3), purity=0.5, angle=1.0).order) is int


@pytest.mark.parametrize("bad", [True, 3.0, 2.5], ids=["boolean", "integral-float", "fraction"])
def test_dims_and_orders_must_be_integers(bad):
    # SymmetrySpec(order=True) and an integral float order were accepted, a
    # float order then failed with a bare TypeError in np.full or .powers,
    # and qubit_mixed_solution answered for a family of order 2.5
    d = int(bad)
    for build in (
        lambda: StateEnsemble(dim=bad, priors=[1.0], states=np.eye(d)[None] / d),
        lambda: SymmetrySpec(order=bad, phases=[1.0]),
        lambda: SymmetricFamily.qubit(order=bad, purity=0.5, angle=1.0),
        lambda: build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), bad),
    ):
        with pytest.raises(MaxconfError):
            build()


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


def _tampered_trine(case):
    e = build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2), 3)
    priors, states, spec = e.priors, e.states.copy(), e.symmetry
    if case == "negative-prior":
        priors = np.array([-0.1, 0.6, 0.5])
    elif case == "non-hermitian":
        states[1, 0, 1] += 1e-3
    elif case == "nan-phase":
        spec = SymmetrySpec(order=3, phases=np.array([np.nan, 1.0]))
    elif case == "orbit":
        # a traceless diagonal change keeps rho diagonal, so only the orbit
        # breaks; the negative eigenvalue it opens, about -1e-12, passes
        states[1] += 1e-6 * np.diag([1.0, -1.0])
    elif case == "commutation":
        states[1] = states[0]
    elif case == "priors":
        priors = np.array([0.5, 0.3, 0.2])
    else:
        spec = SymmetrySpec(order=4, phases=default_phases(4, 2))
    return StateEnsemble(dim=2, priors=priors, states=states, symmetry=spec)


def _non_finite(where, value):
    priors = np.array([0.5, 0.5])
    states = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
    if where == "prior":
        priors[0] = value
    else:
        states[1, 0, 1] = value
    return StateEnsemble(dim=2, priors=priors, states=states)


@pytest.mark.parametrize("case, name", [
    ("negative-prior", "prior_positivity"),
    ("non-hermitian", "state_hermiticity"),
    ("wrong-order", "symmetry_order"),
    ("orbit", "symmetry_orbit"),
    ("commutation", "symmetry_commutation"),
    ("priors", "symmetry_priors"),
])
def test_validate_names_the_violation(case, name):
    report = validate(_tampered_trine(case))
    assert name in [v.name for v in report.violations]


@pytest.mark.parametrize("case", ["commutation", "priors"])
def test_commutation_violation_measures_v_rho_minus_rho_v(case):
    # the check reads the phases, (V rho - rho V)_ab = (p_a - p_b) rho_ab;
    # its magnitude is that of the matrix products up to rounding
    e = _tampered_trine(case)
    v, rho = np.diag(e.symmetry.phases), average_state(e)
    expected = np.max(np.abs(v @ rho - rho @ v))
    (got,) = [u.magnitude for u in validate(e).violations if u.name == "symmetry_commutation"]
    assert abs(got - expected) <= 1e-15 * expected


_VIOLATING = {
    "negative-prior": lambda: _tampered_trine("negative-prior"),
    "non-hermitian": lambda: _tampered_trine("non-hermitian"),
    "wrong-order": lambda: _tampered_trine("wrong-order"),
    "nan-phase": lambda: _tampered_trine("nan-phase"),
    "orbit": lambda: _tampered_trine("orbit"),
    "commutation": lambda: _tampered_trine("commutation"),
    "priors": lambda: _tampered_trine("priors"),
    "nan-prior": lambda: _non_finite("prior", np.nan),
    "nan-entry": lambda: _non_finite("entry", np.nan),
    "inf-prior": lambda: _non_finite("prior", np.inf),
}


@pytest.mark.parametrize("case", sorted(_VIOLATING))
def test_geometry_refuses_what_validate_lists(case):
    # geometry runs validate's hard checks itself; its message lists the
    # same violations, "name (magnitude)" joined by "; "
    e = _VIOLATING[case]()
    names = [v.name for v in validate(e).violations]
    assert names
    with pytest.raises(InfeasibleInputError, match="ensemble fails validation") as err:
        geometry(e)
    listed = str(err.value).split(": ", 1)[1].split("; ")
    assert [item.split(" (")[0] for item in listed] == names


_RANK_FLAG = "average state is rank deficient; detection operators live on its support"


@pytest.mark.parametrize("theta", [3e-5, 1e-5, 1e-7])
def test_validate_keeps_the_rank_of_a_near_parallel_pair(theta):
    # rho's smallest eigenvalue, about eta_1 eta_2 theta^2, lies below a 1e-9
    # relative cutoff but above the rounding floor d u, where geometry cuts too
    assert _RANK_FLAG not in validate(pure_qubit_pair(theta)).flags


def test_validate_flags_states_embedded_in_a_larger_space():
    e = pure_qubit_pair(0.4)
    iso = np.eye(3)[:, :2]
    embedded = StateEnsemble(dim=3, priors=e.priors, states=iso @ e.states @ iso.T)
    assert _RANK_FLAG in validate(embedded).flags


def test_geometry_of_a_flagged_ensemble():
    # flags are informational: validate alone computes them, and geometry
    # builds the embedded pair's geometry with the qubit pair's confidences
    e = pure_qubit_pair(0.4)
    iso = np.eye(3)[:, :2]
    embedded = StateEnsemble(dim=3, priors=e.priors, states=iso @ e.states @ iso.T)
    report = validate(embedded)
    assert report.ok and report.flags == [_RANK_FLAG]
    assert np.max(np.abs(geometry(embedded).confidences - geometry(e).confidences)) <= 1e-12


@pytest.mark.parametrize("where, value", [("prior", np.nan), ("entry", np.nan), ("prior", np.inf)],
                         ids=["nan-prior", "nan-entry", "inf-prior"])
def test_validate_rejects_non_finite_input(where, value):
    # NaN fails every comparison, so without its own check it passed them all
    report = validate(_non_finite(where, value))
    assert [v.name for v in report.violations] == ["finite_values"]


@pytest.mark.parametrize("priors, entry, bad", [((np.inf, -np.inf), 1.0, 2), ((0.5, 0.5), np.inf, 1)],
                         ids=["inf-and-minus-inf-priors", "inf-on-the-diagonal"])
def test_validate_reports_infinities_without_a_warning(priors, entry, bad):
    # the finiteness screen (all_finite) runs before anything else is
    # computed, so no inf - inf is formed: it reports non-finite entries as
    # finite_values alone and warns nothing (the test run turns warnings
    # into errors)
    states = np.stack([np.eye(2), np.diag([entry, 0.0])]).astype(complex)
    e = StateEnsemble(dim=2, priors=np.array(priors), states=states)
    report = validate(e)
    assert [(v.name, v.magnitude) for v in report.violations] == [("finite_values", bad)]
    with pytest.raises(InfeasibleInputError, match="finite_values"):
        geometry(e)


@pytest.mark.parametrize("priors, state, name, magnitude", [
    ((0.5, 0.5), [[0.5, 1e308], [1e308, 0.5]], "state_positivity", 1e308),
    ((0.5, 0.5), [[0.5, 1e308], [-1e308, 0.5]], "state_hermiticity", np.inf),
    ((1e308, 1e308), np.eye(2) / 2, "prior_normalization", np.inf),
    ((0.5, 0.5), np.diag([1e308, 1e308]), "state_trace", np.inf),
    ((1e300, 1e300), np.diag([1e10, 1.0]), "prior_normalization", 2e300),
], ids=["hermitian", "anti-hermitian", "prior-sum", "trace", "average-state"])
def test_validate_lists_finite_input_that_overflows_without_a_warning(priors, state, name, magnitude):
    # a + a^dagger, a - a^dagger, the prior sum, a trace or the average state
    # overflows; hermitian_part halves first, so the Hermitian state keeps
    # its eigenvalue 0.5 - 1e308, and every inf or NaN fails its check (the
    # test run turns any overflow warning into an error)
    e = StateEnsemble(dim=2, priors=priors, states=[state] * 2)
    assert (name, magnitude) in [(v.name, v.magnitude) for v in validate(e).violations]
    with pytest.raises(InfeasibleInputError, match=name):
        geometry(e)


def test_validate_rejects_non_finite_phases():
    assert [v.name for v in validate(_tampered_trine("nan-phase")).violations] == ["finite_values"]


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
    got = orbit(ops if stacked else ops[0], SymmetrySpec(order, phases).powers)
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


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_build_symmetric_ensemble_rejects_non_finite_reference(kind, value):
    # NaN fails every comparison, so a test written as `x > tol` lets it
    # through; the builder refuses a non-finite reference before dividing or
    # diagonalizing, and a RuntimeWarning on the way fails the warning filter
    reference = np.array([1.0, 1.0]) / np.sqrt(2.0) if kind == "vector" else np.diag([0.7, 0.3])
    reference.flat[0] = value
    with pytest.raises(InfeasibleInputError):
        build_symmetric_ensemble(reference, 3)


@pytest.mark.parametrize("name, reference", [
    ("state_hermiticity", np.array([[0.7, 1e-3], [0.0, 0.3]])),
    ("state_positivity", np.diag([1.5, -0.5])),
    ("state_trace", np.diag([0.7, 0.7])),
])
def test_build_symmetric_ensemble_refuses_what_validate_lists(name, reference):
    # the orbit of a reference matrix gets validate's hard checks, named as
    # geometry names them
    with pytest.raises(InfeasibleInputError, match=f"ensemble fails validation: {name} "):
        build_symmetric_ensemble(reference, 3)


def test_build_symmetric_ensemble_normalizes_accepted_reference():
    # a norm off by 5e-10 passes the reference test; the orbit is built from
    # the normalized vector, so its traces meet validate's tighter TRACE_TOL
    e = build_symmetric_ensemble((1.0 + 5e-10) * np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
    assert validate(e).ok
    assert abs(np.trace(e.states[0]).real - 1.0) < 1e-15
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


def test_build_depolarized_family_rejects_nan_coefficient():
    with pytest.raises(InfeasibleInputError):
        build_depolarized_family(np.array([np.nan, 1.0]), 3, 0.5)


def test_build_depolarized_family_rejects_bad_purity():
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(InfeasibleInputError):
        build_depolarized_family(c, 3, 1.5)


def test_dim_larger_than_order_rejected():
    c = np.ones(4) / 2.0
    with pytest.raises(InvalidPhasesError):
        build_symmetric_ensemble(c, 3)


def test_symmetry_and_ensemble_shapes_are_refused():
    with pytest.raises(InvalidPhasesError, match="group order must be >= 1, got 0"):
        SymmetrySpec(order=0, phases=[1.0])
    with pytest.raises(InfeasibleInputError, match="ensemble must contain at least one state"):
        StateEnsemble(dim=2, priors=[], states=np.zeros((0, 2, 2)))
    with pytest.raises(InfeasibleInputError, match="symmetry phases have length 3, expected 2"):
        StateEnsemble(dim=2, priors=[1.0], states=np.eye(2)[None] / 2.0,
                      symmetry=SymmetrySpec(order=1, phases=np.ones(3)))


def test_build_symmetric_ensemble_refuses_phases_and_references_of_the_wrong_shape():
    c = np.array([0.6, 0.64, 0.48])
    with pytest.raises(InvalidPhasesError, match="2 phases for dimension 3"):
        build_symmetric_ensemble(c, 3, phases=default_phases(3, 2))
    with pytest.raises(InfeasibleInputError, match=r"vector or square matrix, got shape \(2, 3\)"):
        build_symmetric_ensemble(np.ones((2, 3)) / 3.0, 3)
    with pytest.raises(InfeasibleInputError, match=r"vector or square matrix, got shape \(2, 2, 2\)"):
        build_symmetric_ensemble(np.ones((2, 2, 2)) / 4.0, 3)


def test_validate_flags_repeated_phases():
    # a usable ensemble: flagged, not refused
    c = np.array([0.6, 0.64, 0.48])
    e = build_symmetric_ensemble(c, 3, phases=(1.0, 1.0, np.exp(2j * np.pi / 3)))
    report = validate(e)
    assert report.ok
    assert any(f.startswith("symmetry eigenphases are not pairwise distinct") for f in report.flags)
    assert not any("pairwise distinct" in f for f in validate(build_symmetric_ensemble(c, 3)).flags)
    # two states of the order-3 orbit: the order mismatch is a violation, and
    # the phases of a spec that is not the ensemble's orbit are not flagged
    part = validate(StateEnsemble(dim=3, priors=(0.5, 0.5), states=e.states[:2], symmetry=e.symmetry))
    assert [v.name for v in part.violations] == ["symmetry_order"]
    assert not any("pairwise distinct" in f for f in part.flags)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_random_symmetric_ensembles_validate(seed, order):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, order + 1))
    c = random_coefficients(rng, dim)
    e = build_depolarized_family(c, order, float(rng.uniform(0.1, 1.0)))
    report = validate(e)
    assert report.ok, [v.name for v in report.violations]
