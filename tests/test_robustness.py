"""The robustness corpus: seeded draws of valid but adversarial inputs,
each checked against the invariants that hold for it, with the closed
forms as the oracle where they apply."""

import json

import numpy as np
import pytest

from maxconf import (
    MaxconfError,
    StateEnsemble,
    SymmetricFamily,
    build_depolarized_family,
    build_symmetric_ensemble,
    geometry,
    solve_numeric,
    solve_rank1_symmetric,
    verify_certificate,
)
from maxconf.serialize import (
    certificate_to_json,
    detection_from_json,
    detection_to_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
)
from maxconf.operators import CERT_TOL
from conftest import KNOWN, random_density, random_pure, random_unitary

KINDS = ("tiny_prior", "near_identical", "low_rank_rho", "near_rank_rho", "sym_pure", "sym_mixed", "many")


def adversarial_ensembles(per_kind=20, seed=0):
    """(kind, ensemble) for per_kind draws of each of the seven kinds, in
    turn, d in [2, 8] and N in [2, 11] except for `many`:

    tiny_prior: Dirichlet priors with eta_1 = 10^U(-14, -6), states of random rank;
    near_identical: (1 - eps) psi psi^dagger + eps sigma_j, eps = 10^U(-9, -3);
    low_rank_rho: states inside a random k-dimensional subspace, k < d;
    near_rank_rho: the same plus 10^U(-14, -6) of a full-rank state;
    sym_pure: a cyclic pure orbit with one coefficient scaled by 10^U(-6, 0);
    sym_mixed: a depolarized cyclic family at purity near 0 or near 1;
    many: N in [20, 60] pure states in d in [2, 4]."""
    rng = np.random.default_rng(seed)
    for k in range(per_kind * len(KINDS)):
        kind = KINDS[k % len(KINDS)]
        d, n = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        priors = rng.dirichlet(np.ones(n))
        if kind == "tiny_prior":
            tiny = 10.0 ** rng.uniform(-14.0, -6.0)
            priors = np.concatenate([[tiny], priors[1:] / priors[1:].sum() * (1.0 - tiny)])
            states = [random_density(rng, d, int(rng.integers(1, d + 1))) for _ in range(n)]
        elif kind == "near_identical":
            psi, eps = random_pure(rng, d), 10.0 ** rng.uniform(-9.0, -3.0)
            states = [(1.0 - eps) * np.outer(psi, psi.conj()) + eps * random_density(rng, d) for _ in range(n)]
        elif kind in ("low_rank_rho", "near_rank_rho"):
            basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            basis = basis[:, : int(rng.integers(1, d))]
            states = [basis @ random_density(rng, basis.shape[1]) @ basis.conj().T for _ in range(n)]
            if kind == "near_rank_rho":
                eps = 10.0 ** rng.uniform(-14.0, -6.0)
                states = [(1.0 - eps) * s + eps * random_density(rng, d) for s in states]
        elif kind in ("sym_pure", "sym_mixed"):
            n = max(n, d)
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            if kind == "sym_pure":
                c[rng.integers(d)] *= 10.0 ** rng.uniform(-6.0, 0.0)
                yield kind, build_symmetric_ensemble(c / np.linalg.norm(c), n)
            else:
                purity = 10.0 ** rng.uniform(-6.0, -1.0)
                purity = purity if rng.random() < 0.5 else 1.0 - purity
                yield kind, build_depolarized_family(c / np.linalg.norm(c), n, purity)
            continue
        else:
            d, n = int(rng.integers(2, 5)), int(rng.integers(20, 61))
            priors = rng.dirichlet(np.ones(n))
            states = [np.outer(v, v.conj()) for v in (random_pure(rng, d) for _ in range(n))]
        yield kind, StateEnsemble(dim=d, priors=priors, states=np.stack(states))


def test_adversarial_corpus_keeps_its_invariants():
    # what holds on every draw today: only MaxconfError is raised; a
    # certified answer's certificate is accepted again from its JSON; on
    # cyclic inputs with distinct phases and m = 1, Q matches the closed
    # form; and each outcome fires at its C_j, compared as joint
    # probabilities, since an outcome that fires with probability ~1e-10
    # has a confidence ratio that rounds far above CERT_TOL
    refused = certified = compared = 0
    for kind, e in adversarial_ensembles():
        try:
            geo = geometry(e)
            report = solve_numeric(e, geo)
        except MaxconfError:
            refused += 1
            continue
        if not report.certified:
            continue
        certified += 1
        obj = json.loads(dump_json({"ensemble": ensemble_to_json(e), "detection": detection_to_json(report.detection),
                                    "certificate": certificate_to_json(report.certificate)}))
        cert = verify_certificate(ensemble_from_json(obj["ensemble"]), detection_from_json(obj["detection"]),
                                  dual_from_certificate_json(obj["certificate"]))
        assert cert.accepted, (kind, cert.failures)
        pis = report.detection.operators[1:]
        joint = e.priors * np.einsum("jab,jba->j", e.states, pis).real
        fired = np.einsum("ab,jba->j", geo.rho, pis).real
        assert np.max(np.abs(joint - geo.confidences * fired)) <= CERT_TOL, kind
        if e.symmetry is not None and e.symmetry.distinct() and geo.degeneracies.max() == 1:
            exact = solve_rank1_symmetric(e, geo)
            assert abs(report.failure_probability - exact.failure_probability) <= 1e-6, kind
            compared += 1
    assert certified > 0 and compared > 0


def reordered(e, order):
    """e with its outcomes in order, as a plain StateEnsemble."""
    return StateEnsemble(dim=e.dim, priors=e.priors[order], states=e.states[order])


def exact_copies(e, rng):
    """Three exact copies of e, as plain StateEnsembles with no symmetry
    data, by name: its outcomes in an order drawn from rng, its states
    conjugated by a unitary drawn next (random_unitary), and its states
    embedded into d + 1 with one zero row and column. Q and every C_j are
    the same for all four."""
    order, u = rng.permutation(e.n_states), random_unitary(rng, e.dim)
    embedded = np.zeros((e.n_states, e.dim + 1, e.dim + 1), dtype=complex)
    embedded[:, :-1, :-1] = e.states
    return {"permutation": reordered(e, order),
            "unitary": StateEnsemble(dim=e.dim, priors=e.priors, states=u @ e.states @ u.conj().T),
            "embedding": StateEnsemble(dim=e.dim + 1, priors=e.priors, states=embedded)}


def certified_q(e):
    """solve_numeric's Q for e, or None where it raises or is uncertified."""
    try:
        report = solve_numeric(e)
    except MaxconfError:
        return None
    return report.failure_probability if report.certified else None


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(
        strict=True, raises=KNOWN, reason="ROADMAP item 16: a nearly singular rho's rounding moves the certified Q"))
    if kind == "near_rank_rho" else kind for kind in KINDS])
def test_certified_answers_do_not_depend_on_order_or_basis(kind):
    # each certified Q lies within its duality gap, at most CERT_TOL, of the
    # optimum, which exact_copies leaves unchanged: a draw and a copy that
    # both certify differ by at most 2 CERT_TOL (the worst at seed 0 is
    # 5.8e-9, `many` under embedding; `near_rank_rho` moves 11, 12 and 5
    # draws, worst 7.1e-3). A pair where one side raises or is uncertified
    # is counted, not asserted. The copies are drawn for every draw in
    # corpus order, so that each kind sees the same stream
    rng = np.random.default_rng(99)
    moved, compared, unanswered = [], 0, 0
    for index, (drawn, e) in enumerate(adversarial_ensembles()):
        copies = exact_copies(e, rng)
        if drawn != kind:
            continue
        q = certified_q(e)
        for change, copy in copies.items():
            other = None if q is None else certified_q(copy)
            if other is None:
                unanswered += 1
            elif abs(q - other) > 2.0 * CERT_TOL:
                moved.append((index, change, q - other))
            else:
                compared += 1
    assert moved == [], (moved, f"{compared} pairs agree, {unanswered} unanswered")
    assert compared > 0


def near_maximally_mixed_families(count=200, seed=7):
    """count cyclic qudit families, d in [2, 8] and N in [d, 11], with
    normalized complex Gaussian coefficients: the even draws at purity
    10^U(-6, -1), near the maximally mixed state, the odd ones at
    1 - 10^U(-9, -1), near a pure orbit."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(d, 12))
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if k % 2 == 0:
            purity = 10.0 ** rng.uniform(-6.0, -1.0)
        else:
            purity = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0)
        yield SymmetricFamily(order=n, purity=purity, coefficients=c / np.linalg.norm(c))


def test_near_maximally_mixed_cyclic_families_certify():
    # distinct phases and simple top eigenvalues make every cone an orthant
    # (the interior point's linear-program layout); every solve must be
    # certified and, where the closed form applies, agree with it
    compared = 0
    for family in near_maximally_mixed_families():
        e = family.ensemble()
        geo = geometry(e)
        report = solve_numeric(e, geo)
        assert report.certified, (family, report.certificate.failures)
        if geo.degeneracies.max() == 1:
            exact = solve_rank1_symmetric(e, geo)
            assert abs(report.failure_probability - exact.failure_probability) <= 1e-6, family
            np.testing.assert_allclose(report.confidences, exact.confidences, rtol=0, atol=1e-6)
            compared += 1
    assert compared > 0


def test_one_dimensional_ensemble_certifies_end_to_end():
    # d = 1: two states both [[1]], so every outcome keeps its prior as its
    # confidence and no outcome need be inconclusive; the solve must certify
    # with Q = 0 and confidences equal to the priors, and its certificate
    # must be accepted again after the solution's JSON round trip
    e = StateEnsemble(dim=1, priors=np.array([0.3, 0.7]), states=np.ones((2, 1, 1), dtype=complex))
    report = solve_numeric(e)
    assert report.certified, report.certificate.failures
    assert report.failure_probability <= 1e-8
    np.testing.assert_allclose(report.confidences, e.priors, rtol=0, atol=1e-8)
    obj = json.loads(dump_json({"ensemble": ensemble_to_json(e), "detection": detection_to_json(report.detection),
                                "certificate": certificate_to_json(report.certificate)}))
    cert = verify_certificate(ensemble_from_json(obj["ensemble"]), detection_from_json(obj["detection"]),
                              dual_from_certificate_json(obj["certificate"]))
    assert cert.accepted, cert.failures


def test_one_state_in_one_dimension_certifies():
    # N = 1 in d = 1: the smallest detection set there is, (2, 1, 1), both
    # through the interior point and as the order-1 cyclic closed form
    one = StateEnsemble(dim=1, priors=[1.0], states=[[[1.0]]])
    report = solve_numeric(one)
    assert report.certified and report.failure_probability <= CERT_TOL
    np.testing.assert_allclose(report.confidences, [1.0], rtol=0, atol=1e-12)
    assert report.detection.operators.shape == (2, 1, 1)
    assert verify_certificate(one, report.detection, report.certificate.z).accepted
    closed = solve_rank1_symmetric(build_symmetric_ensemble(np.array([1.0]), 1))
    assert closed.certified and closed.failure_probability == 0.0
