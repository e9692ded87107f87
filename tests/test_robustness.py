"""The robustness corpus: seeded draws of valid but adversarial inputs,
each checked against the invariants that hold for it, with the closed
forms as the oracle where they apply."""

import json

import numpy as np

from maxconf import (
    StateEnsemble,
    SymmetricFamily,
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
