"""End-to-end acceptance checks.

Each test records one summary line (criterion number, PASS/FAIL, measured
numbers); conftest prints them in the terminal summary, outside pytest's
capture. The asserts mirror the same conditions.
"""

import time

import numpy as np

from maxconf import (
    DetectionSet,
    StateEnsemble,
    SymmetricFamily,
    build_depolarized_family,
    flat_mixed_solution,
    geometry,
    opnorm,
    perturbation_witness,
    pure_symmetric_solution,
    qubit_mixed_solution,
    solve_numeric,
    solve_rank1_symmetric,
    square_root_measurement,
    two_state_components,
)
import conftest
from conftest import random_coefficients, random_density


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)


# certificates and symmetric solve reports collected by the criteria below,
# re-examined wholesale by criteria 5 and 9
_CERTIFICATES = []
_SYMMETRIC_REPORTS = []


def test_criterion_1_pure_symmetric_values():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for order in range(2, 9):
        for dim in range(2, order + 1):
            for _ in range(50):
                c = random_coefficients(rng, dim)
                e = build_depolarized_family(c, order, 1.0)
                geo = geometry(e)
                rep = solve_rank1_symmetric(e, geo)
                _CERTIFICATES.append(rep.certificate)
                _SYMMETRIC_REPORTS.append(rep)
                q_expected = 1.0 - dim * float(np.min(np.abs(c)) ** 2)
                dev = max(
                    abs(rep.failure_probability - q_expected),
                    float(np.nanmax(np.abs(rep.confidences - dim / order))),
                )
                worst = max(worst, dev)
                count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, ok, f"{count} solves, worst deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_orthogonal_orbits():
    rng = np.random.default_rng(102)
    worst_cross = 0.0
    worst_conf = 0.0
    for dim in range(2, 9):
        for _ in range(10):
            c = random_coefficients(rng, dim)
            e = build_depolarized_family(c, dim, 1.0)
            rep = solve_rank1_symmetric(e)
            _CERTIFICATES.append(rep.certificate)
            _SYMMETRIC_REPORTS.append(rep)
            worst_conf = max(worst_conf, float(np.nanmax(np.abs(rep.confidences - 1.0))))
            for j in range(dim):
                for k in range(dim):
                    if j == k:
                        continue
                    worst_cross = max(
                        worst_cross, opnorm(rep.detection.conclusive[j] @ e.states[k])
                    )
    ok = worst_cross < 1e-9 and worst_conf < 1e-9
    _report(2, ok, f"worst cross-detection {worst_cross:.2e}, confidence deviation {worst_conf:.2e}")
    assert worst_cross < 1e-9
    assert worst_conf < 1e-9


def test_criterion_3_depolarized_qubit_grid():
    t0 = time.perf_counter()
    purities = np.linspace(0.05, 1.0, 20)
    angles = np.linspace(np.pi / 2 / 20, np.pi / 2, 20)
    worst_analytic = 0.0
    worst_numeric = 0.0
    count = 0
    for order in (2, 3, 4):
        for p in purities:
            for g in angles:
                conf_formula = (1.0 + p * np.sin(g) / np.sqrt(1.0 - p**2 * np.cos(g) ** 2)) / order
                q_formula = p * np.cos(g)
                fam = SymmetricFamily.qubit(order=order, purity=float(p), angle=float(g))
                sol = qubit_mixed_solution(fam)
                e = fam.ensemble()
                geo = geometry(e)
                rep = solve_rank1_symmetric(e, geo)
                _CERTIFICATES.append(rep.certificate)
                _SYMMETRIC_REPORTS.append(rep)
                worst_analytic = max(
                    worst_analytic,
                    abs(sol.confidence - conf_formula),
                    abs(sol.failure_probability - q_formula),
                    abs(rep.failure_probability - q_formula),
                    float(np.nanmax(np.abs(rep.confidences - conf_formula))),
                )
                num = solve_numeric(e, geo=geo)
                _CERTIFICATES.append(num.certificate)
                _SYMMETRIC_REPORTS.append(num)
                worst_numeric = max(
                    worst_numeric,
                    abs(num.failure_probability - q_formula),
                    float(np.nanmax(np.abs(num.confidences - conf_formula))),
                )
                count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_analytic < 1e-9 and worst_numeric < 1e-6 and elapsed < 60.0
    _report(
        3,
        ok,
        f"{count} grid points, analytic {worst_analytic:.2e}, numeric {worst_numeric:.2e}, {elapsed:.1f}s",
    )
    assert worst_analytic < 1e-9
    assert worst_numeric < 1e-6
    assert elapsed < 60.0


def test_criterion_4_flat_families_match_srm():
    worst_conf = 0.0
    worst_ops = 0.0
    count = 0
    for dim in (2, 3, 4):
        for order in range(dim, 9):
            for p in (0.25, 0.5, 1.0):
                fam = SymmetricFamily.flat(order=order, dim=dim, purity=p)
                sol = flat_mixed_solution(fam)
                assert sol.failure_probability == 0.0
                conf_formula = (1.0 + p * (dim - 1)) / order
                worst_conf = max(worst_conf, abs(sol.confidence - conf_formula))
                # the optimal operators coincide with the square-root
                # measurement of the pure components at every purity
                pure_twin = SymmetricFamily.flat(order=order, dim=dim, purity=1.0)
                srm_ops, srm_conf = square_root_measurement(pure_twin)
                if p == 1.0:
                    worst_conf = max(worst_conf, abs(srm_conf - conf_formula))
                for j in range(order):
                    worst_ops = max(worst_ops, opnorm(sol.detection_operators[j] - srm_ops[j]))
                rep = solve_rank1_symmetric(fam.ensemble())
                _CERTIFICATES.append(rep.certificate)
                _SYMMETRIC_REPORTS.append(rep)
                worst_conf = max(worst_conf, abs(rep.failure_probability - 0.0))
                count += 1
    ok = worst_conf < 1e-9 and worst_ops < 1e-8
    _report(4, ok, f"{count} families, confidence {worst_conf:.2e}, operator gap {worst_ops:.2e}")
    assert worst_conf < 1e-9
    assert worst_ops < 1e-8


def test_criterion_5_certificate_bookkeeping():
    # a fresh gauntlet of unstructured ensembles, then every certificate
    # collected by the criteria above
    rng = np.random.default_rng(11)
    local = []
    for _ in range(12):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        pri = rng.dirichlet(np.ones(n))
        states = tuple(random_density(rng, d) for _ in range(n))
        e = StateEnsemble(dim=d, priors=tuple(pri), states=states)
        rep = solve_numeric(e)
        assert rep.certified, rep.certificate.failures
        local.append(rep.certificate)

    certs = _CERTIFICATES + local
    worst_eq = 0.0
    worst_pos = 0.0
    ranks_ok = True
    for cert in certs:
        assert cert.accepted
        c = cert.conditions
        worst_eq = max(
            worst_eq,
            c["completeness_residual"],
            c["inconclusive_orthogonality"],
            c["stationarity_residual"],
            c["trace_gap"],
        )
        worst_pos = min(
            worst_pos,
            c["povm_min_eigenvalue"],
            c["z_min_eigenvalue"],
            c["support_slack_min_eigenvalue"],
        )
        ranks_ok = ranks_ok and cert.rank_bound_ok and cert.rank_z >= cert.min_rank_required
    ok = worst_eq < 1e-8 and worst_pos > -1e-8 and ranks_ok
    _report(
        5,
        ok,
        f"{len(certs)} certificates, residuals {worst_eq:.2e}, eigenvalue floor {worst_pos:.2e}, ranks {'ok' if ranks_ok else 'violated'}",
    )
    assert worst_eq < 1e-8
    assert worst_pos > -1e-8
    assert ranks_ok


def test_criterion_6_trace_identity():
    worst = 0.0
    count = 0
    for dim in (2, 3, 4):
        rng = np.random.default_rng(600 + dim)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            pri = rng.dirichlet(np.ones(n))
            states = tuple(random_density(rng, dim) for _ in range(n))
            e = StateEnsemble(dim=dim, priors=tuple(pri), states=states)
            geo = geometry(e)

            # a random measurement of the confidence-achieving form
            ops = []
            for j in range(n):
                m = int(geo.degeneracies[j])
                w = geo.detection_blocks[j][:, :m]
                g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                a = g @ g.conj().T
                ops.append(w @ a @ w.conj().T)
            total = np.sum(ops, axis=0)
            top = float(np.linalg.eigvalsh(0.5 * (total + total.conj().T))[-1])
            scale = 0.95 / max(top, 1e-12)
            ops = [scale * op for op in ops]
            det = DetectionSet.from_conclusive(np.stack(ops))

            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            z = g + g.conj().T

            rate = sum(float(np.trace(geo.rho @ op).real) for op in ops)
            lhs = float(np.trace(z).real) - rate
            rhs = float(np.trace(z @ det.inconclusive).real)
            for j in range(n):
                lam = geo.supports[j]
                rhs += float(np.trace(lam @ (z - geo.rho) @ lam @ ops[j]).real)
            worst = max(worst, abs(lhs - rhs))
            count += 1
    ok = worst < 1e-9
    _report(6, ok, f"{count} random decompositions, worst identity gap {worst:.2e}")
    assert worst < 1e-9


def test_criterion_7_witness_first_order(trine):
    det = DetectionSet.from_conclusive(
        np.stack([(2.0 / 3.0) * s for s in trine.states])
    )
    mus = (0.01, 0.05, 0.10)

    def ratios(eps):
        out = []
        for mu in mus:
            z = np.diag([1.0 + mu, -mu]).astype(complex)
            w = perturbation_witness(trine, det, z, eps)
            assert abs(w.mu - mu) < 1e-12
            out.append(w.gap / w.predicted_first_order)
        return np.array(out)

    # fit the band coefficient at each epsilon; the deviation must scale
    # linearly, so the two fits have to agree
    fits = {}
    details = []
    for eps in (1e-3, 1e-4):
        r = ratios(eps)
        dev = float(np.max(np.abs(r - 1.0)))
        fits[eps] = dev / (10.0 * eps)
        details.append(f"eps={eps:g} max|ratio-1|={dev:.2e}")
    k = max(fits.values())
    linear = abs(fits[1e-3] - fits[1e-4]) <= 0.05 * k
    band_ok = True
    for eps in (1e-3, 1e-4):
        r = ratios(eps)
        band_ok = band_ok and bool(np.all(np.abs(r - 1.0) <= 10.0 * eps * k * (1.0 + 1e-9)))
    ok = band_ok and linear and 0.0 < k < 1.0
    _report(7, ok, f"fitted k={k:.4f}, " + ", ".join(details))
    assert band_ok
    assert linear
    assert 0.0 < k < 1.0


def test_criterion_8_srm_bound():
    rng = np.random.default_rng(108)
    worst_violation = 0.0
    agree = True
    count = 0
    families = []
    for _ in range(200):
        order = int(rng.integers(2, 9))
        dim = int(rng.integers(2, order + 1))
        while True:
            c = random_coefficients(rng, dim)
            if np.max(np.abs(np.abs(c) ** 2 - 1.0 / dim)) > 1e-3:
                break
        families.append(SymmetricFamily(order=order, purity=1.0, coefficients=c))
    for order, dim in ((2, 2), (4, 2), (5, 3), (8, 4)):
        families.append(SymmetricFamily.flat(order=order, dim=dim, purity=1.0))

    for fam in families:
        sol = pure_symmetric_solution(fam)
        _, conf_srm = square_root_measurement(fam)
        worst_violation = max(worst_violation, conf_srm - sol.confidence)
        is_flat = float(np.max(np.abs(np.abs(fam.coefficients) ** 2 - 1.0 / fam.dim))) < 1e-9
        is_equal = abs(conf_srm - sol.confidence) <= 1e-9
        agree = agree and (is_flat == is_equal)
        count += 1
    ok = worst_violation <= 1e-9 and agree
    _report(
        8,
        ok,
        f"{count} families, worst SRM excess {worst_violation:.2e}, equality iff flat: {agree}",
    )
    assert worst_violation <= 1e-9
    assert agree


def test_criterion_9_correct_probability_identity():
    worst = 0.0
    for rep in _SYMMETRIC_REPORTS:
        c_common = float(np.nanmax(rep.confidences))
        worst = max(
            worst,
            abs(rep.correct_probability - c_common * (1.0 - rep.failure_probability)),
        )
    ok = worst < 1e-9 and len(_SYMMETRIC_REPORTS) > 1000
    _report(
        9,
        ok,
        f"{len(_SYMMETRIC_REPORTS)} symmetric solves, worst P_corr deviation {worst:.2e}",
    )
    assert worst < 1e-9
    assert len(_SYMMETRIC_REPORTS) > 1000


def test_criterion_10_two_state_split():
    rng = np.random.default_rng(110)
    worst_recon = 0.0
    worst_orth = 0.0
    worst_q = 0.0
    for _ in range(50):
        p = float(rng.uniform(0.1, 1.0))
        gamma = float(rng.uniform(0.1, np.pi / 2 - 0.05))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        c = np.array([np.cos(gamma / 2.0), np.sin(gamma / 2.0) * phase])
        e = build_depolarized_family(c, 2, p)
        geo = geometry(e)

        sigmas, weights = two_state_components(e, geo)
        recon = weights[0] * sigmas[0] + weights[1] * sigmas[1]
        worst_recon = max(worst_recon, opnorm(recon - geo.rho))
        worst_orth = max(worst_orth, opnorm(geo.top_projectors[0] @ geo.top_projectors[1]))

        q_formula = p * np.cos(gamma)
        fam = SymmetricFamily(order=2, purity=p, coefficients=c)
        sol = qubit_mixed_solution(fam)
        worst_q = max(worst_q, abs(sol.failure_probability - q_formula))
        num = solve_numeric(e, geo=geo)
        _CERTIFICATES.append(num.certificate)
        worst_q = max(worst_q, abs(num.failure_probability - q_formula))
    ok = worst_recon < 1e-9 and worst_orth < 1e-9 and worst_q < 1e-6
    _report(
        10,
        ok,
        f"50 pairs, recombination {worst_recon:.2e}, projector overlap {worst_orth:.2e}, Q deviation {worst_q:.2e}",
    )
    assert worst_recon < 1e-9
    assert worst_orth < 1e-9
    assert worst_q < 1e-6
