import numpy as np
import pytest

from maxconf import StateEnsemble, build_symmetric_ensemble

# one line per acceptance criterion, filled in by test_acceptance and
# printed after the test run (pytest captures stdout at the fd level, so
# ordinary prints would be invisible on passing runs)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    """Unit-trace PSD matrix with the given rank (full by default)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    s = g @ g.conj().T
    return s / np.trace(s).real


def random_ensemble(rng, dim, n_states, mixed=True):
    priors = rng.dirichlet(np.ones(n_states))
    if mixed:
        states = [random_density(rng, dim) for _ in range(n_states)]
    else:
        states = [np.outer(v, v.conj()) for v in (random_pure(rng, dim) for _ in range(n_states))]
    return StateEnsemble(dim=dim, priors=tuple(priors), states=tuple(states))


def pure_qubit_pair(theta, priors=(0.4, 0.6)):
    """|0> and cos(theta)|0> + sin(theta)|1> with the given priors."""
    v = np.array([np.cos(theta), np.sin(theta)])
    states = np.stack([np.diag([1.0, 0.0]), np.outer(v, v)]).astype(complex)
    return StateEnsemble(dim=2, priors=np.array(priors), states=states)


def rank_raised_dual(z, inconclusive, eps=8.5e-9):
    """Z at its own trace plus eps along Pi_0's top eigenvector: for the
    theta = 0.4 qubit pair it breaks rank Z + rank Pi_0 <= d while every
    other certificate residual stays within its 1e-8 tolerance."""
    top = np.linalg.eigh(inconclusive)[1][:, -1]
    return z * (1.0 - eps / np.trace(z).real) + eps * np.outer(top, top.conj())


def projectors(bases):
    """B_j B_j^dagger for each basis of an (N, d, b) stack: the P_j of
    geometry's top_vectors, the Lambda_j of its support_bases."""
    return bases @ bases.conj().swapaxes(1, 2)


def random_coefficients(rng, dim, floor=0.05):
    """Normalized coefficient vector with every |c_l| >= floor."""
    while True:
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        c /= np.linalg.norm(c)
        if np.min(np.abs(c)) >= floor:
            return c


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0]


def mixed_width_ensemble(rng):
    """Three qudit states whose transformed states T_j have top eigenspaces
    of dimensions 2, 2 and 1: pick T_1 + T_2 + T_3 = 1 with those spectra
    and a random full-rank rho, then eta_j rho_j = rho^1/2 T_j rho^1/2."""
    d = 4
    u1, u2 = random_unitary(rng, d), random_unitary(rng, d)
    t1 = u1 @ np.diag([0.5, 0.5, 0.1, 0.2]) @ u1.conj().T
    t2 = u2 @ np.diag([0.3, 0.3, 0.05, 0.1]) @ u2.conj().T
    transformed = np.stack([t1, t2, np.eye(d) - t1 - t2])
    w, v = np.linalg.eigh(random_density(rng, d))
    root = (v * np.sqrt(w)) @ v.conj().T
    weighted = root @ transformed @ root
    priors = np.trace(weighted, axis1=1, axis2=2).real
    return StateEnsemble(dim=d, priors=priors, states=weighted / priors[:, None, None])


@pytest.fixture
def trine():
    # three equiangular pure qubit states, the standard symmetric ensemble
    return build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
