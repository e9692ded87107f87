"""Solvers and certificates for maximum-confidence measurements.

A maximum-confidence measurement keeps every conclusive outcome at its top
confidence C_j, which confines each detection operator to

    Pi_j = W_j a_j W_j^dagger,   a_j >= 0,

with W_j the detection block of the discrimination geometry. The remaining
freedom is the choice of the positive blocks a_j, constrained by
sum_j Pi_j <= 1; the detection rate R = sum_j Tr(rho Pi_j) is linear in the
blocks, so minimizing the inconclusive probability Q = 1 - R is a
semidefinite program. This module provides:

* solve_rank1_symmetric: closed form for cyclic ensembles whose transformed
  states have a nondegenerate top eigenvalue,
* solve_numeric: a self-contained primal-dual interior-point solver for
  arbitrary ensembles (any degeneracies, no symmetry needed), whose dual
  iterate Z is the certificate; a cyclic ensemble, degenerate ones
  included, is solved as one covariant block,
* verify_certificate: checks a dual certificate (Z, detection set) against
  every optimality condition and reports the residuals,
* perturbation_witness: for a failed certificate, constructs a deformed
  measurement whose dual gap goes negative at first order, exhibiting the
  suboptimality concretely.

Optimality conditions checked by the verifier, for dual operator Z and the
support bases Q_j of the geometry (Lambda_j = Q_j Q_j^dagger):

    Z >= 0,                 Q_j^dagger (Z - rho) Q_j >= 0,
    Z Pi_0 = 0,             Q_j^dagger (Z - rho) Pi_j = 0,
    Tr Z = R,

plus the rank complementarity rank Z + rank Pi_0 <= d and
rank Z >= max_j rank(Q_j^dagger rho_j Q_j). Any Z passing all conditions
proves the measurement optimal; the verifier does not care where Z came
from. The interior point stops on the same rank count (_certificate_ranks)
once the duality gap is at most CERT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import StateEnsemble, average_state, orbit
from .errors import (
    DegenerateTopEigenvalueError,
    InfeasibleInputError,
    InvalidPhasesError,
    NoNegativeEigenvalueError,
    NotConvergedError,
    NotSymmetricError,
)
from .geometry import MCGeometry, geometry
from .operators import (
    CERT_TOL,
    DIAGONAL_TOL,
    MAX_ITERATIONS,
    OVERLAP_CUTOFF,
    RANK_CUTOFF,
    TIE_RTOL,
    ZERO_PROB,
    hermitian_part,
    opnorm,
    rank_of_spectrum,
    support_rank,
)

_TO_BOUNDARY = 0.98  # largest fraction of the way to a cone boundary per step
_TO_BOUNDARY_ORTHANT = 0.999  # the same when every cone is an orthant (an LP)


@dataclass(frozen=True)
class DetectionSet:
    """A complete measurement: inconclusive operator first, then the
    conclusive detection operators in ensemble order.

    operators has shape (N + 1, d, d); operators[0] is the inconclusive
    outcome Pi_0 and operators[j] detects state j for j = 1..N.
    """

    operators: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[0] < 1:
            raise InfeasibleInputError(f"operators must have shape (N+1, d, d), got {ops.shape}")
        object.__setattr__(self, "operators", ops)

    @classmethod
    def from_conclusive(cls, conclusive: np.ndarray) -> "DetectionSet":
        """Build a complete set by assigning the leftover weight 1 - sum
        to the inconclusive outcome."""
        conclusive = np.asarray(conclusive, dtype=complex)
        d = conclusive.shape[-1]
        pi0 = np.eye(d, dtype=complex) - conclusive.sum(axis=0)
        return cls(np.concatenate([pi0[None], conclusive], axis=0))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    @property
    def n_conclusive(self) -> int:
        return self.operators.shape[0] - 1

    @property
    def inconclusive(self) -> np.ndarray:
        return self.operators[0]

    @property
    def conclusive(self) -> np.ndarray:
        return self.operators[1:]

    def completeness_residual(self) -> float:
        return opnorm(self.operators.sum(axis=0) - np.eye(self.dim))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(hermitian_part(self.operators))[:, 0].min())


@dataclass(frozen=True)
class MeasurementStats:
    """Outcome statistics of a detection set on an ensemble."""

    outcome_probabilities: np.ndarray
    confidences: np.ndarray
    failure_probability: float
    detection_rate: float
    correct_probability: float
    zero_probability_outcomes: list[int]


def _require_matching(ensemble: StateEnsemble, detection: DetectionSet, z=None) -> None:
    if z is not None and np.shape(z) != (ensemble.dim,) * 2:
        raise InfeasibleInputError(f"dual Z has shape {np.shape(z)}, not {(ensemble.dim,) * 2}")
    if detection.dim != ensemble.dim:
        raise InfeasibleInputError(
            f"detection dimension {detection.dim} != ensemble dimension {ensemble.dim}"
        )
    if detection.n_conclusive != ensemble.n_states:
        raise InfeasibleInputError(
            f"{detection.n_conclusive} conclusive outcomes for {ensemble.n_states} states"
        )


def evaluate_measurement(ensemble: StateEnsemble, detection: DetectionSet) -> MeasurementStats:
    """Outcome probabilities, achieved confidences, and summary rates.

    The confidence of conclusive outcome j is the conditional probability
    that state j was present given outcome j fired. Outcomes with
    probability below 1e-14 get confidence nan and are listed in
    zero_probability_outcomes.
    """
    _require_matching(ensemble, detection)
    probs = np.einsum("jab,ba->j", detection.operators, average_state(ensemble)).real
    joint = np.einsum("j,jab,jba->j", ensemble.priors, detection.conclusive, ensemble.states).real
    fired = probs[1:] > ZERO_PROB
    confidences = np.full(ensemble.n_states, np.nan)
    confidences[fired] = joint[fired] / probs[1:][fired]
    return MeasurementStats(
        outcome_probabilities=probs,
        confidences=confidences,
        failure_probability=float(probs[0]),
        detection_rate=float(probs[1:].sum()),
        correct_probability=float(joint.sum()),
        zero_probability_outcomes=(np.flatnonzero(~fired) + 1).tolist(),
    )


@dataclass(frozen=True)
class OptimalityCertificate:
    """Result of checking a dual operator Z against a detection set.

    conditions maps each condition name to its measured residual (signed
    where a sign is meaningful: *_min_eigenvalue entries are smallest
    eigenvalues, the rest are operator norms of quantities that should
    vanish). accepted is True when every condition passes at the stored
    tolerance tol and the rank complementarity holds.
    """

    z: np.ndarray
    rate: float
    conditions: dict[str, float]
    failures: list[str]
    accepted: bool
    rank_z: int
    rank_inconclusive: int
    min_rank_required: int
    rank_bound_ok: bool
    tol: float


def _certificate_ranks(z_w: np.ndarray, pi0_w: np.ndarray) -> tuple[int, int]:
    """rank Z and rank Pi_0 from their spectra. Z's eigenvalues count
    relative to ||Z|| with no floor, so a dual of a tiny detection rate keeps
    its rank; Pi_0's against the cutoff floored at 1, as ||Pi_0|| <= 1."""
    rank_z = int(np.count_nonzero(np.abs(z_w) > RANK_CUTOFF * np.max(np.abs(z_w))))
    return rank_z, rank_of_spectrum(pi0_w, RANK_CUTOFF)


def verify_certificate(
    ensemble: StateEnsemble,
    detection: DetectionSet,
    z: np.ndarray,
    geo: MCGeometry | None = None,
    tol: float = CERT_TOL,
) -> OptimalityCertificate:
    """Check every optimality condition of (detection, Z) and measure residuals.

    Accepts if the measurement is a valid complete POVM, Z and the support
    slacks are positive semidefinite down to -tol, the orthogonality and
    stationarity products vanish within tol, |Tr Z - R| <= tol, and the
    rank complementarity holds on the computed ranks. The support conditions
    are b x b compressions by the Q_j: a slack's spectrum has the b - m_j zeros
    of the padding, not the d - m_j of Lambda_j (Z - rho) Lambda_j. Raises
    InfeasibleInputError unless Z is d x d and the detection set matches.
    """
    _require_matching(ensemble, detection, z)
    if geo is None:
        geo = geometry(ensemble)
    z = hermitian_part(np.asarray(z, dtype=complex))
    pi0 = detection.inconclusive
    q, qh = geo.support_bases, geo.support_bases.conj().swapaxes(1, 2)
    dual = qh @ (z - geo.rho)
    rate = float(np.einsum("ab,jba->", geo.rho, detection.conclusive).real)
    # one spectrum of Z and one of the Hermitian parts of the Pi stack give
    # both the positivity conditions and the ranks
    z_w = np.linalg.eigvalsh(z)
    pi_w = np.linalg.eigvalsh(hermitian_part(detection.operators))

    conditions: dict[str, float] = {}
    conditions["povm_min_eigenvalue"] = float(pi_w[:, 0].min())
    conditions["completeness_residual"] = detection.completeness_residual()
    conditions["z_min_eigenvalue"] = float(z_w[0])
    conditions["support_slack_min_eigenvalue"] = float(
        np.linalg.eigvalsh(hermitian_part(dual @ q))[:, 0].min()
    )
    conditions["inconclusive_orthogonality"] = opnorm(z @ pi0)
    conditions["stationarity_residual"] = float(
        np.linalg.norm(dual @ detection.conclusive, 2, axis=(1, 2)).max()
    )
    conditions["trace_gap"] = abs(float(np.trace(z).real) - rate)

    rank_z, rank_pi0 = _certificate_ranks(z_w, pi_w[0])
    lower = int(support_rank(qh @ ensemble.states @ q, RANK_CUTOFF).max())
    rank_ok = (rank_z + rank_pi0 <= ensemble.dim) and (rank_z >= lower)

    # *_min_eigenvalue entries fail below -tol, the residuals above tol
    failures = [name for name, value in conditions.items()
                if (value < -tol if name.endswith("_min_eigenvalue") else value > tol)]
    if not rank_ok:
        failures.append("rank_bound")

    return OptimalityCertificate(
        z=z,
        rate=rate,
        conditions=conditions,
        failures=failures,
        accepted=not failures,
        rank_z=rank_z,
        rank_inconclusive=rank_pi0,
        min_rank_required=lower,
        rank_bound_ok=rank_ok,
        tol=tol,
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: the measurement, its rates, and its certificate."""

    mode: str
    detection: DetectionSet
    detection_rate: float
    failure_probability: float
    confidences: np.ndarray
    correct_probability: float
    certificate: OptimalityCertificate
    certified: bool
    iterations: int = 0
    duality_gap: float = 0.0  # Tr Z - R of the interior-point pair; 0 in closed form


def _report(
    ensemble: StateEnsemble,
    geo: MCGeometry,
    mode: str,
    detection: DetectionSet,
    z: np.ndarray,
    iterations: int = 0,
    duality_gap: float = 0.0,
) -> SolveReport:
    """Evaluate the measurement and verify its certificate Z into a report."""
    certificate = verify_certificate(ensemble, detection, z, geo=geo)
    stats = evaluate_measurement(ensemble, detection)
    return SolveReport(
        mode=mode,
        detection=detection,
        detection_rate=stats.detection_rate,
        failure_probability=stats.failure_probability,
        confidences=stats.confidences,
        correct_probability=stats.correct_probability,
        certificate=certificate,
        certified=certificate.accepted,
        iterations=iterations,
        duality_gap=duality_gap,
    )


def solve_rank1_symmetric(
    ensemble: StateEnsemble, geo: MCGeometry | None = None
) -> SolveReport:
    """Closed-form optimal measurement for a cyclic ensemble whose
    transformed states have nondegenerate top eigenvalues.

    Works in the eigenbasis of the symmetry generator (where the average
    state is diagonal with entries r_l). With nu the top eigenvector of the
    first transformed state, the optimal weight is

        alpha = (1/N) min_l r_l / |<l|nu>|^2

    over components with nonvanishing overlap, giving failure probability
    Q = 1 - N alpha, conclusive operators the cyclic orbit of
    alpha (rho^(-1/2) nu)(rho^(-1/2) nu)^dagger, and a diagonal dual Z
    spread uniformly over the minimizing components. The returned report
    carries the verified certificate.
    """
    if ensemble.symmetry is None:
        raise NotSymmetricError("ensemble carries no symmetry data")
    sym = ensemble.symmetry
    if not sym.distinct():
        raise InvalidPhasesError(
            "closed form requires pairwise-distinct symmetry eigenphases"
        )
    if geo is None:
        geo = geometry(ensemble)
    n, d = ensemble.n_states, ensemble.dim
    if int(geo.degeneracies.max()) > 1:
        raise DegenerateTopEigenvalueError(
            f"top eigenvalue degeneracy {int(geo.degeneracies.max())} > 1; "
            "use the numerical solver"
        )

    rho = geo.rho
    off = float(np.max(np.abs(rho - np.diag(np.diag(rho)))))
    if off > DIAGONAL_TOL:
        raise NotSymmetricError(
            f"average state is not diagonal in the symmetry eigenbasis (off-diagonal {off:.3e})"
        )
    r = np.diag(rho).real

    nu, w1 = geo.top_vectors[0, :, 0], geo.detection_blocks[0, :, 0]  # nu and rho^(-1/2) nu
    overlaps = np.abs(nu) ** 2
    usable = overlaps > OVERLAP_CUTOFF  # nu is a unit vector, so some overlap is >= 1/d
    ratios = np.full(d, np.inf)
    ratios[usable] = r[usable] / overlaps[usable]
    alpha = float(ratios.min()) / n

    pi1 = alpha * np.outer(w1, w1.conj())
    detection = DetectionSet.from_conclusive(orbit(pi1, sym.phases, n))

    # dual operator: weight N*alpha spread over the components achieving
    # the minimum ratio (ties within relative TIE_RTOL)
    rmin = float(ratios.min())
    cluster = np.where(usable & (ratios <= rmin * (1.0 + TIE_RTOL)))[0]
    zdiag = np.zeros(d)
    zdiag[cluster] = n * alpha / cluster.size
    z = np.diag(zdiag).astype(complex)
    return _report(ensemble, geo, "analytic", detection, z)


def _entry_tables(widths: np.ndarray, b: int, n_clusters: int):
    """Index tables, made once per solve, over the n = sum_j m_j^2 entries
    of the blocks' real m_j x m_j corners in block, row, column order:
    (blk, row, col), each entry's place in an (N, b, b) stack; swap, the
    entry of its transpose; take, the flat indices of Y_c[cols[i], rows[k]]
    and K_c[cols[k], rows[i]] in (C, M, M) stacks, entry i sitting at row
    rows[i] and column cols[i] of the unpadded M x M layout; and local, for
    each pair (i, k) inside one block j, the flat index of (i, k) in an
    n x n matrix and those of X1_j[col_i, row_k] and A^-1_j[col_k, row_i]."""
    m = int(widths.sum())
    real = np.arange(b) < widths[:, None]
    blk, row, col = np.nonzero(real[:, :, None] & real[:, None, :])
    first, start = np.cumsum(widths ** 2) - widths ** 2, np.cumsum(widths) - widths
    rows, cols = start[blk] + row, start[blk] + col
    take = np.arange(n_clusters)[:, None, None] * m * m + cols[:, None] * m + rows
    i, k = np.nonzero(blk[:, None] == blk)
    at = blk[i] * b * b
    local = np.stack((i * blk.size + k, at + col[i] * b + row[k], at + col[k] * b + row[i]))
    swap = first[blk] + col * widths[blk] + row
    return (blk, row, col), swap, np.stack((take, take.swapaxes(1, 2))), local


def _newton_system(x1, a_inv, y, k, take, local, swap):
    """Schur complement of the HKM Newton system over the entries of the
    blocks (_entry_tables): with E_i the unit matrix of entry i,
    T[i, k] = Tr(E_i X1 E_k A^-1) + sum_c Tr(E_i Y_c E_k K_c), one gather per
    cluster and one over the pairs inside a block, and S = T + T^T. x1 and
    a_inv are (N, b, b) stacks, read only on the real m_j x m_j corners;
    y and k are the (C, M, M) stacks Y_c = W^dagger P_c Z P_c W and
    K_c = W^dagger P_c S^-1 P_c W over the clusters P_c of the constraint,
    W = [W_1 ... W_N] unpadded, M = sum_j m_j.

    Returned is the real system S.real + S[:, swap].imag. It maps the real
    coordinates h of a Hermitian dA, whose entries are
    v = (1 + i) h + (1 - i) h[swap], to Re u + Im u with u_i = Tr(E_i H) for
    H the Hermitian part of X1 dA A^-1 + sum_c Y_c dA K_c, and costs
    (sum_j m_j^2)^2 per cluster however the widths differ. On the central
    path (X1 = A^-1 / t, Z = S^-1 / t) H is the negated Hessian of the log
    barrier over t, applied to dA."""
    t = (y.ravel()[take[0]] * k.ravel()[take[1]]).sum(axis=0)
    t.ravel()[local[0]] += x1.ravel()[local[1]] * a_inv.ravel()[local[2]]
    t = t + t.T
    return t.real + t[:, swap].imag


def _embed(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The detection operators W_j a_j W_j^dagger of the (N, b, b) stack a,
    stacked (N, d, d); w is the (N, d, b) stack of the W_j."""
    return hermitian_part(w @ a @ w.conj().swapaxes(1, 2))


def _cone_factors(pair: np.ndarray):
    """The inverse Cholesky factors (L^-1, L^-dagger) of a stacked cone pair
    (2, ..., b, b), and the inverse of the pair's first member. 1 x 1 blocks
    are a nonnegative orthant and go elementwise (1/sqrt(x), 1/x). Raises
    LinAlgError where a member is not positive definite, as cholesky does,
    and on the orthant also where an entry is NaN."""
    if pair.shape[-1] == 1:
        x = pair.real
        if not (x > 0.0).all():
            raise np.linalg.LinAlgError("orthant entry is not positive")
        f = 1.0 / np.sqrt(x)
        return (f, f), 1.0 / pair[0]
    f = np.linalg.inv(np.linalg.cholesky(pair))
    fh = f.conj().swapaxes(-1, -2)
    return (f, fh), fh[0] @ f[0]


def _cone_lows(f: np.ndarray, fh: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of L^-1 dx L^-dagger for each member of a
    stacked cone pair, over all its blocks: x + alpha dx stays >= 0 while
    alpha times it is >= -1. Elementwise on the orthant (dx / x)."""
    if step.shape[-1] == 1:
        return (f * step.real * fh).reshape(2, -1).min(axis=1)
    return np.linalg.eigvalsh(f @ step @ fh)[..., 0].reshape(2, -1).min(axis=1)


def _step_lengths(factors, primal, dual, to_boundary):
    """Primal and dual step lengths, each at most 1 and at most
    to_boundary of the way to the boundary of its cones. factors holds
    (L^-1, L^-dagger) of the cone pairs (A, X1) and (S, Z); primal and
    dual hold the directions (dA, dS) and (dX1, dZ)."""
    (fa, fah), (fs, fsh) = factors
    lows = np.minimum(_cone_lows(fa, fah, np.array((primal[0], dual[0]))),
                      _cone_lows(fs, fsh, np.array((primal[1], dual[1]))))
    return (to_boundary / np.maximum(to_boundary, -lows)).tolist()


def _interior_point(rho: np.ndarray, w: np.ndarray, widths: np.ndarray, clusters: np.ndarray):
    """Maximize sum_j Tr(rho W_j a_j W_j^dagger) over a_j >= 0 with
    pinch(sum_j W_j a_j W_j^dagger) <= 1, pinch(X) = sum_c P_c X P_c, and
    minimize Tr Z over its dual Z = pinch(Z) >= 0,
    W_j^dagger (Z - rho) W_j >= 0, by a feasible-start Mehrotra
    predictor-corrector with the HKM direction.

    The blocks come as per-block stacks: w is (N, d, b) with b = max_j m_j
    and W_j in the first widths[j] columns of w[j], zero after them (as
    geometry.detection_blocks); A and X1 are (N, b, b) stacks exactly zero
    off the real m_j x m_j blocks, and the identity is added on the padding
    only to factor them, so the padding never enters the gap, nu or the
    Schur system, which is built over the sum_j m_j^2 entries of the blocks
    in any order of widths. The (A, X1) pair is factored, inverted and
    step-bounded per block by the stacked cholesky / inv / eigvalsh; when
    b = 1 it is a nonnegative orthant, done elementwise. The (C, d) 0/1
    indicator clusters gives the diagonal projectors P_c; a generic
    ensemble has the one cluster P = 1, a covariant one the eigenspaces of
    its generator. The cone pairs are (A, X1) with
    X1_j = W_j^dagger (Z - rho) W_j, and (S, Z) with
    S = 1 - pinch(sum_j W_j a_j W_j^dagger), a dense d x d pair; both are
    functions of A and Z, so every iterate is primal and dual feasible and
    the duality gap is Tr(X1 A) + Tr(Z S) = Tr Z - R. Each iteration builds
    the Schur complement (_newton_system) once and solves it, in real
    arithmetic, for the predictor and the corrector.

    Near the optimum a predictor-corrector step can leave a pair far from
    commuting: Tr(Z S) ~ gap while ||Z S|| ~ sqrt(gap), too large for the
    certificate's Z Pi_0 = 0. Commuting positive pairs have
    ||X A||_F <= Tr(X A), so an iterate with ||X1 A||_F + ||Z S||_F above
    the gap takes a sigma = 1 centering step instead, with one step length
    for A and Z (separate ones can cycle there), and no iterate far from
    commuting is ever reported. Each step goes _TO_BOUNDARY = 0.98 of the
    way to the boundary of its cones: a longer step leaves matrix pairs
    further from commuting and costs more iterations than it saves (0.99
    took the generic benchmark corpus from 608 to 637 iterations). When
    every cone is an orthant, b = 1 and every cluster a single coordinate
    (a cyclic ensemble with distinct phases and simple top eigenvalues),
    S and Z are diagonal, the problem is a linear program whose iterates
    always commute, and the step goes _TO_BOUNDARY_ORTHANT = 0.999 of the
    way, as LP interior-point codes do.

    Returns (A, iterations, gap, Z) at the first commuting iterate with
    gap <= CERT_TOL whose ranks fit, rank Z + rank S <= d counted as the
    certificate counts rank Z + rank Pi_0 (S is the Pi_0 of the measurement).
    A gap alone is no stop: a small detection rate R leaves S's kernel
    eigenvalue (about gap / R) above the rank cutoff, or Z (of norm R)
    without a rank, until the path goes deeper. Raises NotConvergedError if
    MAX_ITERATIONS runs out first, if rounding puts an iterate outside
    the cones or makes it NaN, or if the Schur complement is singular.
    """
    n, d, b = w.shape
    nu = d + int(widths.sum())
    wh = w.conj().swapaxes(1, 2)
    wf = w.transpose(1, 0, 2).reshape(d, n * b)  # [W_1 ... W_N], padded
    wfh = wf.conj().T
    eye = np.eye(d, dtype=complex)
    pinch = clusters.T @ clusters
    cols = np.arange(b) < widths[:, None]
    wc = clusters[:, :, None] * wf[:, cols.ravel()]  # unpadded, one per cluster
    wch = wc.conj().swapaxes(1, 2)
    gains = wh @ rho @ w
    pad = np.eye(b) * ~cols[:, None, :]  # the identity on the padding
    (blk, row, col), swap, take, local = _entry_tables(widths, b, len(clusters))
    # with every cone 1 x 1 (b = 1, clusters of one coordinate) the problem is an LP
    to_boundary = _TO_BOUNDARY_ORTHANT if b == 1 and clusters.sum(axis=1).max() == 1 else _TO_BOUNDARY

    def blocks(x):
        return wh @ x @ w

    def total(x):
        return (w @ x).transpose(1, 0, 2).reshape(d, n * b) @ wfh

    # strictly feasible start: scaled identities keeping the total below
    # 1/2, with ||W_j W_j^dagger|| = ||W_j^dagger W_j|| from the Gram stack
    # (their sum is >= 1: the columns of W are rho^-1/2 of unit vectors in
    # rho's support), and Z = kappa 1 with kappa doubled until every X1_j > 0
    norm_sum = float(np.linalg.eigvalsh(wh @ w)[:, -1].sum())
    a = 0.5 / norm_sum * (np.eye(b, dtype=complex) * cols[:, None, :])
    z = eye.copy()
    while np.linalg.eigvalsh(blocks(z - rho) + pad)[:, 0].min() <= 0.0:
        z *= 2.0

    iterations = 0
    while True:
        s, x1 = eye - hermitian_part(total(a)) * pinch, blocks(z - rho)
        xa, zs = x1 @ a, z @ s
        gap = float(np.trace(xa, axis1=1, axis2=2).real.sum() + np.trace(zs).real)
        mu = gap / nu
        commuting = np.sqrt(np.vdot(xa, xa).real) + np.sqrt(np.vdot(zs, zs).real) <= gap
        if (commuting and gap <= CERT_TOL
                and sum(_certificate_ranks(np.linalg.eigvalsh(z), np.linalg.eigvalsh(s))) <= d):
            return a, iterations, gap, z
        if iterations >= MAX_ITERATIONS:
            raise NotConvergedError(
                f"iteration budget {MAX_ITERATIONS} exhausted at duality gap {gap:.3e}"
            )
        if math.isnan(gap):  # numpy's cholesky lets a NaN iterate through
            raise NotConvergedError(f"iterate left the cone at duality gap {gap:.3e}")
        try:
            (fa, a_inv), (fs, s_inv) = (_cone_factors(np.array((a, x1)) + pad),
                                        _cone_factors(np.array((s, z))))
        except np.linalg.LinAlgError:
            raise NotConvergedError(f"iterate left the cone at duality gap {gap:.3e}") from None
        schur = _newton_system(x1, a_inv, wch @ z @ wc, wch @ s_inv @ wc, take, local, swap)
        # S^-1 is pinched like S, so the diagonal blocks of sum_c K_c are W_j^dagger S^-1 W_j
        centering = a_inv - blocks(s_inv)

        def solve(rhs):
            try:
                return np.linalg.solve(schur, rhs)
            except np.linalg.LinAlgError:
                raise NotConvergedError(f"singular Newton system at duality gap {gap:.3e}") from None

        def direction(target, affine=None):
            """HKM direction to the central point of parameter target,
            with the Mehrotra corrections of an affine direction."""
            rhs = target * centering + gains
            corr_s = 0.0
            if affine is not None:
                (da0, ds0), (dx0, dz0) = affine
                corr_s = hermitian_part(dz0 @ ds0 @ s_inv)
                rhs = rhs - hermitian_part(dx0 @ da0 @ a_inv) + blocks(corr_s)
            # in the real coordinates of _newton_system: Re u + Im u of
            # u_i = Tr(E_i rhs), and back, dA of entries (1 + i) h + (1 - i) h[swap]
            u = rhs[blk, col, row]
            h = solve(u.real + u.imag)
            da = np.zeros((n, b, b), dtype=complex)
            da[blk, row, col] = (1 + 1j) * h + (1 - 1j) * h[swap]
            ds = -total(da) * pinch
            dz = hermitian_part(target * s_inv - z - z @ ds @ s_inv - corr_s)
            return (da, ds), (blocks(dz), dz)

        factors = (fa, fs)
        if not commuting:
            primal, dual = direction(mu)
        else:
            primal, dual = direction(0.0)
            step_p, step_d = _step_lengths(factors, primal, dual, to_boundary)
            mu_aff = (np.vdot(x1 + step_d * dual[0], a + step_p * primal[0]).real
                      + np.vdot(z + step_d * dual[1], s + step_p * primal[1]).real) / nu
            primal, dual = direction(min(mu_aff / mu, 1.0) ** 3 * mu, (primal, dual))
        step_p, step_d = _step_lengths(factors, primal, dual, to_boundary)
        if not commuting:
            step_p = step_d = min(step_p, step_d)
        a = a + step_p * primal[0]
        z = z + step_d * dual[1]
        iterations += 1


def solve_numeric(ensemble: StateEnsemble, geo: MCGeometry | None = None) -> SolveReport:
    """Numerically optimal maximum-confidence measurement for any ensemble.

    Maximizes the detection rate over the positive coefficient blocks and
    minimizes Tr Z over the dual operators together, by a primal-dual
    interior-point method in the ambient space (S = 1 - W A W^dagger is the
    identity off the span of the detection blocks, so a rank-deficient rho
    needs no reduction), and verifies the certificate with the solver's own
    dual iterate Z. The report's certified flag states whether the
    certificate passed; the measurement itself is returned either way.

    A cyclic ensemble (any phases, repeated ones included, and any top
    degeneracy m) is solved in the covariant class Pi_j = V^j Pi_1 V^-j:
    the phases are N-th roots of unity, so sum_j V^j X V^-j = N pinch(X)
    over the eigenspaces of V, and the problem is one m x m block a under
    pinch(W a W^dagger) <= 1 with W = sqrt(N) W_1. Its Z commutes with V
    and certifies the full problem.

    The reported point has duality gap Tr Z - R at most CERT_TOL and ranks
    that fit rank Z + rank Pi_0 <= d (see _interior_point); iterations
    counts its interior-point iterations, at most MAX_ITERATIONS.
    """
    if geo is None:
        geo = geometry(ensemble)
    n, sym = ensemble.n_states, ensemble.symmetry
    w, widths, clusters = geo.detection_blocks, geo.degeneracies, np.ones((1, ensemble.dim), dtype=bool)
    if sym is not None:
        w, widths, clusters = np.sqrt(n) * w[:1, :, :widths[0]], widths[:1], sym.clusters()

    a, iterations, gap, z = _interior_point(geo.rho, w, widths, clusters)
    conclusive = _embed(w, a)
    if sym is not None:
        conclusive = orbit(conclusive[0] / n, sym.phases, n)
    detection = DetectionSet.from_conclusive(conclusive)
    return _report(ensemble, geo, "numeric", detection, z, iterations, gap)


@dataclass(frozen=True)
class PerturbationWitness:
    """A measurement deformation exhibiting a certificate failure.

    kind is "support-slack" when the negative eigenvalue sits in some
    Lambda_j (Z - rho) Lambda_j (outcome records which j, 1-based) and
    "dual-negativity" when Z itself has one (outcome 0). gap is the dual
    functional

        Tr(Z Pi'_0) + sum_j Tr[Lambda_j (Z - rho) Lambda_j Pi'_j]

    of the deformed measurement, whose leading behavior is
    predicted_first_order = -2 epsilon mu; a strictly negative gap shows the
    original measurement was not optimal for the claimed Z.
    """

    kind: str
    outcome: int
    mu: float
    epsilon: float
    gap: float
    baseline_gap: float
    predicted_first_order: float
    trace_minus_rate: float
    detection: DetectionSet
    completeness_residual: float
    min_eigenvalue: float


def perturbation_witness(
    ensemble: StateEnsemble,
    detection: DetectionSet,
    z: np.ndarray,
    epsilon: float,
    geo: MCGeometry | None = None,
    tol: float = CERT_TOL,
) -> PerturbationWitness:
    """Construct the deformed measurement that exploits a negative
    certificate eigenvalue.

    Finds the most negative eigenvalue mu among Z and the support slacks
    Lambda_j (Z - rho) Lambda_j with eigenvector |u> (on a tie Z wins, then
    the slack of lowest j), contracts every
    conclusive operator by (1 - epsilon |u><u|), and hands the released
    weight epsilon(2 - epsilon)|u><u| to the outcome that realizes the
    negativity (the inconclusive one for a negative eigenvalue of Z). The
    resulting set is a valid measurement by construction, and its dual
    functional drops below the baseline by 2 epsilon mu to first order.

    Raises NoNegativeEigenvalueError when neither Z nor any slack has an
    eigenvalue below -tol, and InfeasibleInputError as verify_certificate.
    """
    _require_matching(ensemble, detection, z)
    if geo is None:
        geo = geometry(ensemble)
    z = hermitian_part(np.asarray(z, dtype=complex))
    rho, q = geo.rho, geo.support_bases
    lam = q @ q.conj().swapaxes(1, 2)
    slacks = hermitian_part(lam @ (z - rho) @ lam)
    # entry 0 is Z and argmin takes the first minimum: the tie rule above
    w, v = np.linalg.eigh(np.concatenate((z[None], slacks)))
    k = int(np.argmin(w[:, 0]))
    if w[k, 0] >= -tol:
        raise NoNegativeEigenvalueError(
            f"no certificate eigenvalue below -{tol:.1e} (smallest is {w[k, 0]:.3e})"
        )
    kind = "support-slack" if k else "dual-negativity"
    mu = -float(w[k, 0])
    u = v[k, :, 0]
    proj = np.outer(u, u.conj())
    d = ensemble.dim
    contract = np.eye(d, dtype=complex) - epsilon * proj
    released = epsilon * (2.0 - epsilon) * proj

    primed = hermitian_part(contract @ detection.conclusive @ contract)
    if k:
        primed[k - 1] += released
    deformed = DetectionSet.from_conclusive(primed)

    def dual_functional(det: DetectionSet) -> float:
        return float(np.einsum("ab,ba->", z, det.inconclusive).real
                     + np.einsum("jab,jba->", slacks, det.conclusive).real)

    gap = dual_functional(deformed)
    baseline = dual_functional(detection)
    rate_primed = float(np.einsum("ab,jba->", rho, primed).real)
    return PerturbationWitness(
        kind=kind,
        outcome=k,
        mu=mu,
        epsilon=epsilon,
        gap=gap,
        baseline_gap=baseline,
        predicted_first_order=-2.0 * epsilon * mu,
        trace_minus_rate=float(np.trace(z).real) - rate_primed,
        detection=deformed,
        completeness_residual=deformed.completeness_residual(),
        min_eigenvalue=deformed.min_eigenvalue(),
    )
