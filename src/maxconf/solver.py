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
    MAX_ITERATIONS,
    RANK_CUTOFF,
    TIE_RTOL,
    ZERO_PROB,
    gram,
    gram_norms,
    hermitian_part,
    opnorm,
    rank_of_spectrum,
    require_hermitian,
    spectra,
)

_TO_BOUNDARY = 0.98  # largest fraction of the way to a cone boundary per step
_TO_BOUNDARY_ORTHANT = 0.999  # the same when every cone is an orthant (an LP)


@dataclass(frozen=True)
class DetectionSet:
    """A complete measurement: inconclusive operator first, then the
    conclusive detection operators in ensemble order.

    operators has shape (N + 1, d, d), N, d >= 1; operators[0] is the
    inconclusive outcome Pi_0 and operators[j] detects state j for j = 1..N.
    Non-finite entries and operators not Hermitian within TOL_HERM (whose
    anti-Hermitian part no check reads) are refused; the exact Hermitian
    parts are stored.
    """

    operators: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[0] < 2 or ops.shape[1] < 1:
            raise InfeasibleInputError(f"operators must have shape (N+1, d, d), N >= 1, d >= 1, got {ops.shape}")
        if not np.isfinite(ops).all():
            raise InfeasibleInputError("detection operators: entries must be finite")
        object.__setattr__(self, "operators", require_hermitian(ops, name="detection set"))

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
        return float(np.linalg.eigvalsh(self.operators)[:, 0].min())


@dataclass(frozen=True)
class MeasurementStats:
    """Outcome statistics of a detection set on an ensemble."""

    outcome_probabilities: np.ndarray
    confidences: np.ndarray
    failure_probability: float
    detection_rate: float
    correct_probability: float
    zero_probability_outcomes: list[int]


def _require_matching(ensemble: StateEnsemble, detection: DetectionSet, z=None, tol=0.0) -> np.ndarray | None:
    """Z's Hermitian part (None without Z) once all inputs fit: the one gate
    for Z, which must be d x d, finite and Hermitian within TOL_HERM."""
    if not 0.0 <= tol < math.inf:  # a NaN tolerance would pass every comparison
        raise InfeasibleInputError(f"tolerance must be a finite nonnegative number, got {tol}")
    if z is not None and np.shape(z) != (ensemble.dim,) * 2:
        raise InfeasibleInputError(f"dual Z has shape {np.shape(z)}, not {(ensemble.dim,) * 2}")
    if z is not None and not np.isfinite(z).all():
        raise InfeasibleInputError("certificate z: entries must be finite")
    if detection.dim != ensemble.dim:
        raise InfeasibleInputError(
            f"detection dimension {detection.dim} != ensemble dimension {ensemble.dim}"
        )
    if detection.n_conclusive != ensemble.n_states:
        raise InfeasibleInputError(
            f"{detection.n_conclusive} conclusive outcomes for {ensemble.n_states} states"
        )
    return None if z is None else require_hermitian(z, name="dual Z")


def evaluate_measurement(ensemble: StateEnsemble, detection: DetectionSet) -> MeasurementStats:
    """Outcome probabilities, achieved confidences, and summary rates.

    The confidence of conclusive outcome j is the conditional probability
    that state j was present given outcome j fired. Outcomes with
    probability below 1e-14 get confidence nan and are listed in
    zero_probability_outcomes.
    """
    _require_matching(ensemble, detection)
    # Tr(Pi_j X) = sum_ab conj(Pi_j)_ab X_ab, the Pi_j being exactly Hermitian
    n, dd = ensemble.n_states, ensemble.dim ** 2
    flat = detection.operators.reshape(n + 1, 1, dd).conj()
    probs = (flat[:, 0] @ average_state(ensemble).reshape(dd)).real
    joint = ensemble.priors * (flat[1:] @ ensemble.states.reshape(n, dd, 1))[:, 0, 0].real
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
    z_abs = np.abs(z_w)
    rank_z = int((z_abs > RANK_CUTOFF * z_abs.max()).sum())
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
    rank complementarity holds on the computed ranks; a NaN residual fails.
    The support conditions are b x b compressions by the Q_j: a slack's
    spectrum has the b - m_j zeros of the padding, not the d - m_j of
    Lambda_j (Z - rho) Lambda_j. Raises InfeasibleInputError unless Z is
    finite and d x d, the detection set matches and tol is finite and
    nonnegative, and NonHermitianError for a Z not Hermitian within TOL_HERM.
    """
    z = _require_matching(ensemble, detection, z, tol)
    if geo is None:
        geo = geometry(ensemble)
    n, d = ensemble.n_states, ensemble.dim
    q, qh = geo.support_bases, geo.support_bases.conj().swapaxes(1, 2)
    dual = qh @ (z - geo.rho)
    rate = float(np.vdot(detection.conclusive.sum(axis=0), geo.rho).real)
    # two stacked spectra serve every condition and rank, each norm the root
    # of a Gram matrix's top eigenvalue as in opnorm. d x d: Z, Pi_0..Pi_N,
    # C C^dagger for C = sum_j Pi_j - 1 and (Z Pi_0)(Z Pi_0)^dagger
    c = detection.operators.sum(axis=0) - np.eye(d)
    zp = z @ detection.inconclusive
    big = np.linalg.eigvalsh(np.concatenate((
        z[None], detection.operators, gram(c)[None], gram(zp)[None])))
    z_w, pi_w = big[0], big[1:n + 2]
    # b x b: the slacks Q_j^dagger (Z - rho) Q_j, Q_j^dagger rho_j Q_j and the
    # Grams of the stationarity products Q_j^dagger (Z - rho) Pi_j
    small = spectra(np.concatenate((
        hermitian_part(dual @ q), hermitian_part(qh @ ensemble.states @ q),
        gram(dual @ detection.conclusive))))

    conditions: dict[str, float] = {}
    conditions["povm_min_eigenvalue"] = float(pi_w[:, 0].min())
    conditions["completeness_residual"] = float(gram_norms(big[n + 2]))
    conditions["z_min_eigenvalue"] = float(z_w[0])
    conditions["support_slack_min_eigenvalue"] = float(small[:n, 0].min())
    conditions["inconclusive_orthogonality"] = float(gram_norms(big[n + 3]))
    conditions["stationarity_residual"] = float(gram_norms(small[2 * n:]).max())
    conditions["trace_gap"] = abs(float(z.trace().real) - rate)

    rank_z, rank_pi0 = _certificate_ranks(z_w, pi_w[0])
    lower = int(rank_of_spectrum(small[n:2 * n], RANK_CUTOFF).max())
    rank_ok = (rank_z + rank_pi0 <= d) and (rank_z >= lower)

    # *_min_eigenvalue entries fail below -tol, the residuals above tol, NaN both
    failures = [name for name, value in conditions.items()
                if not (value >= -tol if name.endswith("_min_eigenvalue") else value <= tol)]
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

    With distinct phases, sum_j V^j Pi_1 V^-j = N diag(Pi_1) in the
    generator eigenbasis, so for Pi_1 = alpha w w^dagger, w = W_1 the first
    detection block (w^dagger rho w = 1), completeness reads
    N alpha |w_l|^2 <= 1 and the detection rate is N alpha. The optimum

        alpha = 1 / (N max_l |w_l|^2)

    gives failure probability Q = 1 - N alpha, conclusive operators the
    cyclic orbit of alpha w w^dagger, and a diagonal dual Z spread uniformly
    over the coordinates attaining the maximum. The returned report carries
    the verified certificate.
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
    n = ensemble.n_states
    if int(geo.degeneracies.max()) > 1:
        raise DegenerateTopEigenvalueError(
            f"top eigenvalue degeneracy {int(geo.degeneracies.max())} > 1; "
            "use the numerical solver"
        )

    w = geo.detection_blocks[0, :, 0]
    mods = np.abs(w) ** 2
    alpha = 1.0 / (n * float(mods.max()))
    detection = DetectionSet.from_conclusive(orbit(alpha * np.outer(w, w.conj()), sym.powers))
    # the dual spreads N alpha over the coordinates of the largest |w_l|^2 (ties within TIE_RTOL)
    tied = mods * (1.0 + TIE_RTOL) >= mods.max()
    z = np.diag(np.where(tied, n * alpha / np.count_nonzero(tied), 0.0)).astype(complex)
    return _report(ensemble, geo, "analytic", detection, z)


class _Layout:
    """How one solve holds its cone pairs, read from the block widths and
    the cluster sizes alone and built once: each pair has a width-1 part,
    a nonnegative orthant held as a real vector and handled elementwise, and
    a wider part of semidefinite blocks.

    (A, X1) lives on the n = sum_j m_j^2 entries (r_i, c_i) of the blocks'
    real m_j x m_j corners, the width-1 blocks first and then the wider
    ones, each in row, column order: A and its steps as the entry vector of
    the A_j[r_i, c_i], X1, A^-1 and the right-hand sides as that of the
    transposed X1_j[c_i, r_i], so that Tr(X1 A) is their plain dot product;
    both are real when every block has width 1. cones splits an entry vector
    into the width-1 blocks' real vector and the wider blocks' (Nw, bw, bw)
    stack, zero-padded to the widest of them. (S, Z) is held as its parts
    only: the clusters of one coordinate as the real vector over those
    coordinates p, the wider clusters as one dense pinched matrix over
    theirs, q. Between the two, pinch(sum_j W_j a_j W_j^dagger) is P a on p,
    with P[l, i] = conj(W[l, c_i]) W[l, r_i], and one product of W's columns
    r_i and c_i on q (total); the entries of W_j^dagger Z W_j are the adjoint
    products (blocks).
    """

    def __init__(self, w: np.ndarray, widths: np.ndarray, clusters: np.ndarray):
        order = np.argsort(widths > 1, kind="stable")  # width-1 blocks first
        widths = widths[order]
        real = np.arange(w.shape[2]) < widths[:, None]
        blk, row, col = np.nonzero(real[:, :, None] & real[:, None, :])
        start = np.cumsum(widths) - widths
        self.n, self.nv = n, nv = blk.size, int((widths == 1).sum())
        self.real = nv == n
        # the entry of the transpose: each entry its own when every block has width 1
        first = np.cumsum(widths ** 2) - widths ** 2
        self.swap = slice(None) if self.real else first[blk] + col * widths[blk] + row
        self.place = order[blk], row, col  # each entry in an (N, b, b) stack
        self.full_shape = w.shape[:1] + w.shape[2:] * 2
        self.pads = [0.0] * (nv > 0)
        if not self.real:
            wide, wb, rw, cw = widths[nv:], blk[nv:] - nv, row[nv:], col[nv:]
            bw = int(wide.max())
            self.wide_shape = (wide.size, bw, bw)
            # the flat places of the wider blocks' entries in their stack, as
            # A's and, transposed, as X1's
            self.at, self.ut = (wb * bw + rw) * bw + cw, (wb * bw + cw) * bw + rw
            # the identity on the padding of that stack, added only to factor it
            self.pads.append(np.eye(bw) * ~(np.arange(bw) < wide[:, None, None]))
            # each pair (i, k) inside one wider block: its flat index in the
            # n x n system, and those of X1_j[c_i, r_k] and A^-1_j[c_k, r_i]
            i, k = np.nonzero(wb[:, None] == wb)
            base = wb[i] * bw * bw
            self.local = np.stack(((i + nv) * n + k + nv, base + cw[i] * bw + rw[k], base + cw[k] * bw + rw[i]))
        # columns r_i and c_i of the unpadded W = [W_1 ... W_N], M = sum_j m_j
        wu = w[order].transpose(1, 0, 2)[:, real]
        rows, cols = start[blk] + row, start[blk] + col
        wr, wc = wu[:, rows], wu[:, cols]
        lone = clusters.sum(axis=1) == 1
        self.p = clusters[lone].argmax(axis=1)
        p = wc[self.p].conj() * wr[self.p]
        self.P = p.real if self.real else p
        self.Pt = self.P.T.copy()
        grouped = clusters[~lone]
        self.q = np.flatnonzero(grouped.any(axis=0))
        self.orthant = self.real and not self.q.size  # every cone an orthant: an LP
        if self.q.size:
            g = grouped[:, self.q]
            self.mask = g.T @ g
            self.wrq, self.wcq = wr[self.q], wc[self.q].conj()
            self.wcqt = self.wcq.T.copy()
            # Y_c = W^dagger P_c Z P_c W per wider cluster, and the flat
            # indices of Y_c[c_i, r_k] and K_c[c_k, r_i] in (C, M, M) stacks
            self.wg = g[:, :, None] * wu[self.q]
            self.wgh = self.wg.conj().swapaxes(1, 2)
            m = wu.shape[1]
            take = np.arange(len(g))[:, None, None] * m * m + cols[:, None] * m + rows
            self.take = np.stack((take, take.swapaxes(1, 2)))

    def cones(self, e: np.ndarray, transposed: bool = False) -> list:
        """The parts of the entry vector e: the width-1 blocks' real vector
        and the wider blocks' stack, with e's entries as A's, or, transposed,
        as X1's."""
        if self.real:
            return [e]
        stack = np.zeros(self.wide_shape, dtype=complex)
        stack.ravel()[self.ut if transposed else self.at] = e[self.nv:]
        return [e[:self.nv].real, stack] if self.nv else [stack]

    def entries(self, parts: list) -> np.ndarray:
        """The entry vector of X1-like parts, the inverse of cones(., True)."""
        if self.real:
            return parts[0]
        wide = parts[-1].ravel()[self.ut]
        return np.concatenate((parts[0], wide)) if self.nv else wide

    def total(self, a: np.ndarray) -> list:
        """The (S, Z) parts of pinch(sum_j W_j a_j W_j^dagger), the dense
        one before its Hermitian part."""
        parts = [(self.P @ a).real] if self.p.size else []
        if self.q.size:
            parts.append((self.wrq * a) @ self.wcqt * self.mask)
        return parts

    def blocks(self, z: list) -> np.ndarray:
        """The entry vector of the W_j^dagger Z W_j, Z given by its parts."""
        u = (self.wcq * (z[-1] @ self.wrq)).sum(axis=0) if self.q.size else self.Pt @ z[0]
        if self.p.size and self.q.size:
            u = u + self.Pt @ z[0]
        return u.real if self.real else u

    def pinched(self, x: np.ndarray) -> list:
        """The (S, Z) parts of pinch(x) for a d x d matrix x."""
        parts = [x[self.p, self.p].real] if self.p.size else []
        if self.q.size:
            parts.append(x[self.q[:, None], self.q] * self.mask)
        return parts

    def stacked(self, a: np.ndarray) -> np.ndarray:
        """The (N, b, b) stack of the blocks of A's entry vector a."""
        out = np.zeros(self.full_shape, dtype=complex)
        out[self.place] = a
        return out

    def dense(self, z: list) -> np.ndarray:
        """The d x d matrix of the (S, Z) parts z."""
        out = np.zeros((len(self.p) + len(self.q),) * 2, dtype=complex)
        if self.p.size:
            out[self.p, self.p] = z[0]
        if self.q.size:
            out[self.q[:, None], self.q] = z[-1]
        return out


def _mul(x, y):
    """The product of two parts of a cone member: elementwise on an orthant."""
    return x * y if x.ndim == 1 else x @ y


def _herm(x):
    """The Hermitian part of a cone part; an orthant's vector is real."""
    return x if x.ndim == 1 else hermitian_part(x)


def _dot(xs: list, ys: list) -> float:
    """sum_k Tr(x_k^dagger y_k) over the parts of two cone members."""
    return float(sum(map(np.vdot, xs, ys)).real)


def _spectrum(parts: list) -> np.ndarray:
    """The eigenvalues of a cone member over its parts, in no order."""
    return np.concatenate([x if x.ndim == 1 else np.linalg.eigvalsh(x).ravel() for x in parts])


def _newton_system(lay: _Layout, x1: list, a_inv: list, z: list, s_inv: list) -> np.ndarray:
    """Schur complement of the HKM Newton system over the entries of the
    blocks (_Layout): with E_i the unit matrix of entry i,
    T[i, k] = Tr(E_i X1 E_k A^-1) + sum_c Tr(E_i Y_c E_k K_c) and
    S = T + T^T, for Y_c = W^dagger P_c Z P_c W and K_c = W^dagger P_c S^-1 P_c W
    over the clusters P_c of the constraint, W unpadded. x1 and a_inv are
    parts of (A, X1) (_Layout.cones), z and s_inv parts of (S, Z).

    A width-1 block adds x1 / a to T's diagonal and the wider blocks one
    gather over the entry pairs inside a block; the one-coordinate clusters
    add P^T diag(z / s) P (_Layout), and the wider ones one gather of
    (C, M, M) stacks. Returned is the real system S.real + S[:, swap].imag,
    S itself when every cone is an orthant. It maps the real coordinates h
    of a Hermitian dA, whose entries are v = (1 + i) h + (1 - i) h[swap], to
    Re u + Im u with u_i = Tr(E_i H) for H the Hermitian part of
    X1 dA A^-1 + sum_c Y_c dA K_c, and costs (sum_j m_j^2)^2 per cluster
    however the widths differ. On the central path (X1 = A^-1 / t,
    Z = S^-1 / t) H is the negated Hessian of the log barrier over t,
    applied to dA."""
    terms = [(lay.Pt * (z[0] * s_inv[0])) @ lay.P] if lay.p.size else []
    if lay.q.size:
        y, k = (lay.wgh @ x @ lay.wg for x in (z[-1], s_inv[-1]))
        terms.append((y.ravel()[lay.take[0]] * k.ravel()[lay.take[1]]).sum(axis=0))
    t = sum(terms[1:], terms[0])
    if lay.nv:  # the first nv diagonal entries
        t.ravel()[:lay.nv * (lay.n + 1):lay.n + 1] += x1[0] * a_inv[0]
    if not lay.real:
        t.ravel()[lay.local[0]] += x1[-1].ravel()[lay.local[1]] * a_inv[-1].ravel()[lay.local[2]]
    t = t + t.T
    return t if lay.orthant else t.real + t[:, lay.swap].imag


def _embed(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The detection operators W_j a_j W_j^dagger of the (N, b, b) stack a,
    stacked (N, d, d); w is the (N, d, b) stack of the W_j."""
    return hermitian_part(w @ a @ w.conj().swapaxes(1, 2))


def _cone_factors(x: np.ndarray, y: np.ndarray, pad=None):
    """The inverse of x, and the factors _cone_lows bounds steps with, for
    one part of a cone pair (x, y): on an orthant (vectors) the inverses
    (1/x, 1/y), on a stack of b x b blocks the inverse Cholesky factors
    (L^-1, L^-dagger) of (x + pad, y + pad). Raises LinAlgError where a
    member is not positive definite, as cholesky does, and on an orthant
    also where an entry is NaN."""
    pair = np.array((x, y))
    if x.ndim == 1:
        if not pair.min() > 0.0:
            raise np.linalg.LinAlgError("orthant entry is not positive")
        inverses = 1.0 / pair
        return inverses[0], inverses
    f = np.linalg.inv(np.linalg.cholesky(pair if pad is None else pair + pad))
    fh = f.conj().swapaxes(-1, -2)
    return fh[0] @ f[0], (f, fh)


def _cone_lows(factors, dx: np.ndarray, dy: np.ndarray):
    """Smallest eigenvalue of L^-1 dx L^-dagger, and of L^-1 dy L^-dagger,
    over all blocks of one part of a cone pair: x + alpha dx stays >= 0
    while alpha times it is >= -1. Elementwise on an orthant (dx / x)."""
    if dx.ndim == 1:
        return (factors * (dx, dy)).min(axis=1)
    f, fh = factors
    return np.linalg.eigvalsh(f @ np.array((dx, dy)) @ fh)[..., 0].reshape(2, -1).min(axis=1)


def _step_lengths(factors, primal, dual, to_boundary):
    """Primal and dual step lengths, each at most 1 and at most
    to_boundary of the way to the boundary of its cones. factors holds the
    _cone_factors of the parts of (A, X1) and of (S, Z); primal and dual
    hold the directions (dA, dS) and (dX1, dZ), each as its parts."""
    (fa, fs), (_, da, ds), (_, dx1, dz) = factors, primal, dual
    lows = [_cone_lows(f[1], x, y) for f, x, y in zip(fa + fs, da + ds, dx1 + dz)]
    return [to_boundary / max(to_boundary, -min(low[k] for low in lows)) for k in (0, 1)]


def _interior_point(rho: np.ndarray, w: np.ndarray, widths: np.ndarray, clusters: np.ndarray):
    """Maximize sum_j Tr(rho W_j a_j W_j^dagger) over a_j >= 0 with
    pinch(sum_j W_j a_j W_j^dagger) <= 1, pinch(X) = sum_c P_c X P_c, and
    minimize Tr Z over its dual Z = pinch(Z) >= 0,
    W_j^dagger (Z - rho) W_j >= 0, by a feasible-start Mehrotra
    predictor-corrector with the HKM direction.

    w is (N, d, b) with b = max_j m_j and W_j in the first widths[j]
    columns of w[j], zero after them (as geometry.detection_blocks); the
    (C, d) 0/1 indicator clusters gives the diagonal projectors P_c: a
    generic ensemble has the one cluster P = 1, a covariant one the
    eigenspaces of its generator. The cone pairs are (A, X1) with
    X1_j = W_j^dagger (Z - rho) W_j, and (S, Z) with
    S = 1 - pinch(sum_j W_j a_j W_j^dagger); both are functions of A and Z,
    so every iterate is primal and dual feasible and the duality gap is
    Tr(X1 A) + Tr(Z S) = Tr Z - R. Each pair is held in two parts
    (_Layout): the width-1 blocks and the one-coordinate clusters as real
    vectors, factored, inverted and step-bounded elementwise, and the wider
    blocks and clusters as semidefinite blocks, by stacked cholesky / inv /
    eigvalsh, the blocks padded to the widest of them only to factor them.
    A generic ensemble of width-1 blocks thus has vector A with dense S and
    Z, and a cyclic one with distinct phases and a simple top eigenvalue
    only vectors: a linear program. Each iteration builds the Schur
    complement (_newton_system) over the sum_j m_j^2 entries of the blocks
    once and solves it, in real arithmetic, for the predictor and the
    corrector; a 1 x 1 system is a division by its pivot, refused unless
    it is > 0.

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
    neither pair has a wider part the iterates always commute, and the step
    goes _TO_BOUNDARY_ORTHANT = 0.999 of the way, as LP interior-point codes
    do.

    Returns (A, iterations, gap, Z), A as the (N, b, b) stack, exactly zero
    off the real m_j x m_j corners, and Z as the d x d matrix, at the first
    commuting iterate with gap <= CERT_TOL whose ranks fit,
    rank Z + rank S <= d counted as the certificate counts
    rank Z + rank Pi_0 (S is the Pi_0 of the measurement). A gap alone is
    no stop: a small detection rate R leaves S's kernel eigenvalue (about
    gap / R) above the rank cutoff, or Z (of norm R) without a rank, until
    the path goes deeper. Raises NotConvergedError if MAX_ITERATIONS runs
    out first, if rounding puts an iterate outside the cones or makes it
    NaN, or if the Schur complement is singular.
    """
    lay = _Layout(w, widths, clusters)
    d, nu = len(rho), len(rho) + int(widths.sum())
    # rho enters as pinch(rho): the rate of a pinched total is
    # Tr(rho pinch(X)) = Tr(pinch(rho) X), and X1 = W_j^dagger (Z - rho) W_j
    # is formed from the difference, so no two products of norm ||W||^2 ||Z||
    # cancel
    rho, ones = lay.pinched(rho), lay.pinched(np.eye(d, dtype=complex))
    gains = lay.blocks(rho)  # the entries of W_j^dagger rho W_j

    def slack(z):
        """The entries of X1, W_j^dagger (Z - rho) W_j."""
        return lay.blocks([x - r for x, r in zip(z, rho)])

    to_boundary = _TO_BOUNDARY_ORTHANT if lay.orthant else _TO_BOUNDARY

    # strictly feasible start: scaled identities keeping the total below
    # 1/2, with ||W_j W_j^dagger|| = ||W_j^dagger W_j|| (their sum is >= 1:
    # the columns of W are rho^-1/2 of unit vectors in rho's support), and
    # Z = kappa 1 with kappa doubled until every X1_j > 0
    thin = widths == 1
    grams = w[~thin].conj().swapaxes(1, 2) @ w[~thin]
    norm_sum = float((np.abs(w[thin, :, 0]) ** 2).sum() + spectra(grams)[:, -1].sum())
    a = np.where(lay.place[1] == lay.place[2], 0.5 / norm_sum, 0.0)
    a = a if lay.real else a.astype(complex)
    z = ones
    while _spectrum([x + e for x, e in zip(lay.cones(slack(z), True), lay.pads)]).min() <= 0.0:
        z = [2.0 * x for x in z]

    iterations = 0
    while True:
        s, x1 = [o - _herm(t) for o, t in zip(ones, lay.total(a))], slack(z)
        ap, xp = lay.cones(a), lay.cones(x1, True)
        xa, zs = [_mul(x, y) for x, y in zip(xp, ap)], [_mul(x, y) for x, y in zip(z, s)]
        gap = float((x1 @ a).real) + _dot(z, s)
        mu = gap / nu
        commuting = math.sqrt(_dot(xa, xa)) + math.sqrt(_dot(zs, zs)) <= gap
        if commuting and gap <= CERT_TOL and sum(_certificate_ranks(_spectrum(z), _spectrum(s))) <= d:
            return lay.stacked(a), iterations, gap, lay.dense(z)
        if iterations >= MAX_ITERATIONS:
            raise NotConvergedError(
                f"iteration budget {MAX_ITERATIONS} exhausted at duality gap {gap:.3e}"
            )
        if math.isnan(gap):  # numpy's cholesky lets a NaN iterate through
            raise NotConvergedError(f"iterate left the cone at duality gap {gap:.3e}")
        try:
            factors = ([_cone_factors(x, y, e) for x, y, e in zip(ap, xp, lay.pads)],
                       [_cone_factors(x, y) for x, y in zip(s, z)])
        except np.linalg.LinAlgError:
            raise NotConvergedError(f"iterate left the cone at duality gap {gap:.3e}") from None
        a_inv, s_inv = ([f[0] for f in fs] for fs in factors)
        schur = _newton_system(lay, xp, a_inv, z, s_inv)
        # S^-1 is pinched like S, so the diagonal blocks of sum_c K_c are W_j^dagger S^-1 W_j
        centering = lay.entries(a_inv) - lay.blocks(s_inv)

        def solve(rhs):
            if schur.shape == (1, 1):
                pivot = schur[0, 0]
                if pivot > 0.0:  # a NaN pivot fails it too
                    return rhs / pivot
            else:
                try:
                    return np.linalg.solve(schur, rhs)
                except np.linalg.LinAlgError:
                    pass
            raise NotConvergedError(f"singular Newton system at duality gap {gap:.3e}")

        def direction(target, affine=None):
            """HKM direction to the central point of parameter target,
            with the Mehrotra corrections of an affine direction: the steps
            (dA, dS) and (dX1, dZ), dA and dX1 as entries and parts."""
            rhs, corr_s = target * centering + gains, [0.0] * len(z)
            if affine is not None:
                (_, da0, ds0), (_, dx0, dz0) = affine
                corr_s = [_herm(_mul(_mul(x, y), i)) for x, y, i in zip(dz0, ds0, s_inv)]
                corr_a = [_herm(_mul(_mul(x, y), i)) for x, y, i in zip(dx0, da0, a_inv)]
                rhs = rhs - lay.entries(corr_a) + lay.blocks(corr_s)
            # in the real coordinates of _newton_system: Re u + Im u of the
            # entries u, and back, dA of entries (1 + i) h + (1 - i) h[swap]
            h = solve(rhs if lay.real else rhs.real + rhs.imag)
            da = 2.0 * h if lay.real else (1 + 1j) * h + (1 - 1j) * h[lay.swap]
            ds = lay.total(-da)
            dz = [_herm(target * i - x - _mul(_mul(x, y), i) - c) for x, y, i, c in zip(z, ds, s_inv, corr_s)]
            dx1 = lay.blocks(dz)
            return (da, lay.cones(da), ds), (dx1, lay.cones(dx1, True), dz)

        if not commuting:
            primal, dual = direction(mu)
        else:
            primal, dual = direction(0.0)
            step_p, step_d = _step_lengths(factors, primal, dual, to_boundary)
            mu_aff = (float(((x1 + step_d * dual[0]) @ (a + step_p * primal[0])).real)
                      + _dot([x + step_d * dx for x, dx in zip(z, dual[2])],
                             [y + step_p * dy for y, dy in zip(s, primal[2])])) / nu
            primal, dual = direction(min(mu_aff / mu, 1.0) ** 3 * mu, (primal, dual))
        step_p, step_d = _step_lengths(factors, primal, dual, to_boundary)
        if not commuting:
            step_p = step_d = min(step_p, step_d)
        a = a + step_p * primal[0]
        z = [x + step_d * dx for x, dx in zip(z, dual[2])]
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
        w, widths, clusters = np.sqrt(n) * w[:1, :, :widths[0]], widths[:1], sym.clusters

    a, iterations, gap, z = _interior_point(geo.rho, w, widths, clusters)
    conclusive = _embed(w, a)
    if sym is not None:
        conclusive = orbit(conclusive[0] / n, sym.powers)
    detection = DetectionSet.from_conclusive(conclusive)
    return _report(ensemble, geo, "numeric", detection, z, iterations, gap)


@dataclass(frozen=True)
class PerturbationWitness:
    """A measurement deformation exhibiting a certificate failure.

    kind is "support-slack" when the negative eigenvalue sits in some
    compression Q_j^dagger (Z - rho) Q_j (outcome records which j, 1-based)
    and "dual-negativity" when Z itself has one (outcome 0). gap is the dual
    functional

        Tr(Z Pi'_0) + sum_j Tr[Q_j^dagger (Z - rho) Q_j Q_j^dagger Pi'_j Q_j]

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

    Finds the most negative eigenvalue mu among Z and the support slacks, the
    b x b compressions Q_j^dagger (Z - rho) Q_j that verify_certificate
    checks, with eigenvector |u> (Z's own, or Q_j y for a slack's y; on a tie
    Z wins, then the slack of lowest j), contracts every conclusive
    operator by (1 - epsilon |u><u|), and hands the released
    weight epsilon(2 - epsilon)|u><u| to the outcome that realizes the
    negativity (the inconclusive one for a negative eigenvalue of Z). The
    resulting set is a valid measurement by construction, and its dual
    functional drops below the baseline by 2 epsilon mu to first order.

    Raises NoNegativeEigenvalueError when neither Z nor any slack has an
    eigenvalue below -tol, InfeasibleInputError unless 0 < epsilon < 2 (where
    the released weight is positive) and otherwise as verify_certificate.
    """
    z = _require_matching(ensemble, detection, z, tol)
    if not 0.0 < epsilon < 2.0:  # a NaN epsilon fails it too
        raise InfeasibleInputError(f"epsilon must lie strictly between 0 and 2, got {epsilon}")
    if geo is None:
        geo = geometry(ensemble)
    rho, q, qh = geo.rho, geo.support_bases, geo.support_bases.conj().swapaxes(1, 2)
    slacks = hermitian_part(qh @ (z - rho) @ q)
    (wz, vz), (ws, vs) = np.linalg.eigh(z), np.linalg.eigh(slacks)
    # entry 0 is Z and argmin takes the first minimum: the tie rule above
    lows = np.concatenate((wz[:1], ws[:, 0]))
    k = int(np.argmin(lows))
    if lows[k] >= -tol:
        raise NoNegativeEigenvalueError(
            f"no certificate eigenvalue below -{tol:.1e} (smallest is {lows[k]:.3e})"
        )
    kind = "support-slack" if k else "dual-negativity"
    mu = -float(lows[k])
    u = q[k - 1] @ vs[k - 1, :, 0] if k else vz[:, 0]
    proj = np.outer(u, u.conj())
    contract = np.eye(ensemble.dim, dtype=complex) - epsilon * proj
    released = epsilon * (2.0 - epsilon) * proj

    primed = contract @ detection.conclusive @ contract
    if k:
        primed[k - 1] += released
    deformed = DetectionSet.from_conclusive(primed)

    def dual_functional(det: DetectionSet) -> float:
        return float(np.vdot(det.inconclusive, z).real + np.vdot(qh @ det.conclusive @ q, slacks).real)

    gap = dual_functional(deformed)
    baseline = dual_functional(detection)
    rate_primed = float(np.vdot(deformed.conclusive.sum(axis=0), rho).real)
    return PerturbationWitness(
        kind=kind,
        outcome=k,
        mu=mu,
        epsilon=epsilon,
        gap=gap,
        baseline_gap=baseline,
        predicted_first_order=-2.0 * epsilon * mu,
        trace_minus_rate=float(z.trace().real) - rate_primed,
        detection=deformed,
        completeness_residual=deformed.completeness_residual(),
        min_eigenvalue=deformed.min_eigenvalue(),
    )
