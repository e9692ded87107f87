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
  included, is solved as one covariant block. Each cone pair is a direct
  sum of parts: a real vector for the width-1 blocks or the one-coordinate
  clusters, an unpadded stack per wider width or larger cluster size,
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

plus the rank complementarity rank Z + rank Pi_0 <= d and rank Z >= max_j m_j,
the top multiplicities of geometry: eta_j rho_j W_j = C_j rho W_j, so for the QR
W_j = Q_j R_j, Q_j^dagger rho_j Q_j = (C_j / eta_j) (R_j R_j^dagger)^-1 has rank
exactly m_j. Any Z passing all conditions proves the measurement optimal; the
verifier does not care where Z came from. The interior point stops on the same
rank count (_certificate_ranks) once the duality gap is at most CERT_TOL.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
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
    all_finite,
    eigh,
    gram,
    gram_norms,
    hermitian_part,
    numerical_rank,
    require_hermitian,
    spectra,
)
from .operators import _cholesky, _eigvalsh, _inv, _solve  # the interior point's LAPACK gufuncs

_TO_BOUNDARY = 0.98  # largest fraction of the way to a cone boundary per step
_TO_BOUNDARY_ORTHANT = 0.999  # the same when every cone is an orthant (an LP)


@dataclass(frozen=True, eq=False)
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
        if not all_finite(ops):
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


@dataclass(frozen=True, eq=False)
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
    if z is not None and not all_finite(z):
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
    confidences = np.divide(joint, probs[1:], out=np.full(n, np.nan), where=fired)
    return MeasurementStats(
        outcome_probabilities=probs,
        confidences=confidences,
        failure_probability=float(probs[0]),
        detection_rate=float(probs[1:].sum()),
        correct_probability=float(joint.sum()),
        zero_probability_outcomes=(np.flatnonzero(~fired) + 1).tolist(),
    )


@dataclass(frozen=True, eq=False)
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
    its rank; Pi_0's relative to ||Pi_0|| floored at 1, as ||Pi_0|| <= 1."""
    z_abs, pi0_abs = np.abs(z_w), np.abs(pi0_w)
    return (numerical_rank(z_abs, RANK_CUTOFF * z_abs.max()),
            numerical_rank(pi0_abs, RANK_CUTOFF * max(pi0_abs.max(), 1.0)))


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
    # two stacked spectra serve every condition and counted rank, each norm the
    # root of a Gram matrix's top eigenvalue as in opnorm. d x d: Z, Pi_0..Pi_N,
    # C C^dagger for C = sum_j Pi_j - 1 and (Z Pi_0)(Z Pi_0)^dagger
    c = detection.operators.sum(axis=0) - np.eye(d, dtype=complex)
    zp = z @ detection.inconclusive
    big = spectra(np.concatenate((
        z[None], detection.operators, gram(c)[None], gram(zp)[None])))
    z_w, pi_w = big[0], big[1:n + 2]
    # b x b: the slacks Q_j^dagger (Z - rho) Q_j and the Grams of the stationarity
    # products Q_j^dagger (Z - rho) Pi_j; rank Z >= max_j m_j needs no spectrum
    small = spectra(np.concatenate((hermitian_part(dual @ q), gram(dual @ detection.conclusive))))

    conditions: dict[str, float] = {}
    conditions["povm_min_eigenvalue"] = float(pi_w[:, 0].min())
    conditions["completeness_residual"] = float(gram_norms(big[n + 2]))
    conditions["z_min_eigenvalue"] = float(z_w[0])
    conditions["support_slack_min_eigenvalue"] = float(small[:n, 0].min())
    conditions["inconclusive_orthogonality"] = float(gram_norms(big[n + 3]))
    conditions["stationarity_residual"] = float(gram_norms(small[n:]).max())
    conditions["trace_gap"] = abs(float(z.trace().real) - rate)

    rank_z, rank_pi0 = _certificate_ranks(z_w, pi_w[0])
    lower = int(geo.degeneracies.max())
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


@dataclass(frozen=True, eq=False)
class SolveReport(MeasurementStats):
    """Outcome of a solve: its measurement's statistics, the measurement and its certificate."""

    mode: str
    detection: DetectionSet
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
    return SolveReport(**vars(stats), mode=mode, detection=detection, certificate=certificate,
                       certified=certificate.accepted, iterations=iterations, duality_gap=duality_gap)


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
    top = mods.max()
    alpha = 1.0 / (n * float(top))
    detection = DetectionSet.from_conclusive(orbit(alpha * (w[:, None] * w.conj()), sym.powers))
    # the dual spreads N alpha over the coordinates of the largest |w_l|^2 (ties within TIE_RTOL)
    tied = mods * (1.0 + TIE_RTOL) >= top
    z = np.diag(np.where(tied, complex(n * alpha / np.count_nonzero(tied)), 0j))
    return _report(ensemble, geo, "analytic", detection, z)


class _Orthant:
    """Cone operations on a nonnegative orthant held as a real vector:
    products, inverses and step bounds are elementwise, with no LAPACK
    call."""

    mul, inner = np.multiply, np.matmul
    herm = spectrum = staticmethod(lambda x: x)

    @staticmethod
    def factors(x, y):
        """1/x, and the inverses (1/x, 1/y) that lows bounds steps with;
        None, for a point outside the cone, where an entry is not positive,
        NaN included."""
        pair = np.array((x, y))
        if pair.min() > 0.0:  # a NaN entry fails it too
            inverses = 1.0 / pair
            return inverses[0], inverses
        return None

    @staticmethod
    def lows(inverses, dx, dy):
        """dx / x and dy / y, each entry's own lower bound: x + alpha dx
        stays >= 0 while alpha times it is >= -1."""
        return inverses * (dx, dy)


class _Semidefinite:
    """Cone operations on a (k, b, b) stack of semidefinite blocks, by
    LAPACK's stacked cholesky / inv / eigvalsh gufuncs called directly
    (_cholesky, _inv, _eigvalsh), inside _interior_point's one
    errstate(invalid="ignore")."""

    mul, herm = np.matmul, staticmethod(hermitian_part)

    @staticmethod
    def inner(x, y):
        return np.vdot(x, y).real

    @staticmethod
    def spectrum(x):
        return _eigvalsh(x).ravel()

    @staticmethod
    def factors(x, y):
        """The inverse of x, and the inverse Cholesky factors
        (L^-1, L^-dagger) of (x, y) that lows bounds steps with; None, for
        a point outside the cone, where a block is not positive definite:
        its factor, and so its inverse, is NaN."""
        f = _inv(_cholesky(np.array((x, y))))
        if math.isfinite(np.vdot(f, f).real):  # a NaN or inf anywhere fails it
            fh = f.conj().swapaxes(-1, -2)
            return fh[0] @ f[0], (f, fh)
        return None

    @staticmethod
    def lows(factors, dx, dy):
        """The smallest eigenvalue of each block of L^-1 dx L^-dagger and
        of L^-1 dy L^-dagger (NaN where eigvalsh did not converge)."""
        f, fh = factors
        return _eigvalsh(f @ np.array((dx, dy)) @ fh)[..., 0]


class _Entries(_Orthant):
    """The width-1 blocks of (A, X1), the entries span of n: a real vector
    of the a_j, whose Schur complement term is X1 / A on the diagonal."""

    entries = staticmethod(lambda x: x)

    def __init__(self, n, span):
        self.span, self.diagonal = span, slice(span.start * (n + 1), span.stop * (n + 1), n + 1)

    def cones(self, e, transposed=False):
        return e[self.span].real

    def add_schur(self, t, x1, a_inv):
        t.ravel()[self.diagonal] += x1 * a_inv


class _Blocks(_Semidefinite):
    """The k blocks of one width b > 1 of (A, X1), the entries span of n:
    an unpadded (k, b, b) stack, A's entries in row, column order and
    X1's transposed."""

    def __init__(self, n, span, k, b):
        self.span, self.shape = span, (k, b, b)
        # each pair (u, v) of entries of one block j: its flat index in the
        # n x n system, and those of X1_j[c_u, r_v] and A^-1_j[c_v, r_u]
        j, u, v = np.arange(k)[:, None, None] * b * b, np.arange(b * b)[:, None], np.arange(b * b)
        (ru, cu), (rv, cv), lo = divmod(u, b), divmod(v, b), span.start
        pairs = (lo + j + u) * n + lo + j + v, j + cu * b + rv, j + cv * b + ru
        self.local = np.stack(np.broadcast_arrays(*pairs)).reshape(3, -1)

    def cones(self, e, transposed=False):
        x = e[self.span].reshape(self.shape)
        return x.swapaxes(1, 2) if transposed else x

    def entries(self, x):
        return x.swapaxes(1, 2).ravel()

    def add_schur(self, t, x1, a_inv):
        t.ravel()[self.local[0]] += x1.ravel()[self.local[1]] * a_inv.ravel()[self.local[2]]


def _dense(part, z):
    """The d x d matrix of the form z of an (S, Z) part, zero off its
    clusters."""
    out = np.zeros((part.d,) * 2, dtype=complex)
    out[part.at] = z
    return out


class _Diagonal(_Orthant):
    """The one-coordinate clusters p_l of (S, Z): the real vector of their
    diagonal entries. pinch(sum_j W_j a_j W_j^dagger) there is P a, with
    P[l, i] = conj(W[p_l, c_i]) W[p_l, r_i], its adjoint P^T z, the Schur
    complement term P^T diag(z / s) P and K's block entries P^T s^-1."""

    dense = _dense

    def __init__(self, p, wr, wc, real):
        P = wc[p].conj() * wr[p]
        self.d, self.at, self.P = len(wr), (p, p), P.real if real else P
        self.Pt = self.P.T.copy()

    def total(self, a):
        return (self.P @ a).real

    def blocks(self, z):
        return self.Pt @ z

    def pinched(self, x):
        return x[self.at].real

    def schur(self, z, s_inv):
        return (self.Pt * (z * s_inv)) @ self.P, self.Pt @ s_inv


class _Clusters(_Semidefinite):
    """The k clusters of one size c > 1 of (S, Z), their coordinates the
    rows of idx (k, c): the (k, c, c) stack of their blocks P_c X P_c,
    each reading only W_c, the rows of the unpadded W = [W_1 ... W_N] it
    owns. Its total is one product of W_c's columns r_i and c_i (wr, wc);
    its Schur complement term sums Y_c o K_c^T for the matrices of the
    (W_c^dagger Z_c W_c)[c_i, r_k] and (W_c^dagger S_c^-1 W_c)[c_i, r_k]:
    the products themselves when every block has width 1 (take is None),
    and otherwise gathered (take) from them; K's block entries sum the
    diagonals of the K_c (S^-1 is pinched like S)."""

    dense = _dense

    def __init__(self, idx, w, wr, wc, wide):
        self.d, self.at, m = len(w), (idx[:, :, None], idx[:, None, :]), w.shape[1]
        self.wr, self.wc = wr[idx], wc[idx].conj()
        self.wct = self.wc.swapaxes(1, 2).copy()
        self.g = w[idx]
        self.gh = self.g.conj().swapaxes(1, 2).copy()
        # take holds the flat places of the (W_c^dagger X W_c)[c_i, r_k] in the
        # (k, M, M) products, from W's columns r_i and c_i (wide); with width-1
        # blocks W's columns are the r_i, and the products need no gather
        self.take = None if wide is None else (
            (np.arange(len(idx))[:, None, None] * m + wide[1][:, None]) * m + wide[0])

    def total(self, a):
        return (self.wr * a) @ self.wct

    def blocks(self, z):
        u = (self.wc * (z @ self.wr)).reshape(-1, self.wr.shape[-1]).sum(axis=0)
        return u.real if self.take is None else u

    def pinched(self, x):
        return x[self.at]

    def schur(self, z, s_inv):
        y, k = self.gh @ z @ self.g, self.gh @ (s_inv @ self.g)
        if self.take is not None:
            y, k = y.ravel()[self.take], k.ravel()[self.take]
        t, u = y[0] * k[0].T, k[0].diagonal()
        for c in range(1, len(y)):
            t, u = t + y[c] * k[c].T, u + k[c].diagonal()
        return t, u.real if self.take is None else u


class _Parts(tuple):
    """A form of a _Sum, one array per part, which +, - and scalar * act
    on part by part."""

    __array_ufunc__ = None  # a numpy scalar defers to the operators below

    def _map(self, op, other):
        return _Parts(map(op, self, other if isinstance(other, _Parts) else (other,) * len(self)))

    __add__, __sub__ = functools.partialmethod(_map, operator.add), functools.partialmethod(_map, operator.sub)
    __mul__ = __rmul__ = functools.partialmethod(_map, operator.mul)


def _each(name, combine=_Parts, whole=False):
    """The _Sum operation name: every part's own, on its piece of each
    argument (on every argument whole if whole), the results combined."""
    if whole:
        return lambda self, *args: combine([getattr(part, name)(*args) for part in self.parts])
    return lambda self, *forms: combine([getattr(part, name)(*args) for part, args in zip(self.parts, zip(*forms))])


class _Sum:
    """A cone pair of more than one part (see _Layout), held as their
    direct sum: each operation runs part by part (_each), and its results
    are kept as _Parts, summed or concatenated."""

    def __init__(self, parts):
        self.parts = parts

    mul, herm = _each("mul"), _each("herm")
    cones, total, pinched = (_each(name, whole=True) for name in ("cones", "total", "pinched"))
    inner, blocks, dense = (_each(name, sum) for name in ("inner", "blocks", "dense"))
    spectrum, entries = (_each(name, np.concatenate) for name in ("spectrum", "entries"))
    lows = _each("lows", lambda lows: np.concatenate(lows, axis=1))
    factors = _each("factors", lambda pairs: None if None in pairs else tuple(map(_Parts, zip(*pairs))))
    schur = _each("schur", lambda pairs: tuple(map(sum, zip(*pairs))))

    def add_schur(self, t, x1, a_inv):
        for part, x, y in zip(self.parts, x1, a_inv):
            part.add_schur(t, x, y)


class _Layout:
    """How one solve holds its cone pairs, chosen from the block widths and
    the cluster sizes alone and built once.

    (A, X1) lives on the n = sum_j m_j^2 entries (r_i, c_i) of the blocks'
    real m_j x m_j corners, the blocks in (stable) order of width and each
    in row, column order: A and its steps as the entry vector of the
    A_j[r_i, c_i], X1, A^-1 and the right-hand sides as that of the
    transposed X1_j[c_i, r_i], so that Tr(X1 A) is their plain dot product;
    both are real when every block has width 1. Each pair is the direct
    sum (_Sum) of its parts, or its one part: ax, for (A, X1), has the
    width-1 blocks' vector (_Entries) and a stack per wider width
    (_Blocks); sz, for (S, Z), the one-coordinate clusters' vector of
    diagonal entries (_Diagonal) and a stack of the blocks P_c X P_c per
    larger cluster size (_Clusters). ax.cones turns an entry vector into
    ax's form and ax.entries turns it back; sz.total maps an entry vector
    to pinch(sum_j W_j a_j W_j^dagger), before its Hermitian part,
    sz.blocks, its adjoint, maps Z to the entries of the W_j^dagger Z W_j,
    and sz.pinched and sz.dense map d x d matrices in and out. The layout
    keeps the two and the entry tables (place, swap, eye).
    """

    def __init__(self, w: np.ndarray, widths: np.ndarray, clusters: np.ndarray):
        self.full_shape = w.shape[:1] + w.shape[2:] * 2
        self.real, wide = bool((widths == 1).all()), None
        if self.real:  # entry i is block i's one entry, and W has no padding
            self.place, self.swap, self.eye = (np.arange(widths.size), 0, 0), slice(None), np.ones(widths.size)
            w = wr = wc = w[:, :, 0].T
        else:
            order = np.argsort(widths, kind="stable")
            widths = widths[order]
            real = np.arange(w.shape[2]) < widths[:, None]
            blk, row, col = np.nonzero(real[:, :, None] & real[:, None, :])
            first, start = np.cumsum(widths ** 2) - widths ** 2, np.cumsum(widths) - widths
            self.swap = first[blk] + col * widths[blk] + row  # the entry of the transpose
            self.place = order[blk], row, col  # each entry in an (N, b, b) stack
            self.eye = (row == col).astype(complex)  # the entries of identity blocks
            # the unpadded W = [W_1 ... W_N] and its columns r_i and c_i
            w, wide = w[order].transpose(1, 0, 2)[:, real], (start[blk] + row, start[blk] + col)
            wr, wc = w[:, wide[0]], w[:, wide[1]]
        ax, lo, n = [], 0, self.eye.size
        for b, k in collections.Counter(widths.tolist()).items():  # in order of width
            span, lo = slice(lo, lo + k * b * b), lo + k * b * b
            ax.append(_Entries(n, span) if b == 1 else _Blocks(n, span, k, b))
        sz, sizes = [], clusters.sum(axis=1)
        for c in sorted(set(sizes.tolist())):
            idx = np.nonzero(clusters[sizes == c])[1].reshape(-1, c)
            sz.append(_Diagonal(idx[:, 0], wr, wc, self.real) if c == 1 else _Clusters(idx, w, wr, wc, wide))
        self.ax, self.sz = (parts[0] if len(parts) == 1 else _Sum(parts) for parts in (ax, sz))
        self.orthant = self.real and isinstance(self.sz, _Diagonal)  # every cone an orthant: an LP

    def stacked(self, a: np.ndarray) -> np.ndarray:
        """The (N, b, b) stack of the blocks of A's entry vector a."""
        out = np.zeros(self.full_shape, dtype=complex)
        out[self.place] = a
        return out


def _newton_system(lay: _Layout, x1, a_inv, z, s_inv) -> tuple[np.ndarray, np.ndarray]:
    """Schur complement of the HKM Newton system over the entries of the
    blocks (_Layout): with E_i the unit matrix of entry i,
    T[i, k] = Tr(E_i X1 E_k A^-1) + sum_c Tr(E_i Y_c E_k K_c) and
    S = T + T^T, for Y_c = W_c^dagger Z W_c and K_c = W_c^dagger S^-1 W_c
    over the clusters P_c of the constraint, W_c = P_c W the rows of the
    unpadded W that cluster c owns. x1 and a_inv are in the form of lay.ax
    (ax.cones), z and s_inv in that of lay.sz.

    The (S, Z) form's schur gives the cluster term, summed over its parts
    (_Diagonal, _Clusters), and K's block entries, those of the
    W_j^dagger S^-1 W_j, which the centering term reads; the (A, X1) form
    adds its own term part by part: x1 / a on the diagonal for width-1
    blocks, one gather over the entry pairs inside a block for the wider
    ones. Returned are the real system
    S.real + S[:, swap].imag (S itself when every cone is an orthant) and
    K's block entries. The system maps the real coordinates h of a
    Hermitian dA, whose entries are v = (1 + i) h + (1 - i) h[swap], to
    Re u + Im u with u_i = Tr(E_i H) for H the Hermitian part of
    X1 dA A^-1 + sum_c Y_c dA K_c, and costs (sum_j m_j^2)^2 per cluster
    however the widths differ. On the central path (X1 = A^-1 / t,
    Z = S^-1 / t) H is the negated Hessian of the log barrier over t,
    applied to dA."""
    t, k = lay.sz.schur(z, s_inv)
    lay.ax.add_schur(t, x1, a_inv)
    t = t + t.T
    return (t if lay.orthant else t.real + t.imag[:, lay.swap]), k


def _embed(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The detection operators W_j a_j W_j^dagger of the (N, b, b) stack a,
    stacked (N, d, d); w is the (N, d, b) stack of the W_j."""
    return hermitian_part(w @ a @ w.conj().swapaxes(1, 2))


def _step_lengths(lay: _Layout, factors, primal, dual, to_boundary, gap: float) -> np.ndarray:
    """Primal and dual step lengths, each at most 1 and at most
    to_boundary of the way to the boundary of its cones. factors holds the
    factors of (A, X1) and of (S, Z); primal and dual hold the directions
    (dA, dS) and (dX1, dZ), each with its cone form. A NaN bound (from an
    eigvalsh of lows that did not converge) raises NotConvergedError."""
    (fa, fs), (_, da, ds), (_, dx1, dz) = factors, primal, dual
    lows = lay.ax.lows(fa, da, dx1), lay.sz.lows(fs, ds, dz)  # per block
    low = np.minimum.reduce(np.concatenate(lows, axis=1), axis=1)  # the primal and the dual bound, NaN where a block's is
    if math.isnan(low[0] + low[1]):
        pair = "(A, X1)" if np.isnan(lows[0]).any() else "(S, Z)"
        raise NotConvergedError(f"step bound of {pair} not computed at duality gap {gap:.3e}")
    return to_boundary / np.maximum(to_boundary, -low)


@np.errstate(invalid="ignore")
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
    Tr(X1 A) + Tr(Z S) = Tr Z - R. Each pair is a direct sum of real
    vectors and unpadded stacks (_Layout): a generic ensemble of width-1
    blocks has vector A with S and Z one d x d block, and a cyclic one with
    distinct phases and a simple top eigenvalue only vectors, a linear
    program. Each iteration builds the Schur complement (_newton_system)
    over the sum_j m_j^2 entries of the blocks once and solves it, in real
    arithmetic, for the predictor and the corrector; a 1 x 1 system is a
    division by its pivot, refused unless it is > 0.

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
    neither pair has a semidefinite part the iterates always commute, and
    the step goes _TO_BOUNDARY_ORTHANT = 0.999 of the way, as LP
    interior-point codes do.

    Returns (A, iterations, gap, Z), A as the (N, b, b) stack, exactly zero
    off the real m_j x m_j corners, and Z as the d x d matrix, at the first
    commuting iterate with gap <= CERT_TOL whose ranks fit,
    rank Z + rank S <= d counted as the certificate counts
    rank Z + rank Pi_0 (S is the Pi_0 of the measurement). A gap alone is
    no stop: a small detection rate R leaves S's kernel eigenvalue (about
    gap / R) above the rank cutoff, or Z (of norm R) without a rank, until
    the path goes deeper. Raises NotConvergedError if MAX_ITERATIONS runs
    out first, if rounding puts an iterate outside the cones or makes it
    NaN (a pair's factors are then None, and the loop names the first
    such pair, (A, X1) before (S, Z)), if the Schur complement is singular
    or if a step bound is NaN (naming the pair). The whole solve runs under
    one errstate(invalid="ignore"), in which a failed LAPACK call comes out
    NaN with no RuntimeWarning; each factor, solution and step bound is
    checked, so that the iterate that made the NaN stops at its finite gap.
    """
    lay = _Layout(w, widths, clusters)
    ax, sz = lay.ax, lay.sz
    d, nu = len(rho), len(rho) + int(widths.sum())
    # rho enters as pinch(rho): the rate of a pinched total is
    # Tr(rho pinch(X)) = Tr(pinch(rho) X), and X1 = W_j^dagger (Z - rho) W_j
    # is formed from the difference, so no two products of norm ||W||^2 ||Z||
    # cancel
    rho, ones = sz.pinched(rho), sz.pinched(np.eye(d, dtype=complex))
    gains = sz.blocks(rho)  # the entries of W_j^dagger rho W_j
    to_boundary = _TO_BOUNDARY_ORTHANT if lay.orthant else _TO_BOUNDARY

    # strictly feasible start: scaled identities keeping the total below
    # 1/2, with ||W_j W_j^dagger|| = ||W_j^dagger W_j|| (their sum is >= 1:
    # the columns of W are rho^-1/2 of unit vectors in rho's support), and
    # Z = kappa 1 with kappa doubled until every X1_j > 0
    thin = widths == 1
    grams = w[~thin].conj().swapaxes(1, 2) @ w[~thin]
    norm_sum = float((np.abs(w[thin, :, 0]) ** 2).sum() + spectra(grams)[:, -1].sum())
    a = lay.eye * (0.5 / norm_sum)
    z = ones
    while ax.spectrum(ax.cones(sz.blocks(z - rho), True)).min() <= 0.0:
        z = 2.0 * z

    iterations = 0
    while True:
        s, x1 = ones - sz.herm(sz.total(a)), sz.blocks(z - rho)
        ap, xp = ax.cones(a), ax.cones(x1, True)
        xa, zs = ax.mul(xp, ap), sz.mul(z, s)
        gap = float((x1 @ a).real + sz.inner(z, s))
        mu = gap / nu
        commuting = math.sqrt(ax.inner(xa, xa)) + math.sqrt(sz.inner(zs, zs)) <= gap
        if commuting and gap <= CERT_TOL and sum(_certificate_ranks(sz.spectrum(z), sz.spectrum(s))) <= d:
            return lay.stacked(a), iterations, gap, sz.dense(z)
        if iterations >= MAX_ITERATIONS:
            raise NotConvergedError(
                f"iteration budget {MAX_ITERATIONS} exhausted at duality gap {gap:.3e}"
            )
        fa = ax.factors(ap, xp)
        fs = fa and sz.factors(s, z)  # (S, Z) only once (A, X1) factored
        if fs is None:  # a pair left its cone: the first whose factors are None
            raise NotConvergedError(f"iterate left the cone at duality gap {gap:.3e}: "
                                    f"{'(S, Z)' if fa else '(A, X1)'} not positive definite")
        (a_inv, fa), (s_inv, fs) = fa, fs
        schur, k = _newton_system(lay, xp, a_inv, z, s_inv)
        centering = ax.entries(a_inv) - k  # the entries of A^-1 - W_j^dagger S^-1 W_j

        def solve(rhs):
            if schur.shape == (1, 1):
                pivot = schur[0, 0]
                if pivot > 0.0:  # a NaN pivot fails it too
                    return rhs / pivot
            else:
                h = _solve(schur, rhs)
                if math.isfinite(h @ h):  # a NaN or inf anywhere makes it so
                    return h
            raise NotConvergedError(f"singular Newton system at duality gap {gap:.3e}")

        def direction(target, affine=None):
            """HKM direction to the central point of parameter target,
            with the Mehrotra corrections of an affine direction: the steps
            (dA, dS) and (dX1, dZ), dA and dX1 as entries and cone form."""
            rhs, corr_s = target * centering + gains, 0.0
            if affine is not None:
                (_, da0, ds0), (_, dx0, dz0) = affine
                corr_s = sz.herm(sz.mul(sz.mul(dz0, ds0), s_inv))
                rhs = rhs - ax.entries(ax.herm(ax.mul(ax.mul(dx0, da0), a_inv))) + sz.blocks(corr_s)
            # in the real coordinates of _newton_system: Re u + Im u of the
            # entries u, and back, dA of entries (1 + i) h + (1 - i) h[swap]
            h = solve(rhs if lay.real else rhs.real + rhs.imag)
            da = 2.0 * h if lay.real else (1 + 1j) * h + (1 - 1j) * h[lay.swap]
            ds = sz.total(-da)
            dz = sz.herm(target * s_inv - z - sz.mul(sz.mul(z, ds), s_inv) - corr_s)
            dx1 = sz.blocks(dz)
            return (da, ax.cones(da), ds), (dx1, ax.cones(dx1, True), dz)

        if not commuting:
            primal, dual = direction(mu)
        else:
            primal, dual = direction(0.0)
            step_p, step_d = _step_lengths(lay, (fa, fs), primal, dual, to_boundary, gap)
            mu_aff = (float(((x1 + step_d * dual[0]) @ (a + step_p * primal[0])).real)
                      + sz.inner(z + step_d * dual[2], s + step_p * primal[2])) / nu
            primal, dual = direction(min(mu_aff / mu, 1.0) ** 3 * mu, (primal, dual))
        steps = _step_lengths(lay, (fa, fs), primal, dual, to_boundary, gap)
        step_p, step_d = steps if commuting else (steps.min(),) * 2
        a = a + step_p * primal[0]
        z = z + step_d * dual[2]
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


@dataclass(frozen=True, eq=False)
class PerturbationWitness:
    """A measurement deformation exhibiting a certificate failure.

    kind is "support-slack" when the negative eigenvalue sits in some
    compression Q_j^dagger (Z - rho) Q_j (outcome records which j, 1-based)
    and "dual-negativity" when Z itself has one (outcome 0). gap is the dual
    functional

        Tr(Z Pi'_0) + sum_j Tr[Q_j^dagger (Z - rho) Q_j Q_j^dagger Pi'_j Q_j]

    of the deformed measurement, whose leading behavior is
    predicted_first_order = -2 epsilon mu; a strictly negative gap shows the
    original measurement was not optimal for the claimed Z. certificate is
    the deformed set's verify_certificate against the same Z.
    """

    kind: str
    outcome: int
    mu: float
    epsilon: float
    gap: float
    baseline_gap: float
    predicted_first_order: float
    detection: DetectionSet
    certificate: OptimalityCertificate


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
    (wz, vz), (ws, vs) = eigh(z), eigh(slacks)
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

    return PerturbationWitness(
        kind=kind,
        outcome=k,
        mu=mu,
        epsilon=epsilon,
        gap=dual_functional(deformed),
        baseline_gap=dual_functional(detection),
        predicted_first_order=-2.0 * epsilon * mu,
        detection=deformed,
        certificate=verify_certificate(ensemble, deformed, z, geo=geo, tol=tol),
    )
