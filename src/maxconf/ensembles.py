"""Ensembles of quantum states with priors, and cyclic-symmetry metadata.

A StateEnsemble is the package's central input type: N density matrices
rho_j with prior probabilities eta_j. Ensembles generated by a cyclic group
(rho_{j+1} = V^j rho_1 V^-j with V^N = 1 and [V, rho] = 0 for the average
state rho) carry a SymmetrySpec so solvers can pick covariant closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InfeasibleInputError,
    InvalidPhasesError,
)
from .operators import (
    EPS,
    PHASE_TOL,
    PRIOR_TOL,
    REFERENCE_NORM_TOL,
    TOL_HERM,
    TOL_PSD,
    TOL_RECON,
    TRACE_TOL,
    all_finite,
    eigh,
    hermitian_part,
    numerical_rank,
    spectra,
)


def default_phases(order: int, dim: int) -> np.ndarray:
    """Pairwise-distinct unit eigenphases exp(2 pi i l / order) for l = 1..dim.

    Requires dim <= order; there are only ``order`` distinct roots of unity
    of that order.
    """
    if dim > order:
        raise InvalidPhasesError(
            f"no {dim} pairwise-distinct phases of order {order} exist (need dim <= order)"
        )
    l = np.arange(1, dim + 1)
    return np.exp(2j * np.pi * l / order)


def check_order(order) -> int:
    """A cyclic group order as a Python int, which JSON can write and a numpy
    integer is not; a boolean, a float or an order below 1 is refused."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise InvalidPhasesError(f"group order must be an integer, got {order!r}")
    if order < 1:
        raise InvalidPhasesError(f"group order must be >= 1, got {order}")
    return int(order)


@dataclass(frozen=True, eq=False)
class SymmetrySpec:
    """Cyclic symmetry data: the group order and the eigenphases of the
    generator V = diag(phases), V^order = 1.

    phases are the eigenvalues of V in the eigenbasis of the average state;
    each must be unit modulus and an order-th root of unity. The orbit's
    first state is the ensemble's states[0].
    """

    order: int
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=complex).reshape(-1)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "order", check_order(self.order))
        if np.max(np.abs(np.abs(phases) - 1.0), initial=0.0) > PHASE_TOL:
            raise InvalidPhasesError("eigenphases must have unit modulus")
        if np.max(np.abs(phases**self.order - 1.0), initial=0.0) > PHASE_TOL:
            raise InvalidPhasesError(f"eigenphases must be {self.order}-th roots of unity")

    @property
    def dim(self) -> int:
        return self.phases.size

    @cached_property
    def powers(self) -> np.ndarray:
        """The (order, d) table whose row k is phases**k, the diagonal of V^k,
        built on first use and kept; allocated first, so an order no array
        can index is refused (ValueError) before any power is taken."""
        table = np.empty((self.order, self.dim), dtype=complex)
        for k in range(self.order):  # phases ** np.arange(order) rounds differently
            table[k] = self.phases**k
        return table

    @cached_property
    def clusters(self) -> np.ndarray:
        """The eigenspaces of V as a (C, d) 0/1 indicator: the rows of the
        equal-phase table at each eigenspace's first member, built on first
        use and kept. Distinct roots of unity lie far beyond PHASE_TOL."""
        p = self.phases
        same = np.abs(p[:, None] - p[None, :]) <= PHASE_TOL
        return same[same.argmax(axis=0) == np.arange(p.size)] if p.size else same

    def distinct(self) -> bool:
        """Whether all eigenphases are pairwise distinct."""
        return self.clusters.shape[0] == self.dim


@dataclass(frozen=True, eq=False)
class StateEnsemble:
    """N quantum states with prior probabilities.

    Attributes
    ----------
    dim : Hilbert-space dimension d.
    priors : real array (N,).
    states : complex array (N, d, d) of density matrices.
    symmetry : optional SymmetrySpec when the ensemble is a cyclic orbit.

    Construction only enforces shapes; use :func:`validate` for the physical
    invariants (positivity, traces, symmetry consistency).
    """

    dim: int
    priors: np.ndarray
    states: np.ndarray
    symmetry: SymmetrySpec | None = None

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float).reshape(-1)
        states = np.asarray(self.states, dtype=complex)
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise InfeasibleInputError(f"dimension must be an integer of at least 1, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))  # a numpy integer is not JSON
        if states.shape[1:] != (self.dim, self.dim):
            raise InfeasibleInputError(
                f"states must have shape (N, {self.dim}, {self.dim}), got {states.shape}"
            )
        if priors.shape[0] != states.shape[0]:
            raise InfeasibleInputError(
                f"{priors.shape[0]} priors for {states.shape[0]} states"
            )
        if states.shape[0] == 0:
            raise InfeasibleInputError("ensemble must contain at least one state")
        if self.symmetry is not None and self.symmetry.dim != self.dim:
            raise InfeasibleInputError(
                f"symmetry phases have length {self.symmetry.dim}, expected {self.dim}"
            )
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)

    @property
    def n_states(self) -> int:
        return self.states.shape[0]


def average_state(ensemble: StateEnsemble) -> np.ndarray:
    """Prior-weighted average rho = sum_j eta_j rho_j."""
    n, d = ensemble.n_states, ensemble.dim
    return (ensemble.priors @ ensemble.states.reshape(n, d * d)).reshape(d, d)


@dataclass(frozen=True)
class Violation:
    name: str
    magnitude: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: list[Violation]
    flags: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


@np.errstate(over="ignore", invalid="ignore")  # finite input may overflow; the checks fail on inf and NaN
def _violations(e: StateEnsemble):
    """The hard failures of an ensemble, as validate lists them, the eigh
    (w, v) of the Hermitian parts of its states, whose spectrum the
    positivity test reads and geometry factors the states with, and the
    Hermitian part of its average state. Non-finite input is reported alone,
    before anything else is computed (eigh and average state None)."""
    inputs = [e.priors, e.states, *([e.symmetry.phases] if e.symmetry is not None else [])]
    if not all(map(all_finite, inputs)):
        bad = sum(np.count_nonzero(~np.isfinite(x)) for x in inputs)
        return [Violation("finite_values", float(bad), "priors, states and phases must be finite")], None, None
    h = hermitian_part(e.states)
    worst_herm = 2.0 * float(np.abs(e.states - h).max())
    total = e.priors.sum()
    v: list[Violation] = []
    if not float(e.priors.min()) > 0.0:
        v.append(Violation("prior_positivity", -float(e.priors.min()),
                           "priors must be strictly positive"))
    gap = abs(float(total) - 1.0)
    if not gap <= PRIOR_TOL:
        v.append(Violation("prior_normalization", gap, "priors must sum to 1"))

    eig = eigh(h)
    worst_neg = -float(eig[0][:, 0].min())
    worst_trace = float(np.abs(h.trace(axis1=1, axis2=2).real - 1.0).max())
    if not worst_herm <= TOL_HERM:
        v.append(Violation("state_hermiticity", worst_herm,
                           "states must be Hermitian"))
    if not worst_neg <= TOL_PSD:
        v.append(Violation("state_positivity", worst_neg,
                           "states must be positive semidefinite"))
    if not worst_trace <= TRACE_TOL:
        v.append(Violation("state_trace", worst_trace, "states must have unit trace"))

    rho = hermitian_part(average_state(e))
    if e.symmetry is not None:
        s = e.symmetry
        if e.n_states != s.order:
            v.append(Violation("symmetry_order", abs(e.n_states - s.order),
                               f"symmetry order {s.order} != number of states {e.n_states}"))
        else:
            dev_orbit = float(np.abs(e.states - orbit(e.states[0], s.powers)).max())
            if not dev_orbit <= TOL_RECON:
                v.append(Violation("symmetry_orbit", dev_orbit,
                                   "states are not the cyclic orbit of the first state"))
            # (V rho - rho V)_ab = (p_a - p_b) rho_ab for V = diag(p)
            dev_comm = float(np.abs(np.subtract.outer(s.phases, s.phases) * rho).max())
            if not dev_comm <= TOL_RECON:
                v.append(Violation("symmetry_commutation", dev_comm,
                                   "average state must commute with the symmetry generator"))
            dev_prior = float(np.abs(e.priors - 1.0 / e.n_states).max())
            if not dev_prior <= PRIOR_TOL:
                v.append(Violation("symmetry_priors", dev_prior,
                                   "a cyclic orbit must carry uniform priors"))
    return v, eig, rho


def _require_valid(e: StateEnsemble):
    """The eigh of the states' Hermitian parts and the Hermitian part of the
    average state (_violations) of an ensemble that passes validate's hard
    checks. Raises InfeasibleInputError naming every violation otherwise."""
    violations, eig, rho = _violations(e)
    if violations:
        msgs = "; ".join(f"{u.name} ({u.magnitude:.3e})" for u in violations)
        raise InfeasibleInputError(f"ensemble fails validation: {msgs}")
    return eig, rho


def validate(ensemble: StateEnsemble) -> ValidationReport:
    """Check the physical invariants of an ensemble.

    Violations (hard failures): non-finite priors, state entries or
    eigenphases (reported alone, before any spectrum is computed),
    non-positive priors, priors not summing to one, non-Hermitian or non-PSD
    states, traces away from one, and, when a SymmetrySpec is attached,
    states that do not match the cyclic orbit, an average state that does
    not commute with the generator or priors that are not uniform. geometry
    and build_symmetric_ensemble refuse the same violations.

    Flags (informational, computed here only) describe a usable ensemble,
    one with no violation: a rank-deficient average state and repeated
    symmetry eigenphases. An ensemble with a violation gets no flag.
    """
    e = ensemble
    violations, _, rho = _violations(e)
    flags: list[str] = []
    if not violations:
        w = np.abs(spectra(rho))
        if numerical_rank(w, e.dim * EPS * max(w.max(), 1.0)) < e.dim:
            flags.append("average state is rank deficient; detection operators live on its support")
        if e.symmetry is not None and not e.symmetry.distinct():
            flags.append("symmetry eigenphases are not pairwise distinct; "
                         "rank-one closed forms are unavailable")
    return ValidationReport(violations=violations, flags=flags)


def orbit(op: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The cyclic orbit V^k op V^-k, k = 0..order-1, from the (order, d)
    phase-power table of V, a SymmetrySpec's powers.

    op is one (d, d) operator, or a stack (order, d, d) whose entry k is
    conjugated by V^k. Returns an (order, d, d) array.
    """
    return (powers[:, :, None] * op) * powers.conj()[:, None, :]


def _cyclic_ensemble(rho1: np.ndarray, order: int, phases: np.ndarray | None) -> StateEnsemble:
    """Equiprobable orbit of rho1 under V = diag(phases), default phases if None."""
    dim = rho1.shape[0]
    spec = SymmetrySpec(order, default_phases(order, dim) if phases is None else phases)
    if spec.dim != dim:
        raise InvalidPhasesError(f"{spec.dim} phases for dimension {dim}")
    return StateEnsemble(dim=dim, priors=np.full(order, 1.0 / order),
                         states=orbit(rho1, spec.powers), symmetry=spec)


def build_symmetric_ensemble(
    reference: np.ndarray,
    order: int,
    phases: np.ndarray | None = None,
) -> StateEnsemble:
    """Cyclic orbit of a reference state under V = diag(phases).

    reference may be a density matrix (d, d) or a coefficient vector (d,)
    of a pure state, both expressed in the eigenbasis of the generator.
    phases defaults to exp(2 pi i l / order), l = 1..d. A density matrix's
    orbit gets validate's hard checks (InfeasibleInputError names them).
    """
    reference = np.asarray(reference, dtype=complex)
    if reference.ndim == 1:
        nrm = float(np.linalg.norm(reference))
        if not abs(nrm - 1.0) <= REFERENCE_NORM_TOL:  # a NaN coefficient fails it too
            raise InfeasibleInputError(f"coefficient vector has norm {nrm:.12f}, expected 1")
        # the orbit's traces are held to TRACE_TOL, tighter than the norm test
        reference = reference / nrm
        return _cyclic_ensemble(np.outer(reference, reference.conj()), order, phases)
    if reference.ndim == 2 and reference.shape[0] == reference.shape[1]:
        # the orbit of an inf entry would warn (inf * 0)
        if not all_finite(reference):
            raise InfeasibleInputError("reference state has non-finite entries")
        e = _cyclic_ensemble(reference, order, phases)
        _require_valid(e)
        return e
    raise InfeasibleInputError(f"reference must be a vector or square matrix, got shape {reference.shape}")
