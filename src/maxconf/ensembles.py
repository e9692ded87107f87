"""Ensembles of quantum states with priors, and cyclic-symmetry metadata.

A StateEnsemble is the package's central input type: N density matrices
rho_j with prior probabilities eta_j. Ensembles generated by a cyclic group
(rho_{j+1} = V^j rho_1 V^-j with V^N = 1 and [V, rho] = 0 for the average
state rho) carry a SymmetrySpec so solvers can pick covariant closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCoefficientError,
    InfeasibleInputError,
    InvalidPhasesError,
)
from .operators import (
    COEFF_NORM_TOL,
    COEFF_ZERO_TOL,
    PHASE_TOL,
    PRIOR_TOL,
    REFERENCE_NORM_TOL,
    TOL_HERM,
    TOL_PSD,
    TOL_RECON,
    TRACE_TOL,
    require_hermitian,
    support_rank,
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


@dataclass(frozen=True)
class SymmetrySpec:
    """Cyclic symmetry data: group order, eigenphases of the generator, and
    the reference object the orbit was built from.

    phases are the eigenvalues of the unitary generator V in the eigenbasis
    of the average state; each must be unit modulus and an order-th root of
    unity. reference is either the first density matrix or, for orbits of a
    pure state, its coefficient vector in that same eigenbasis.
    """

    order: int
    phases: np.ndarray
    reference: np.ndarray = field(repr=False)

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=complex).reshape(-1)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=complex))
        if self.order < 1:
            raise InvalidPhasesError(f"group order must be >= 1, got {self.order}")
        if np.max(np.abs(np.abs(phases) - 1.0), initial=0.0) > PHASE_TOL:
            raise InvalidPhasesError("eigenphases must have unit modulus")
        if np.max(np.abs(phases**self.order - 1.0), initial=0.0) > PHASE_TOL:
            raise InvalidPhasesError(f"eigenphases must be {self.order}-th roots of unity")

    @property
    def dim(self) -> int:
        return self.phases.size

    def generator(self) -> np.ndarray:
        """The unitary V as a diagonal matrix."""
        return np.diag(self.phases)

    def clusters(self) -> np.ndarray:
        """The eigenspaces of V as a (C, d) 0/1 indicator: the rows of the
        equal-phase table at each eigenspace's first member. Distinct roots
        of unity lie far beyond PHASE_TOL."""
        p = self.phases
        same = np.abs(p[:, None] - p[None, :]) <= PHASE_TOL
        return same[same.argmax(axis=0) == np.arange(p.size)] if p.size else same

    def distinct(self) -> bool:
        """Whether all eigenphases are pairwise distinct."""
        return self.clusters().shape[0] == self.dim


@dataclass(frozen=True)
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
        if states.ndim != 3 or states.shape[1:] != (self.dim, self.dim):
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
    return np.einsum("j,jab->ab", ensemble.priors, ensemble.states)


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


def validate(ensemble: StateEnsemble) -> ValidationReport:
    """Check the physical invariants of an ensemble.

    Violations (hard failures): non-finite priors, state entries or
    eigenphases (reported alone, before any spectrum is computed),
    non-positive priors, priors not summing to one, non-Hermitian or non-PSD
    states, traces away from one, and, when a SymmetrySpec is attached,
    states that do not match the cyclic orbit or an average state that does
    not commute with the generator.

    Flags (informational): rank-deficient average state, zero-probability
    symmetry mismatch candidates, etc. A flagged ensemble is still usable.
    """
    v: list[Violation] = []
    flags: list[str] = []
    e = ensemble

    values = [e.priors, e.states] + ([e.symmetry.phases] if e.symmetry is not None else [])
    bad = sum(np.count_nonzero(~np.isfinite(x)) for x in values)
    if bad:
        v.append(Violation("finite_values", float(bad), "priors, states and phases must be finite"))
        return ValidationReport(violations=v, flags=flags)
    if float(e.priors.min()) <= 0.0:
        v.append(Violation("prior_positivity", -float(e.priors.min()),
                           "priors must be strictly positive"))
    gap = abs(float(e.priors.sum()) - 1.0)
    if gap > PRIOR_TOL:
        v.append(Violation("prior_normalization", gap, "priors must sum to 1"))

    adj = e.states.conj().swapaxes(1, 2)
    worst_herm = float(np.max(np.abs(e.states - adj)))
    h = 0.5 * (e.states + adj)
    worst_neg = max(0.0, -float(np.linalg.eigvalsh(h)[:, 0].min()))
    worst_trace = float(np.max(np.abs(np.trace(h, axis1=1, axis2=2).real - 1.0)))
    if worst_herm > TOL_HERM:
        v.append(Violation("state_hermiticity", worst_herm,
                           "states must be Hermitian"))
    if worst_neg > TOL_PSD:
        v.append(Violation("state_positivity", worst_neg,
                           "states must be positive semidefinite"))
    if worst_trace > TRACE_TOL:
        v.append(Violation("state_trace", worst_trace, "states must have unit trace"))

    rho = average_state(e)
    rho_h = 0.5 * (rho + rho.conj().T)
    if support_rank(rho_h) < e.dim:
        flags.append("average state is rank deficient; detection operators live on its support")

    if e.symmetry is not None:
        s = e.symmetry
        if e.n_states != s.order:
            v.append(Violation("symmetry_order", abs(e.n_states - s.order),
                               f"symmetry order {s.order} != number of states {e.n_states}"))
        else:
            vu = s.generator()
            dev_orbit = float(np.max(np.abs(e.states - orbit(e.states[0], s.phases, s.order))))
            if dev_orbit > TOL_RECON:
                v.append(Violation("symmetry_orbit", dev_orbit,
                                   "states are not the cyclic orbit of the first state"))
            dev_comm = float(np.max(np.abs(vu @ rho_h - rho_h @ vu)))
            if dev_comm > TOL_RECON:
                v.append(Violation("symmetry_commutation", dev_comm,
                                   "average state must commute with the symmetry generator"))
            dev_prior = float(np.max(np.abs(e.priors - 1.0 / e.n_states)))
            if dev_prior > PRIOR_TOL:
                v.append(Violation("symmetry_priors", dev_prior,
                                   "a cyclic orbit must carry uniform priors"))
            if not s.distinct():
                flags.append("symmetry eigenphases are not pairwise distinct; "
                             "rank-one closed forms are unavailable")

    return ValidationReport(violations=v, flags=flags)


def orbit(op: np.ndarray, phases: np.ndarray, order: int) -> np.ndarray:
    """The cyclic orbit V^k op V^-k, k = 0..order-1, of V = diag(phases).

    op is one (d, d) operator, or a stack (order, d, d) whose entry k is
    conjugated by V^k. Returns an (order, d, d) array.
    """
    phases = np.asarray(phases, dtype=complex)
    # integer powers one by one: phases ** np.arange(order) rounds differently
    powers = np.stack([phases**k for k in range(order)])
    return (powers[:, :, None] * op) * powers.conj()[:, None, :]


def _cyclic_ensemble(
    rho1: np.ndarray, order: int, phases: np.ndarray | None, reference: np.ndarray
) -> StateEnsemble:
    """Equiprobable orbit of rho1 under V = diag(phases), default phases if None."""
    dim = rho1.shape[0]
    if phases is None:
        phases = default_phases(order, dim)
    else:
        phases = np.asarray(phases, dtype=complex).reshape(-1)
        if phases.shape[0] != dim:
            raise InvalidPhasesError(f"{phases.shape[0]} phases for dimension {dim}")
    spec = SymmetrySpec(order=order, phases=phases, reference=reference)
    return StateEnsemble(dim=dim, priors=np.full(order, 1.0 / order),
                         states=orbit(rho1, spec.phases, order), symmetry=spec)


def build_symmetric_ensemble(
    reference: np.ndarray,
    order: int,
    phases: np.ndarray | None = None,
) -> StateEnsemble:
    """Cyclic orbit of a reference state under V = diag(phases).

    reference may be a density matrix (d, d) or a coefficient vector (d,)
    of a pure state, both expressed in the eigenbasis of the generator.
    phases defaults to exp(2 pi i l / order), l = 1..d.
    """
    reference = np.asarray(reference, dtype=complex)
    if reference.ndim == 1:
        nrm = float(np.linalg.norm(reference))
        if abs(nrm - 1.0) > REFERENCE_NORM_TOL:
            raise InfeasibleInputError(f"coefficient vector has norm {nrm:.12f}, expected 1")
        # the orbit's traces are held to TRACE_TOL, tighter than the norm test
        reference = reference / nrm
        rho1 = np.outer(reference, reference.conj())
    elif reference.ndim == 2 and reference.shape[0] == reference.shape[1]:
        rho1 = require_hermitian(reference, name="reference state")
        w = np.linalg.eigvalsh(rho1)
        if float(w[0]) < -TOL_PSD:
            raise InfeasibleInputError(f"reference state has eigenvalue {float(w[0]):.3e}")
        if abs(float(np.trace(rho1).real) - 1.0) > TRACE_TOL:
            raise InfeasibleInputError("reference state must have unit trace")
    else:
        raise InfeasibleInputError(f"reference must be a vector or square matrix, got shape {reference.shape}")
    return _cyclic_ensemble(rho1, order, phases, reference)


def check_family(coefficients: np.ndarray, purity: float) -> np.ndarray:
    """The coefficients of a depolarized family as a flat complex vector,
    after checking that they are normalized and all nonzero and that the
    purity lies in [0, 1]."""
    c = np.asarray(coefficients, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > COEFF_NORM_TOL:
        raise InfeasibleInputError(f"coefficients have norm {nrm:.15f}, expected 1")
    if float(np.min(np.abs(c))) <= COEFF_ZERO_TOL:
        raise DegenerateCoefficientError(
            "every coefficient must be nonzero; got a vanishing component"
        )
    if not 0.0 <= purity <= 1.0:
        raise InfeasibleInputError(f"purity must lie in [0, 1], got {purity}")
    return c


def build_depolarized_family(
    coefficients: np.ndarray,
    order: int,
    purity: float,
    phases: np.ndarray | None = None,
) -> StateEnsemble:
    """Cyclic orbit of rho_1 = purity |psi><psi| + (1 - purity) 1/d.

    coefficients are the components of |psi> in the generator eigenbasis;
    they must be normalized and all nonzero (a vanishing component makes the
    orbit live in a smaller invariant problem and is rejected).
    """
    c = check_family(coefficients, purity)
    dim = c.shape[0]
    rho1 = purity * np.outer(c, c.conj()) + (1.0 - purity) * np.eye(dim) / dim
    return _cyclic_ensemble(rho1, order, phases, c)
