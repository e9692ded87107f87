"""Closed-form solutions for symmetric families of states.

A SymmetricFamily is the cyclic orbit of a depolarized pure state,

    rho_1 = purity |psi><psi| + (1 - purity) 1/d,
    rho_{j+1} = V^j rho_1 V^-j,   V = diag(phases),  V^order = 1,

with |psi> = sum_l c_l |l> and every c_l nonzero. For these ensembles the
optimal maximum-confidence measurement is known exactly; the functions here
return the optimal values and, where the detection operators have closed
form, the operators themselves. The numerical solver and these formulas
check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import (
    StateEnsemble,
    SymmetrySpec,
    build_depolarized_family,
    check_family,
    check_order,
    default_phases,
    orbit,
)
from .errors import InfeasibleInputError
from .operators import FLAT_TOL


@dataclass(frozen=True, eq=False)
class SymmetricFamily:
    """Parameters of a depolarized symmetric family.

    order : number of states N (>= dim).
    purity : mixing weight p of the pure component, in [0, 1].
    coefficients : components of |psi> in the generator eigenbasis,
        normalized, all nonzero. The generator's eigenphases are the first
        dim primitive choices exp(2 pi i l / order) (default_phases).
    """

    order: int
    purity: float
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order", check_order(self.order))
        dim = np.size(self.coefficients)
        if self.order < dim:
            raise InfeasibleInputError(
                f"order {self.order} < dimension {dim}; the orbit needs order >= dim"
            )
        object.__setattr__(self, "coefficients", check_family(self.coefficients, self.purity))

    @property
    def dim(self) -> int:
        return self.coefficients.size

    def ensemble(self) -> StateEnsemble:
        return build_depolarized_family(self.coefficients, self.order, self.purity)

    @classmethod
    def qubit(cls, order: int, purity: float, angle: float) -> "SymmetricFamily":
        """Qubit family with coefficients (cos(angle/2), sin(angle/2))."""
        if not np.isfinite(angle):  # cos and sin would warn, then give NaN coefficients
            raise InfeasibleInputError(f"family angle must be finite, got {angle}")
        c = np.array([np.cos(angle / 2.0), np.sin(angle / 2.0)], dtype=complex)
        return cls(order=order, purity=purity, coefficients=c)

    @classmethod
    def flat(cls, order: int, dim: int, purity: float) -> "SymmetricFamily":
        """Family with all |c_l| equal to 1/sqrt(dim)."""
        if not dim >= 1:  # 1/sqrt(dim) would warn
            raise InfeasibleInputError(f"dimension must be at least 1, got {dim!r}")
        c = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
        return cls(order=order, purity=purity, coefficients=c)


@dataclass(frozen=True, eq=False)
class FamilySolution:
    """Optimal values for a symmetric family.

    confidence : the common maximum confidence C.
    failure_probability : minimal probability of the inconclusive outcome
        among measurements achieving C for every outcome.
    alpha : weight Tr(rho Pi_1) of a single detection operator, so the
        total detection rate is order * alpha.
    detection_operators : (order, d, d) array of optimal conclusive
        operators when they have closed form, else None.
    """

    confidence: float
    failure_probability: float
    alpha: float
    detection_operators: np.ndarray | None = None

    @property
    def correct_probability(self) -> float:
        return self.confidence * (1.0 - self.failure_probability)


def pure_symmetric_solution(family: SymmetricFamily) -> FamilySolution:
    """Optimal measurement for a pure symmetric family (purity = 1).

    The common confidence is dim/order regardless of the coefficients, and
    the minimal failure probability is 1 - dim * min_l |c_l|^2. The
    conclusive operators are alpha-weighted rank-one sandwiches of the pure
    states between inverse average states.
    """
    if family.purity != 1.0:
        raise InfeasibleInputError("pure family solution requires purity = 1")
    c = family.coefficients
    d, n = family.dim, family.order
    mods2 = np.abs(c) ** 2
    confidence = d / n
    alpha = d * float(mods2.min()) / n
    failure = 1.0 - n * alpha

    # rho = diag(|c_l|^2) in the generator eigenbasis, so rho^-1 is diagonal
    rinv_diag = 1.0 / mods2
    psi1 = c
    lead = rinv_diag * psi1
    pi1 = (float(mods2.min()) / n) * np.outer(lead, lead.conj())
    ops = orbit(pi1, SymmetrySpec(n, default_phases(n, d)).powers)
    return FamilySolution(
        confidence=confidence,
        failure_probability=failure,
        alpha=alpha,
        detection_operators=ops,
    )


def qubit_mixed_solution(family: SymmetricFamily) -> FamilySolution:
    """Optimal values for a depolarized qubit family (dim = 2).

    With moduli (|c_1|, |c_2|) = (cos(angle/2), sin(angle/2)) and purity p:

        C = (1/order) * (1 + p sin(angle) / sqrt(1 - p^2 cos(angle)^2))
        Q = p cos(angle)        (taking |c_2| <= |c_1|)
        alpha = (1 - p + 2 p min|c_l|^2) / order

    The formulas are symmetric under swapping the two moduli; they are
    expressed below directly through the moduli so arbitrary complex
    coefficients are handled.
    """
    if family.dim != 2:
        raise InfeasibleInputError("qubit family solution requires dim = 2")
    p = family.purity
    n = family.order
    m1, m2 = np.abs(family.coefficients[0]) ** 2, np.abs(family.coefficients[1]) ** 2
    mmin = float(min(m1, m2))
    # sin(angle) = 2 |c_1||c_2|, cos(angle) = |c_1|^2 - |c_2|^2 up to sign
    s = 2.0 * float(np.sqrt(m1 * m2))
    cdiff = abs(float(m1 - m2))
    confidence = (1.0 + p * s / np.sqrt(1.0 - p * p * cdiff * cdiff)) / n
    alpha = (1.0 - p + 2.0 * p * mmin) / n
    failure = p * cdiff
    return FamilySolution(confidence=confidence, failure_probability=failure, alpha=alpha)


def flat_mixed_solution(family: SymmetricFamily) -> FamilySolution:
    """Optimal measurement when all moduli are equal (|c_l|^2 = 1/dim).

    The average state is maximally mixed, every outcome keeps confidence
    C = (1 + purity (dim - 1)) / order, and the inconclusive outcome can be
    dropped entirely: failure probability 0 with conclusive operators
    (dim/order) |psi_j><psi_j|.
    """
    c = family.coefficients
    d, n = family.dim, family.order
    mods2 = np.abs(c) ** 2
    if float(np.max(np.abs(mods2 - 1.0 / d))) > FLAT_TOL:
        raise InfeasibleInputError("flat family solution requires all |c_l|^2 = 1/dim")
    p = family.purity
    confidence = (1.0 + p * (d - 1.0)) / n
    pi1 = (d / n) * np.outer(c, c.conj())
    ops = orbit(pi1, SymmetrySpec(n, default_phases(n, d)).powers)
    return FamilySolution(
        confidence=confidence,
        failure_probability=0.0,
        alpha=1.0 / n,
        detection_operators=ops,
    )


def square_root_measurement(family: SymmetricFamily) -> tuple[np.ndarray, float]:
    """Pretty-good measurement for a pure symmetric family, and its confidence.

    The operators are (1/order) rho^(-1/2) |psi_j><psi_j| rho^(-1/2); they
    form a complete measurement with no inconclusive outcome. The common
    confidence achieved is (dim/order) * (sum_l |c_l| / sqrt(dim))^2, which
    is at most the maximum confidence dim/order, with equality exactly when
    all moduli are equal.
    """
    if family.purity != 1.0:
        raise InfeasibleInputError("square-root measurement comparison requires purity = 1")
    c = family.coefficients
    d, n = family.dim, family.order
    mods = np.abs(c)
    # rho^(-1/2) is diagonal with entries 1/|c_l|
    lead = c / mods
    pi1 = np.outer(lead, lead.conj()) / n
    ops = orbit(pi1, SymmetrySpec(n, default_phases(n, d)).powers)
    confidence = (d / n) * float(mods.sum() / np.sqrt(d)) ** 2
    return ops, confidence
