"""Hermitian-operator primitives and the package's tolerance table.

Operators are plain complex numpy arrays of shape (d, d); the Hermitian
helpers also take stacks (..., d, d) and act on each matrix. This module
pins down the numerical conventions the rest of the package relies on:

* eigendecompositions are deterministic (descending eigenvalues, each
  eigenvector's largest-modulus component made real and positive),
* fractional and negative matrix powers are restricted to the support,
* every numerical threshold of the package is named once in the table
  below, with the reason for its size, and imported from here. Values are
  absolute unless marked relative: the two rank cutoffs SUPPORT_RTOL and
  RANK_CUTOFF scale with the largest eigenvalue magnitude, floored at 1
  (support_cutoff), except that a certificate's rank of Z scales with ||Z||
  alone, DEGENERACY_RTOL scales with C_j itself, and geometry's rank floors
  are built from EPS: d EPS ||rho_j|| on each state, and the error that
  leaves in the stacked state factors; validate flags rho as rank
  deficient below d EPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, NotPSDError

# inputs: validate, the ensemble builders and the symmetric families
TOL_HERM = 1e-9  # entrywise |A - A^dagger|: far above the rounding of unit-norm products
TOL_PSD = 1e-9  # most negative eigenvalue a PSD operator may show; same margin as TOL_HERM
TRACE_TOL = 1e-10  # |Tr rho_j - 1|: one sum of d entries, held tighter than spectral tests
PRIOR_TOL = 1e-12  # |sum eta_j - 1|, |eta_j - 1/N| on an orbit: sums of N floats, ~N eps
PHASE_TOL = 1e-10  # |phase| = 1 and phase^N = 1; distinct N-th roots of unity lie far apart
REFERENCE_NORM_TOL = 1e-9  # | ||psi|| - 1 | of a pure reference; validate holds traces tighter
COEFF_NORM_TOL = 1e-12  # | ||c|| - 1 | of a family's coefficients, which come from formulas
COEFF_ZERO_TOL = 1e-12  # |c_l| at or below it vanishes: the orbit lives in a smaller space
FLAT_TOL = 1e-12  # max_l | |c_l|^2 - 1/d | for the flat closed form

# numerical rank
SUPPORT_RTOL = 1e-9  # relative: support projectors and pseudo-powers
RANK_CUTOFF = 1e-7  # relative: certificate ranks; looser, iterates keep small kernel eigenvalues
DEGENERACY_RTOL = 1e-8  # relative to C_j: eigenvalues this close share the top eigenspace
EPS = float(np.finfo(float).eps)  # u: geometry's ranks and validate's rank flag: floors d u ||.||

# cross-checks between two routes to one object
TOL_RECON = 1e-10  # orbit and commutation in validate
TOL_CONF = 1e-9  # |C_j - 1| and overlaps in is_unambiguous; C_1 + C_2 = 1 in the split
SPLIT_TOL = 1e-8  # two-state split: algebraic pieces against spectral ones
DIAGONAL_TOL = 1e-9  # off-diagonal entries of rho in the generator eigenbasis (closed form)
OVERLAP_CUTOFF = 1e-14  # |<l|nu>|^2 at or below it drops l from the closed-form minimum
TIE_RTOL = 1e-9  # relative: minimizing ratios this close share the closed form's dual Z
CROSS_CHECK_TOL = 1e-6  # detection rates of closed form and numeric solve in the CLI

# certificates and the numeric solve
CERT_TOL = 1e-8  # a certificate's most negative eigenvalue and largest residual; a solve's gap
ZERO_PROB = 1e-14  # an outcome less likely than this has no defined confidence (nan)
MAX_ITERATIONS = 10000  # interior-point iterations of one solve


def support_cutoff(eigenvalues: np.ndarray, rtol: float = SUPPORT_RTOL) -> np.ndarray:
    """Absolute threshold below which eigenvalues count as zero.

    rtol times the largest eigenvalue magnitude, with a floor of 1 so that
    all-zero or tiny operators do not produce a vanishing cutoff. For a
    stack (..., d) of spectra, one cutoff per spectrum, shape (...).
    """
    scale = np.max(np.abs(eigenvalues), axis=-1, initial=0.0)
    return rtol * np.maximum(scale, 1.0)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^dagger) of a matrix (d, d) or of each matrix of a stack."""
    return 0.5 * (a + _adjoint(a))


def require_hermitian(a: np.ndarray, tol: float = TOL_HERM, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity of ``a``, shape (d, d) or a stack (..., d, d),
    and return 0.5 (a + a^dagger) as a complex array, so downstream eigh
    calls see an exactly Hermitian matrix. Raises NonHermitianError, with
    ``name`` in the message, if any entry of a - a^dagger exceeds tol."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonHermitianError(f"{name} must be square, got shape {a.shape}")
    dev = float(np.max(np.abs(a - _adjoint(a)))) if a.size else 0.0
    if dev > tol:
        raise NonHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return hermitian_part(a)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, or of a stack of them.

    Attributes
    ----------
    eigenvalues : real array (..., d), sorted in descending order.
    eigenvectors : complex array (..., d, d), column k is the eigenvector for
        ``eigenvalues[..., k]``, phase-fixed so its largest-modulus component
        is real and positive (lowest index wins ties).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v, w = self.eigenvectors, self.eigenvalues
        return (v * w[..., None, :]) @ _adjoint(v)

    def power(self, exponent: float) -> np.ndarray:
        """Matrix power of the positive semidefinite operator(s).

        Positive exponents clip tiny negative eigenvalues to zero; exponents
        <= 0 act only on the support (eigenvalues above the support cutoff)
        and vanish on the kernel, so exponent 0 gives the support projector
        and negative exponents the pseudo-power.

        Raises NotPSDError if an eigenvalue of any matrix is below -TOL_PSD.
        """
        w, v = self.eigenvalues, self.eigenvectors
        lo = float(w[..., -1].min()) if w.size else 0.0
        if lo < -TOL_PSD:
            raise NotPSDError(f"operator has eigenvalue {lo:.3e} < -{TOL_PSD:.1e}")
        if exponent > 0:
            pw = np.clip(w, 0.0, None) ** exponent
        else:
            keep = w > support_cutoff(w)[..., None]
            pw = np.where(keep, w, 1.0) ** exponent
            pw[~keep] = 0.0
        return (v * pw[..., None, :]) @ _adjoint(v)


def eig_hermitian(a: np.ndarray) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian operator (d, d), or
    of each matrix of a stack (..., d, d).

    Raises NonHermitianError if ``a`` is not Hermitian within TOL_HERM.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    # rotate each column so its largest-modulus component (the pivot) is
    # real and positive, then force the pivot exactly real; the imaginary
    # dust is rotation noise. Columns have unit norm, so no pivot is zero.
    piv = np.argmax(np.abs(v), axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, piv, axis=-2)
    v *= pivot.conj() / np.abs(pivot)
    v.imag[piv == np.arange(v.shape[-1])[:, None]] = 0.0
    return Spectrum(eigenvalues=w, eigenvectors=v)


def psd_power(a: np.ndarray, exponent: float) -> np.ndarray:
    """Matrix power of a positive semidefinite operator, or of each matrix of
    a stack (..., d, d); see Spectrum.power.

    Raises NotPSDError if an eigenvalue of any matrix is below -TOL_PSD.
    """
    return eig_hermitian(a).power(exponent)


def support_projector(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD operator."""
    return psd_power(a, 0.0)


def rank_of_spectrum(eigenvalues: np.ndarray, rtol: float = SUPPORT_RTOL) -> int | np.ndarray:
    """Number of eigenvalues whose magnitude exceeds the support cutoff at
    ``rtol``: an int for one spectrum (d,), one count per spectrum for a
    stack (..., d)."""
    w = eigenvalues
    rank = np.count_nonzero(np.abs(w) > support_cutoff(w, rtol)[..., None], axis=-1)
    return rank if np.ndim(rank) else int(rank)


def support_rank(a: np.ndarray, rtol: float = SUPPORT_RTOL) -> int | np.ndarray:
    """Numerical rank (rank_of_spectrum) of the Hermitian part of ``a``: an
    int for one matrix, one count per matrix for a stack (..., d, d)."""
    return rank_of_spectrum(np.linalg.eigvalsh(hermitian_part(np.asarray(a))), rtol)


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))
