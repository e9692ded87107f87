"""Hermitian-operator primitives used throughout the package.

Operators are plain complex numpy arrays of shape (d, d); the Hermitian
helpers also take stacks (..., d, d) and act on each matrix. The helpers
here pin down the numerical conventions the rest of the package relies on:

* eigendecompositions are deterministic (descending eigenvalues, each
  eigenvector's largest-modulus component made real and positive),
* support detection uses a single relative cutoff,
* fractional and negative matrix powers are restricted to the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, NotPSDError

TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_ORTH = 1e-10
TOL_RECON = 1e-10
SUPPORT_RTOL = 1e-9


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


def require_hermitian(a: np.ndarray, tol: float = TOL_HERM, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized operator.

    Parameters
    ----------
    a : array_like, shape (d, d) or a stack (..., d, d)
    tol : maximum allowed entrywise deviation between ``a`` and its adjoint,
        over every matrix of a stack.
    name : label used in the error message.

    Returns
    -------
    0.5 * (a + a^dagger) as a complex array, so downstream eigh calls see an
    exactly Hermitian matrix.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonHermitianError(f"{name} must be square, got shape {a.shape}")
    dev = float(np.max(np.abs(a - _adjoint(a)))) if a.size else 0.0
    if dev > tol:
        raise NonHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return 0.5 * (a + _adjoint(a))


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

    def power(self, exponent: float, tol: float = TOL_PSD) -> np.ndarray:
        """Matrix power of the positive semidefinite operator(s).

        Positive exponents clip tiny negative eigenvalues to zero; exponents
        <= 0 act only on the support (eigenvalues above the support cutoff)
        and vanish on the kernel, so exponent 0 gives the support projector
        and negative exponents the pseudo-power.

        Raises NotPSDError if an eigenvalue of any matrix is below -tol.
        """
        w, v = self.eigenvalues, self.eigenvectors
        lo = float(w[..., -1].min()) if w.size else 0.0
        if lo < -tol:
            raise NotPSDError(f"operator has eigenvalue {lo:.3e} < -{tol:.1e}")
        if exponent > 0:
            pw = np.clip(w, 0.0, None) ** exponent
        else:
            keep = w > support_cutoff(w)[..., None]
            pw = np.where(keep, w, 1.0) ** exponent
            pw[~keep] = 0.0
        return (v * pw[..., None, :]) @ _adjoint(v)


def eig_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian operator (d, d), or
    of each matrix of a stack (..., d, d).

    Raises NonHermitianError if ``a`` is not Hermitian within ``tol``.
    """
    a = require_hermitian(a, tol=tol)
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


def psd_power(a: np.ndarray, exponent: float, tol: float = TOL_PSD) -> np.ndarray:
    """Matrix power of a positive semidefinite operator, or of each matrix of
    a stack (..., d, d); see Spectrum.power.

    Raises NotPSDError if an eigenvalue of any matrix is below -tol.
    """
    return eig_hermitian(a).power(exponent, tol)


def support_projector(a: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD operator."""
    return psd_power(a, 0.0, tol)


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
    a = np.asarray(a)
    return rank_of_spectrum(np.linalg.eigvalsh(0.5 * (a + _adjoint(a))), rtol)


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))
