"""Hermitian-operator primitives and the package's tolerance table.

Operators are plain complex numpy arrays of shape (d, d); the Hermitian
helpers also take stacks (..., d, d) and act on each matrix. This module
pins down the numerical conventions the rest of the package relies on:

* fractional and negative matrix powers are restricted to the support,
* every numerical threshold of the package is named once in the table
  below, with the reason for its size, and imported from here. Values are
  absolute unless marked relative,
* every numerical rank is numerical_rank, the count of a spectrum's
  entries strictly above a cut that each caller writes in full: RANK_CUTOFF
  max|z| for Z (no floor), RANK_CUTOFF max(max|w|, 1) for Pi_0, d u
  max(||rho||, 1) for validate's flag, and in geometry the rounding floor
  from d u ||rho_j|| for F's singular values and C_j (1 - DEGENERACY_RTOL)
  for the top cluster, whose widths m_j bound rank Z below with no cut.
  psd_power's support mask alone reads SUPPORT_RTOL, floored at 1 likewise,
* every eigh, eigvalsh and SVD outside the interior point is eigh,
  spectra or thin_svd: numpy's LAPACK gufunc, with numpy's failure rule: a
  NaN from finite input raises LinAlgError, an inf is a value past the float range.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

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
SUPPORT_RTOL = 1e-9  # relative: psd_power's support, for its pseudo-powers and projector
RANK_CUTOFF = 1e-7  # relative: certificate ranks; looser, iterates keep small kernel eigenvalues
DEGENERACY_RTOL = 1e-8  # relative to C_j: eigenvalues this close share the top eigenspace
EPS = float(np.finfo(float).eps)  # u: geometry's ranks and validate's rank flag: floors d u ||.||

# cross-checks between two routes to one object
TOL_RECON = 1e-10  # orbit and commutation in validate
TOL_CONF = 1e-9  # |C_j - 1| and overlaps in is_unambiguous; C_1 + C_2 = 1 in the split
SPLIT_TOL = 1e-8  # two-state split: algebraic pieces against spectral ones
TIE_RTOL = 1e-9  # relative: largest |w_l|^2 this close share the closed form's dual Z
CROSS_CHECK_TOL = 1e-6  # detection rates of closed form and numeric solve in the CLI

# certificates and the numeric solve
CERT_TOL = 1e-8  # a certificate's most negative eigenvalue and largest residual; a solve's gap
ZERO_PROB = 1e-14  # an outcome less likely than this has no defined confidence (nan)
MAX_ITERATIONS = 10000  # interior-point iterations of one solve


# numpy.linalg's LAPACK gufuncs (numpy >= 2.0 signatures) without its wrappers: a
# matrix that does not factor, converge or solve comes out NaN, the invalid flag set
_eigh = partial(_lapack.eigh_lo, signature="D->dD")
_eigvalsh = partial(_lapack.eigvalsh_lo, signature="D->d")
_svd = partial(_lapack.svd_s, signature="D->DdD")
_cholesky = partial(_lapack.cholesky_lo, signature="D->D")
_inv = partial(_lapack.inv, signature="D->D")
_solve = partial(_lapack.solve1, signature="dd->d")


def all_finite(a) -> bool:
    """Whether every entry of a is finite: a . a is finite unless an entry is
    NaN, inf or past 1e154, and only then are the entries checked one by one."""
    return math.isfinite(np.vdot(a, a).real) or bool(np.isfinite(a).all())


def _converged(w: np.ndarray, a: np.ndarray, routine: str = "Eigenvalues") -> np.ndarray:
    """w, the eigenvalues or singular values LAPACK computed from a, or numpy's
    LinAlgError if a is finite and w holds a NaN, LAPACK's mark of non-convergence."""
    if not all_finite(w) and all_finite(a) and np.isnan(w).any():
        raise np.linalg.LinAlgError(f"{routine} did not converge")
    return w


@np.errstate(invalid="ignore")
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of each Hermitian matrix of a stack (..., d, d)."""
    w, v = _eigh(a)
    return _converged(w, a), v


@np.errstate(invalid="ignore")
def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy.linalg.svd(a, full_matrices=False) of a stack (..., m, n)."""
    u, s, vh = _svd(a)
    return u, _converged(s, a, "SVD"), vh


def numerical_rank(w: np.ndarray, cut: float | np.ndarray) -> int | np.ndarray:
    """The package's one rank rule: the number of entries of a spectrum
    (k,) strictly above ``cut``, an int; for a stack (..., k) of spectra,
    the count of each against its own cut, shape (...)."""
    above = w > np.asarray(cut)[..., None]
    return above.sum(axis=-1) if above.ndim > 1 else int(np.count_nonzero(above))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^dagger) of a matrix (d, d) or each matrix of a stack, halved first: finite for finite a."""
    half = 0.5 * a
    return half + _adjoint(half)


def require_hermitian(a: np.ndarray, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity of ``a``, shape (d, d) or a stack (..., d, d),
    and return its hermitian_part as a complex array, so downstream eigh
    calls see an exactly Hermitian matrix. Raises NonHermitianError, with
    ``name`` in the message, if any entry of a - a^dagger, read as twice
    a - hermitian_part(a), exceeds TOL_HERM or is NaN."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonHermitianError(f"{name} must be square, got shape {a.shape}")
    h = hermitian_part(a)
    dev = 2.0 * float(np.abs(a - h).max()) if a.size else 0.0
    if not dev <= TOL_HERM:  # a NaN entry fails it too
        raise NonHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (tol {TOL_HERM:.1e})")
    return h


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a Hermitian operator (d, d) or stack (..., d, d), eigenvalues
    ascending; NonHermitianError if ``a`` is not Hermitian within TOL_HERM."""
    return eigh(require_hermitian(a))


def psd_power(a: np.ndarray, exponent: float) -> np.ndarray:
    """Matrix power of a positive semidefinite operator, or of each matrix of
    a stack (..., d, d).

    Positive exponents clip tiny negative eigenvalues to zero; exponents
    <= 0 act only on the support (eigenvalues above SUPPORT_RTOL times the
    largest magnitude, floored at 1) and vanish on the kernel, so exponent
    0 gives the support projector and negative exponents the pseudo-power.

    Raises NotPSDError if an eigenvalue of any matrix is below -TOL_PSD.
    """
    w, v = eig_hermitian(a)
    lo = float(w[..., 0].min()) if w.size else 0.0
    if lo < -TOL_PSD:
        raise NotPSDError(f"operator has eigenvalue {lo:.3e} < -{TOL_PSD:.1e}")
    if exponent > 0:
        pw = np.clip(w, 0.0, None) ** exponent
    else:
        keep = w > SUPPORT_RTOL * np.maximum(np.abs(w).max(axis=-1, initial=0.0), 1.0)[..., None]
        pw = np.where(keep, w, 1.0) ** exponent
        pw[~keep] = 0.0
    return (v * pw[..., None, :]) @ _adjoint(v)


@np.errstate(invalid="ignore")
def spectra(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., b) of each Hermitian matrix of a stack
    (..., b, b): numpy's eigvalsh, except that a 1 x 1 matrix is its own
    eigenvalue, its real part, and takes no LAPACK call."""
    return a.real[..., 0] if a.shape[-1] == 1 else _converged(_eigvalsh(a), a)


def gram(a: np.ndarray) -> np.ndarray:
    """The Gram matrix a a^dagger of a matrix, or of each matrix of a stack."""
    return a @ _adjoint(a)


def gram_norms(w: np.ndarray) -> np.ndarray:
    """Spectral norms from the ascending spectra (..., k) of Gram matrices
    a a^dagger: the square roots of their top eigenvalues, clipped at zero,
    since rounding can leave the top eigenvalue of a Gram of a vanishing
    matrix slightly negative."""
    return np.sqrt(np.maximum(w[..., -1], 0.0))


def opnorm(a: np.ndarray) -> float | np.ndarray:
    """Spectral norm (largest singular value) of a matrix, or one per matrix
    of a stack (..., m, n) as an array (..., ), from the spectrum of its Gram
    matrix a a^dagger (gram_norms), as the certificate takes its norms;
    accurate to rounding while the squared entries stay in the float range."""
    norms = gram_norms(spectra(gram(a)))
    return norms if np.ndim(norms) else float(norms)
