"""Dense complex-matrix primitives and seeded samplers.

Everything operates on plain :class:`numpy.ndarray` values with dtype
``complex128`` and never mutates its arguments. Samplers are deterministic
functions of an explicit seed, so there is no hidden shared RNG state and
results are safe to reproduce from any thread.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_cmatrix",
    "dagger",
    "frobenius_distance",
    "random_density",
    "random_unitary",
    "spawn_rng",
    "unitarity_defect",
]

def as_cmatrix(a, *, name: str = "matrix") -> np.ndarray:
    """Copy ``a`` into a read-only 2-D complex128 array.

    Rejects non-finite entries (NaN or infinity in either component).
    """
    arr = np.array(a, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.setflags(write=False)
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose. Exact involution: ``dagger(dagger(a))`` equals ``a`` bitwise."""
    return np.asarray(a).conj().T


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``sqrt(sum |a_ij - b_ij|^2)`` for same-shape matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def unitarity_defect(u: np.ndarray) -> float:
    """``||U†U - I||_F``; zero exactly when ``u`` is unitary."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    return frobenius_distance(dagger(u) @ u, np.eye(u.shape[0]))


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent child generator keyed by ``(seed, path)``.

    Splittable scheme: the stream depends only on the seed and the path
    tuple, never on how many sibling streams exist or the order they are
    drawn in, so per-trial results are reproducible under any scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed ``d x d`` unitary, deterministic per seed.

    QR of a complex Ginibre draw with the R-diagonal phases folded back into
    Q. Plain QR is not Haar because the factorization fixes no phase
    convention for R; multiplying column j of Q by ``R_jj / |R_jj|`` removes
    the bias at every dimension.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = np.divide(
        diag, np.abs(diag), out=np.ones_like(diag), where=np.abs(diag) > 0
    )
    u = q * phases
    u.setflags(write=False)
    return u


def random_density(d: int, seed) -> np.ndarray:
    """Random density matrix ``G G† / tr(G G†)`` for a complex Ginibre ``G``.

    Hermitian to the last bit (the product is symmetrized explicitly), PSD up
    to eigensolver dust, unit trace; deterministic per seed.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    rho = 0.5 * (rho + dagger(rho))
    rho /= np.trace(rho).real
    rho.setflags(write=False)
    return rho
