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

# Bytes one stack of trials may hold, per array: trials evaluated as one
# stack share numpy's per-call cost, and the budget keeps the stacks and
# their temporaries from growing with the number of trials.
_BLOCK_BYTES = 1 << 17


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


def _as_square(a, name: str) -> np.ndarray:
    """``as_cmatrix(a, name=name)``, refused unless it is square."""
    return _square(as_cmatrix(a, name=name), name)


def _square(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as it is, refused unless it is a square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    return a


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


def _frobenius_norms(mats: np.ndarray) -> list:
    """The Frobenius norm of each matrix of an ``(n, ...)`` stack.

    Each is taken by ``np.linalg.norm`` on its own slice, so it is bitwise
    the norm of that matrix alone; an axis-wise norm sums in another order.
    """
    return [float(np.linalg.norm(m)) for m in mats]


def _scaled(overflowed, *stacks: np.ndarray):
    """``(n, ...)`` stacks with each ``overflowed`` member scaled by ``2^-e``, and e.

    e takes a member's largest real or imaginary part to (0.5, 1], so a
    member already of that size keeps e = 0, as do the others. ``np.ldexp``
    scales each part by the power of two exactly, for every finite size,
    subnormal ones included.
    """
    parts = [np.ascontiguousarray(s).view(np.float64) for s in stacks]
    top = np.max([np.abs(p).max(axis=tuple(range(1, p.ndim))) for p in parts], 0)
    mantissa, e = np.frexp(top)
    e = np.where(overflowed, e - (mantissa == 0.5), 0)
    scaled = [np.ldexp(p, -e.reshape(-1, *(1,) * (p.ndim - 1))) for p in parts]
    return (*(p.view(np.complex128) for p in scaled), e)


def _gram_defects(ops: np.ndarray) -> list:
    """``||sum_A A†A - I||_F`` for each set of an ``(n, N, d, d)`` stack.

    The one kernel behind completeness and unitarity defects: a unitary
    ``u`` is the one-operator set ``u[None]``, and a sum over one operator
    is that operator's product bitwise.
    """
    acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
    return _frobenius_norms(acc - np.eye(ops.shape[-1]))


def _check_gram(ops: np.ndarray, tol: float, message: str) -> None:
    """Refuse an ``(n, N, d, d)`` stack holding a set whose Gram defect exceeds ``tol``.

    The one entry gate of completeness and unitarity; the error is
    ``message`` formatted with the ``defect`` and ``tol``.
    """
    for defect in _gram_defects(ops):
        if defect > tol:
            raise ValueError(message.format(defect=defect, tol=tol))


def unitarity_defect(u: np.ndarray) -> float:
    """``||U†U - I||_F``: zero exactly when ``u`` is unitary, NaN if it has a NaN."""
    u = _square(np.asarray(u), "matrix")
    return _gram_defects(u[None, None])[0]


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent child generator keyed by ``(seed, path)``.

    Splittable scheme: the stream depends only on the seed and the path
    tuple, never on how many sibling streams exist or the order they are
    drawn in, so per-trial results are reproducible under any scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _blocks(n: int, member_bytes: int):
    """Consecutive ranges covering ``range(n)``, as many per range as fit.

    A range holds ``_BLOCK_BYTES // member_bytes`` indices, at least one,
    so a stack of one array of ``member_bytes`` per index stays within the
    budget however large ``n`` is.
    """
    size = max(1, _BLOCK_BYTES // member_bytes)
    return [range(i, min(n, i + size)) for i in range(0, n, size)]


def _haar_unitaries(d: int, seeds, cols: int | None = None) -> np.ndarray:
    """The first ``cols`` (default all) columns of a Haar ``d x d`` unitary per seed.

    A writable ``(n, d, cols)`` stack. Each member draws its two ``d x d``
    Ginibre parts whole from its own generator; only their first ``cols``
    columns go through one stacked QR, which factors each member as it would
    alone. Householder Q's first ``cols`` columns depend on those alone, and
    the R-diagonal phase fix makes them unique: the samples do not change.
    """
    g = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        g.append(
            rng.standard_normal((d, d))[:, :cols]
            + 1j * rng.standard_normal((d, d))[:, :cols]
        )
    # rebinding drops the draws before QR makes its own copies
    g = np.stack(g)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.divide(
        diag, np.abs(diag), out=np.ones_like(diag), where=np.abs(diag) > 0
    )
    return q * phases[:, None, :]


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed ``d x d`` unitary, deterministic per seed.

    QR of a complex Ginibre draw with the R-diagonal phases folded back into
    Q. Plain QR is not Haar because the factorization fixes no phase
    convention for R; multiplying column j of Q by ``R_jj / |R_jj|`` removes
    the bias at every dimension.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    u = _haar_unitaries(d, [seed])[0]
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
