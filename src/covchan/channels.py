"""Density matrices, Kraus sets, and the Choi-matrix channel-equality oracle.

A channel is represented by an ordered set of Kraus operators acting as
``rho -> sum_A K_A rho K_A^dagger``. Two sets describe the same channel
exactly when their Choi matrices coincide, which turns a universally
quantified statement over all input states into one finite matrix
comparison. The Choi matrix here is ``sum_A vec(K_A) vec(K_A)^dagger``
with the column-stacking ``vec`` (Fortran order); that convention is part
of the serialization contract and must not drift.

The oracle is evaluated in factored form. Stacking the vecs of both sets
as ``W = [vec K_1 ... vec K_N | vec L_1 ... vec L_M]`` gives
``C_K - C_L = W J W^dagger`` with ``J = diag(+1 x N, -1 x M)``; with the
thin QR ``W = Q R`` the Choi distance is ``||R J R^dagger||_F``, an
(N+M)-square matrix, so no d^2 x d^2 matrix is ever built. One stacked
core, ``_factored_chois``, serves every caller but n1-search, which uses
its two-column case written out as ``rigidity._rank1_choi_residual``.
:func:`choi_matrix` builds the dense matrix, a plain read-only array,
and is kept as the reference that the factored form is tested against.

Each value is checked once, where it enters: sets derived from checked
ones (conjugated, mixed, embedded) are wrapped without re-checking. The
completeness defect is ``linalg._gram_defects``, the kernel that the
unitarity defects share.

Every conjugation ``U M U^dagger`` is one product, ``_conjugate``, the
scenario tree's branch images too; ``_kraus_images`` serves :func:`apply_kraus`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import (
    _as_square,
    _check_gram,
    _frobenius_norms,
    _gram_defects,
    _haar_unitaries,
    _scaled,
    as_cmatrix,
    dagger,
    frobenius_distance,
)

__all__ = [
    "CHANNEL_EQUALITY_TOL",
    "COMPLETENESS_TOL",
    "STATE_TOL",
    "Branches",
    "DensityMatrix",
    "KrausSet",
    "apply_channel",
    "apply_kraus",
    "apply_to_matrix_units",
    "channels_equal",
    "choi_distance",
    "choi_matrix",
    "completeness_defect",
    "matrix_units",
    "random_kraus_set",
    "vec",
]

STATE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
CHANNEL_EQUALITY_TOL = 1e-9

# KrausSet's completeness error, for ``linalg._check_gram``
_INCOMPLETE = (
    "completeness defect {defect:.3e} exceeds {tol:.1e}; "
    "sum of K^dagger K is not the identity"
)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    For values derived from already-checked ones: the constructor and its
    checks do not run, so callers pass exactly what it would have stored.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _readonly(a) -> np.ndarray:
    """Fresh ``a`` as read-only C-contiguous complex128; frozen in place if it is."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: stacks columns top to bottom."""
    return np.asarray(m).reshape(-1, order="F")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    States are checked where they enter: the constructor checks that the
    matrix is finite, Hermitian, of unit trace and positive semidefinite,
    within ``STATE_TOL`` and in that order. States the library derives
    (channel outputs, frame transforms, a scenario's final states) are
    wrapped through ``_trusted`` and ``_readonly`` and reported as computed;
    a scenario's leaf states stay arrays in its ``Branches`` table.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _as_square(self.mat, "density matrix")
        herm = frobenius_distance(mat, dagger(mat))
        if herm > STATE_TOL:
            raise ValueError(f"density matrix is not Hermitian: defect {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > STATE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        # eigenvalues come in ascending order
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -STATE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_state_vector(cls, psi) -> "DensityMatrix":
        """Pure state |psi><psi| / <psi|psi> for any nonzero vector."""
        v = np.asarray(psi, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0 or not np.all(np.isfinite(v)):
            raise ValueError("state vector must be nonzero and finite")
        v = v / norm
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered stack of same-dimension complex square operators.

    ``ops`` is one read-only, C-contiguous complex128 array of shape
    ``(N, d, d)``, the stack the kernels take as it is; the constructor
    checks each matrix of any sequence in turn, then stacks them once.
    ``rank`` is N; the index runs over measurement branches or environment
    basis labels, flattened to a single subscript.
    ``trace_preserving=False`` admits selective-measurement branch subsets,
    which deliberately fail completeness; the completeness invariant is
    enforced only when the flag is set, at ``completeness_tol`` but never
    tighter than ``COMPLETENESS_TOL``.
    """

    ops: np.ndarray
    trace_preserving: bool = True
    completeness_tol: InitVar[float] = COMPLETENESS_TOL

    def __post_init__(self, completeness_tol: float):
        ops = [
            as_cmatrix(op, name=f"Kraus operator {i}") for i, op in enumerate(self.ops)
        ]
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        d = ops[0].shape[0]
        for i, op in enumerate(ops):
            if op.shape != (d, d):
                raise ValueError(
                    f"Kraus operator {i} has shape {op.shape}, expected ({d}, {d})"
                )
        ops = _readonly(np.stack(ops))
        object.__setattr__(self, "ops", ops)
        if self.trace_preserving:
            tol = max(COMPLETENESS_TOL, completeness_tol)
            _check_gram(ops[None], tol, _INCOMPLETE)

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]

    @property
    def rank(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class Branches:
    """The leaves of the outcome tree as read-only columns, one row per leaf.

    Leaf ``i`` is the outcome sequence ``list(sequences)[i]``, over
    ``counts`` branches per intervention. Rows of ``probabilities``, of
    ``live`` (above ``scenario.NULL_BRANCH_PROB``) and of ``states``
    (renormalized, shape ``(L, 2, d, d)``, NaN where null) hold frame S,
    then frame S'. ``states`` is the array the tree grew in: each frame's
    column ``states[:, f]`` held every level of that frame's tree in turn.
    ``scenario`` builds it; it is defined here so that the report writer
    knows it without loading ``scenario``.
    """

    counts: np.ndarray
    probabilities: np.ndarray
    live: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def sequences(self):
        """Each leaf's outcome sequence, as a tuple of ints, in leaf order."""
        return itertools.product(*map(range, self.counts.tolist()))


def _conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``U M U^dagger``, with the stacks of ``u`` and ``m`` broadcast together."""
    return u @ m @ u.conj().swapaxes(-1, -2)


def _kraus_images(ops, mats) -> np.ndarray:
    """Branch images ``K_A M K_A^dagger``, shape ``(..., N, d, d)``.

    ``ops`` holds N operators; ``mats`` is one matrix or a stack of them.
    """
    ops = np.asarray(ops, dtype=np.complex128)
    mats = np.asarray(mats)
    d = mats.shape[-2]
    if ops.shape[-1] != d:
        raise ValueError(f"operator shape {ops.shape[1:]} does not act on dim {d}")
    return _conjugate(ops, mats[..., None, :, :])


def apply_kraus(ops, mat: np.ndarray) -> np.ndarray:
    """Raw operator-sum action ``sum_A K_A M K_A^dagger`` on any matrix.

    No completeness, trace, or Hermiticity requirements; used for selective
    branches and for probing the channel on non-Hermitian basis elements.
    """
    return _kraus_images(ops, mat).sum(axis=0)


def apply_channel(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a state through a trace-preserving channel.

    The output is symmetrized and reported as computed; a set that entered
    with completeness defect eps leaves its trace off by about eps.
    """
    if not k.trace_preserving:
        raise ValueError(
            "apply_channel needs a trace-preserving set; "
            "use apply_kraus for selective branches"
        )
    if k.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {k.dim} vs state {rho.dim}")
    return _output_state(apply_kraus(k.ops, rho.mat))


def _output_state(out: np.ndarray) -> DensityMatrix:
    """An evolved state, symmetrized and wrapped without a check."""
    return _trusted(DensityMatrix, mat=_readonly(0.5 * (out + dagger(out))))


def completeness_defect(k: KrausSet) -> float:
    """``|| sum_A K_A^dagger K_A - I ||_F``; zero iff trace-preserving."""
    return _gram_defects(k.ops[None])[0]


def _derived_set(k: KrausSet, compute) -> KrausSet:
    """The set of operators ``compute()`` derives from ``k``'s.

    Completeness was decided when ``k`` and the frame or mixing applied to
    it entered, at their tolerances, so it is not checked again; only
    overflow is new, so finiteness is, and numpy's overflow warnings are
    silenced so that this check's error is all a caller sees.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ops = _readonly(compute())
    bad = ~np.isfinite(ops).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"Kraus operator {int(bad.argmax())}: entries must be finite")
    return _trusted(KrausSet, ops=ops, trace_preserving=k.trace_preserving)


def choi_matrix(k: KrausSet) -> np.ndarray:
    """``sum_A vec(K_A) vec(K_A)^dagger`` with column-stacking vec.

    A read-only Hermitian ``(d^2, d^2)`` array; the dense reference oracle.
    """
    d = k.dim
    c = np.zeros((d * d, d * d), dtype=np.complex128)
    for op in k.ops:
        v = vec(op)
        c += np.outer(v, v.conj())
    return _readonly(0.5 * (c + dagger(c)))


def _factored_chois(k: np.ndarray, l: np.ndarray):
    """``(||C_K - C_L||_F, R)`` per member of operator stacks ``k`` and ``l``.

    ``k`` is an ``(n, N, d, d)`` and ``l`` an ``(n, M, d, d)`` complex array.
    R is the triangular factor of ``W = [vec K_1 ... vec K_N | vec L_1 ...
    vec L_M]``; its leading N x N block is the R of the K vecs alone. The
    distance is ``||R J R^dagger||_F``, never the Gram expansion, which
    cancels catastrophically (to about 1e-7 at d = 32) exactly where
    channels are equal. Bitwise equal sets are exactly 0.0
    apart, which QR roundoff would not give. A member whose distance
    overflows (its entries are finite) is factored again scaled by
    ``2^-e`` (``linalg._scaled``), so its R is that of ``2^-e W``, and its
    distance is scaled back by ``2^2e``. Overflow warnings are silenced,
    so that a caller's finiteness check is all a user sees.
    """
    n, n_k, d, _ = k.shape
    if l.shape[2:] != (d, d):
        raise ValueError(f"dimension mismatch: {d} vs {l.shape[-1]}")
    same = (k == l).all(axis=(1, 2, 3)).tolist() if k.shape == l.shape else [False] * n
    # w[t, j, i, a] = op_a[i, j]: each W row is vec index i + d j, column-stacking
    w = np.empty((n, d, d, n_k + l.shape[1]), dtype=np.complex128)
    w[..., :n_k], w[..., n_k:] = k.transpose(0, 3, 2, 1), l.transpose(0, 3, 2, 1)
    signs = np.where(np.arange(w.shape[-1]) < n_k, 1.0, -1.0)

    def factor(w):
        r = np.linalg.qr(w.reshape(n, d * d, -1), mode="r")
        return r, _frobenius_norms((r * signs) @ r.conj().swapaxes(-1, -2))

    with np.errstate(over="ignore", invalid="ignore"):
        r, distances = factor(w)
        if not all(map(math.isfinite, distances)):
            w, e = _scaled(~np.isfinite(distances), w)
            r, distances = factor(w)
            distances = np.ldexp(distances, 2 * e).tolist()
    return [0.0 if eq else x for eq, x in zip(same, distances)], r


def choi_distance(k: KrausSet, l: KrausSet) -> float:
    """Frobenius distance between Choi matrices; a metric on channels.

    Evaluated in factored form (see the module docstring). Bitwise
    identical operator stacks give exactly 0.0.
    """
    return _factored_chois(k.ops[None], l.ops[None])[0][0]


def channels_equal(k: KrausSet, l: KrausSet, tol: float = CHANNEL_EQUALITY_TOL) -> bool:
    """Whether two Kraus sets define the same map on every input state.

    Decided through the Choi distance, which is complete: no sampling of
    input states is involved, and sets of different rank compare fine.
    """
    return choi_distance(k, l) <= tol


def matrix_units(d: int) -> list:
    """The d^2 matrix units E_ij in row-major (i, j) order."""
    units = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            units.append(e)
    return units


def apply_to_matrix_units(k: KrausSet) -> list:
    """Channel action on every matrix unit, row-major order.

    By linearity this list determines the channel completely, so it serves
    as an independent brute-force cross-check of the Choi oracle.
    """
    return [apply_kraus(k.ops, e) for e in matrix_units(k.dim)]


def random_kraus_set(dim: int, rank: int, seed) -> KrausSet:
    """Haar-random trace-preserving channel with the requested rank.

    Its operators are the d x d blocks of the first d columns of a Haar
    unitary of size ``rank * dim``. Only those columns are factored, and they
    are the full unitary's (``linalg._haar_unitaries``). They form an isometry,
    so the completeness sum is the identity up to QR roundoff.
    """
    if dim < 1 or rank < 1:
        raise ValueError("dim and rank must be >= 1")
    ops = _readonly(_random_kraus_ops(dim, rank, [seed])[0])
    return _trusted(KrausSet, ops=ops, trace_preserving=True)


def _random_kraus_ops(dim: int, rank: int, seeds) -> np.ndarray:
    """The operators of :func:`random_kraus_set` per seed, ``(n, rank, dim, dim)``.

    Every set passes ``KrausSet``'s completeness gate here, so callers wrap
    the operators without checking them again.
    """
    ops = _haar_unitaries(rank * dim, seeds, dim).reshape(len(seeds), rank, dim, dim)
    _check_gram(ops, COMPLETENESS_TOL, _INCOMPLETE)
    return ops
