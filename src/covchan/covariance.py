"""Frame transforms, compatibility residuals, and the solution family.

The physical question: an observer in frame S describes an evolution with
Kraus set {K_A}; an observer in frame S' uses {L'_A}. States transform
covariantly, ``rho' = Lam rho Lam^dagger``, so the S channel seen from S'
is that of the covariant solution ``Lam K_A Lam^dagger``. The two accounts
are compatible when the S' set gives that channel on every state, which
the Choi oracle decides exactly. Compatibility does NOT force operator
covariance ``L'_A = Lam K_A Lam^dagger`` once the set has more than one
element: mixing the covariant solution by any unitary gives a continuum of
equally compatible sets. With a single element the freedom collapses to a
global phase; ``rigidity`` checks that case, and this module keeps the
phase-aligned distance that it and the rank-1 sweep share.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .channels import (
    CHANNEL_EQUALITY_TOL,
    DensityMatrix,
    KrausSet,
    _conjugate,
    _derived_set,
    _factored_chois,
    _output_state,
    _random_kraus_ops,
    _readonly,
    _trusted,
)
from .linalg import (
    _as_square,
    _blocks,
    _check_gram,
    _haar_unitaries,
    _scaled,
    dagger,
    frobenius_distance,
    spawn_rng,
    unitarity_defect,
)

__all__ = [
    "GRAM_MIN_EIGENVALUE",
    "PHASE_DISTANCE_FLOOR",
    "UNITARY_TOL",
    "CovarianceReport",
    "FrameTransform",
    "MixingUnitary",
    "Verdict",
    "analyze",
    "compatibility_residual",
    "conjugate_kraus",
    "covariant_distance",
    "extract_mixing",
    "make_noncovariant_solution",
    "mix_kraus",
    "phase_aligned_distance",
    "phase_permutation_distance",
    "transform_state",
]

UNITARY_TOL = 1e-10

# Below this smallest Gram eigenvalue, taken as sigma_min(R_K)^2 from the
# QR of the stacked Kraus vecs of the pair as extract_mixing compares it,
# scaled to unit size, the operators count as linearly dependent and no
# mixing is extracted.
GRAM_MIN_EIGENVALUE = 1e-8

# A candidate closer than this to the covariant solution (after optimal
# phase alignment) counts as trivially covariant in searches and sweeps.
PHASE_DISTANCE_FLOOR = 1e-6

# The unitarity error, after the matrix's name, for ``linalg._check_gram``
_NOT_UNITARY = " is not unitary: defect {defect:.3e}"


@dataclass(frozen=True, eq=False)
class _Unitary:
    """A square complex matrix checked unitary within ``unitarity_tol``.

    The check is never tighter than ``UNITARY_TOL``.
    """

    mat: np.ndarray
    unitarity_tol: InitVar[float] = UNITARY_TOL

    _name = "unitary"  # names the matrix in validation errors

    def __post_init__(self, unitarity_tol: float):
        mat = _as_square(self.mat, self._name)
        tol = max(UNITARY_TOL, unitarity_tol)
        _check_gram(mat[None, None], tol, self._name + _NOT_UNITARY)
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True, eq=False)
class FrameTransform(_Unitary):
    """Unitary implementing the change of frame on states and operators."""

    _name = "frame transform"

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class MixingUnitary(_Unitary):
    """N x N unitary reshuffling Kraus elements without changing the channel."""

    _name = "mixing unitary"

    @property
    def rank(self) -> int:
        return self.mat.shape[0]


def _random_unitaries(cls, d: int, seeds) -> np.ndarray:
    """``cls(random_unitary(d, seed)).mat`` for each seed, as one stack."""
    u = _haar_unitaries(d, seeds)
    _check_gram(u[:, None], UNITARY_TOL, cls._name + _NOT_UNITARY)
    return u


class Verdict(enum.Enum):
    """Trichotomy for a two-frame pair of Kraus sets."""

    COVARIANT = "COVARIANT"
    NONCOVARIANT_COMPATIBLE = "NONCOVARIANT_COMPATIBLE"
    INCOMPATIBLE = "INCOMPATIBLE"


@dataclass(frozen=True)
class CovarianceReport:
    """Outcome of comparing frame-S and frame-S' channel descriptions.

    residual: Choi distance from the covariant solution to the S' set;
        zero means the two frames describe the same physical map.
    covariant_distance: worst per-operator distance from the element-wise
        conjugated set, raw (no phase alignment); infinity when the ranks
        differ so no pairing exists.
    """

    residual: float
    covariant_distance: float
    rank: int
    dim: int
    tol: float
    verdict: Verdict


def transform_state(rho: DensityMatrix, f: FrameTransform) -> DensityMatrix:
    """Covariant state map ``rho -> Lam rho Lam^dagger``; spectrum-preserving."""
    if rho.dim != f.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs frame {f.dim}")
    return _output_state(_conjugate(f.mat, rho.mat))


def conjugate_kraus(k: KrausSet, f: FrameTransform) -> KrausSet:
    """Element-wise ``Lam K_A Lam^dagger``: the covariant solution.

    Always compatible with ``k`` across the frame change, whatever the
    rank. Preserves order, rank, and the completeness defect.
    """
    if k.dim != f.dim:
        raise ValueError(f"dimension mismatch: set {k.dim} vs frame {f.dim}")
    return _derived_set(k, lambda: _conjugate(f.mat, k.ops))


def compatibility_residual(k: KrausSet, lprime: KrausSet, f: FrameTransform) -> float:
    """How far the two frame accounts are from describing the same map.

    The Choi distance from the covariant solution ``Lam K_A Lam^dagger`` to
    the S' set. Zero (within tolerance) exactly when
    ``sum_A Lam K_A Lam^dagger rho Lam K_A^dagger Lam^dagger`` and
    ``sum_A L'_A rho L'_A^dagger`` agree for every state, with no sampling
    involved.
    """
    return analyze(k, lprime, f).residual


def mix_kraus(k: KrausSet, v: MixingUnitary) -> KrausSet:
    """``L_A = sum_B V_AB K_B``: same channel for every unitary V.

    This is the whole unitary-freedom family; the channel, the completeness
    sum and all statistics are untouched. The sums are one BLAS product
    (:func:`_mix`), so their last digits follow the BLAS thread count.
    """
    if v.rank != k.rank:
        raise ValueError(f"rank mismatch: mixing {v.rank} vs set {k.rank}")
    return _derived_set(k, lambda: _mix(v.mat, k.ops))


def _mix(v: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``sum_B V_AB K_B`` for one mixing and set, or a stack of them.

    One product with the operators as rows; each member is bitwise its own call.
    """
    return (v @ ops.reshape(*ops.shape[:-2], -1)).reshape(ops.shape)


def make_noncovariant_solution(
    k: KrausSet, f: FrameTransform, v: MixingUnitary
) -> KrausSet:
    """A frame-S' set that is fully compatible yet not operator-covariant.

    Mixes the covariant solution by ``v``. The residual is zero by
    construction for any unitary ``v``; the per-operator covariant distance
    is strictly positive whenever ``v`` is not phase-times-permutation and
    the operators are linearly independent.
    """
    return mix_kraus(conjugate_kraus(k, f), v)


def _mixed_solution_trials(dim: int, rank: int, trials: int, seed: int):
    """Residual, covariant and mixing distance of the mixed solution, per trial.

    Yields one row per trial, in trial order. Trial i draws its set, frame
    and mixing from the streams ``(seed, 0, i)``, ``(seed, 1, i)`` and
    ``(seed, 2, i)`` (``linalg.spawn_rng``), each checked by its
    constructor's gate, and is :func:`make_noncovariant_solution` on them,
    scored by the cores :func:`analyze` runs as one-member cases,
    ``_factored_chois`` and ``_operator_distance`` (or
    :func:`phase_aligned_distance` at rank 1), and by
    :func:`phase_permutation_distance`, so each value is bitwise the public
    function's on that trial alone. Trials are drawn and scored as stacks,
    a block at a time (``linalg._blocks``), each trial budgeted at its
    largest stack, the ``(d^2, 2 rank)`` vecs of ``_factored_chois``; the
    rows do not depend on the blocking. Products of unitary blocks cannot
    overflow, so no finiteness check is needed.
    """
    for block in _blocks(trials, 32 * dim * dim * rank):
        streams = [[spawn_rng(seed, part, i) for i in block] for part in range(3)]
        k = _random_kraus_ops(dim, rank, streams[0])
        f = _random_unitaries(FrameTransform, dim, streams[1])
        v = _random_unitaries(MixingUnitary, rank, streams[2])
        covariant = _conjugate(f[:, None], k)
        lprime = _mix(v, covariant)
        residuals, _ = _factored_chois(covariant, lprime)
        if rank == 1:
            distances = [
                phase_aligned_distance(c[0], l[0])[0] for c, l in zip(covariant, lprime)
            ]
        else:
            distances = _operator_distance(lprime, covariant)
        mixing = [_assignment_distance(row) for row in np.abs(v).tolist()]
        yield from zip(residuals, distances, mixing)


def covariant_distance(k: KrausSet, lprime: KrausSet, f: FrameTransform) -> float:
    """``max_A || L'_A - Lam K_A Lam^dagger ||_F``; inf on rank mismatch."""
    return analyze(k, lprime, f).covariant_distance


def _operator_distance(a: np.ndarray, b: np.ndarray) -> list:
    """``max_A || a_A - b_A ||_F`` per member of two ``(n, N, d, d)`` arrays of sets.

    Infinite when the stacks' N differ, as no pairing exists. A member whose
    distance overflows is measured again scaled by ``2^-e`` (``linalg._scaled``),
    and its distance scaled back by ``2^e``.
    """
    if a.shape[1] != b.shape[1]:
        return [math.inf] * len(a)

    def measure(a, b):
        return [max(map(frobenius_distance, x, y)) for x, y in zip(a, b)]

    with np.errstate(over="ignore", invalid="ignore"):
        distances = measure(a, b)
        if not all(map(math.isfinite, distances)):
            a, b, e = _scaled(~np.isfinite(distances), a, b)
            distances = np.ldexp(measure(a, b), e).tolist()
    return distances


def _verdict(defect: float, distance: float, tol: float) -> Verdict:
    """Incompatible unless ``defect <= tol``, else covariant if ``distance`` is too."""
    if not defect <= tol:
        return Verdict.INCOMPATIBLE
    if distance <= tol:
        return Verdict.COVARIANT
    return Verdict.NONCOVARIANT_COMPATIBLE


def analyze(
    k: KrausSet,
    lprime: KrausSet,
    f: FrameTransform,
    tol: float = CHANNEL_EQUALITY_TOL,
) -> CovarianceReport:
    """Classify a two-frame pair: covariant, compatible, or incompatible.

    Both numbers are measured from one covariant set ``Lam K_A Lam^dagger``.
    """
    if not (k.dim == lprime.dim == f.dim):
        raise ValueError(f"dimension mismatch: {k.dim}, {lprime.dim}, frame {f.dim}")
    covariant = conjugate_kraus(k, f).ops[None]
    (residual,), _ = _factored_chois(covariant, lprime.ops[None])
    (distance,) = _operator_distance(lprime.ops[None], covariant)
    return CovarianceReport(
        residual=residual,
        covariant_distance=distance,
        rank=k.rank,
        dim=k.dim,
        tol=tol,
        verdict=_verdict(residual, distance, tol),
    )


def phase_aligned_distance(k1: np.ndarray, l1: np.ndarray):
    """``(min_c ||l1 - c k1||_F, best c)`` over unit-modulus scalars c.

    The optimum is the phase of ``Tr(k1^dagger l1)``; for orthogonal inputs
    every phase ties and c defaults to 1.
    """
    return _aligned_distance(k1, l1, complex(np.trace(dagger(k1) @ l1)))


def _aligned_distance(k1: np.ndarray, l1: np.ndarray, t: complex):
    """:func:`phase_aligned_distance` given ``t = Tr(k1^dagger l1)``."""
    c = t / abs(t) if abs(t) > 0.0 else 1.0 + 0.0j
    return frobenius_distance(l1, c * k1), c


def phase_permutation_distance(v: MixingUnitary) -> float:
    """Distance from the trivial mixings: phase matrices times permutations.

    ``min over diagonal-phase D and permutation P of || V - D P ||_F``,
    which reduces to the assignment problem ``max_P sum_a |V|_{a, P(a)}``,
    solved exactly for any rank by shortest augmenting paths with dual
    potentials (Kuhn 1955; Jonker and Volgenant 1987) in O(rank^3). The
    chosen entries are summed over rows in order from 0.0, as an
    enumeration of all permutations sums them; where optima tie within
    rounding, that sum can fall a few ulps below the enumeration's largest.
    """
    return _assignment_distance(np.abs(v.mat).tolist())


def _assignment_distance(w: list) -> float:
    """:func:`phase_permutation_distance` from the rows of ``|V|``, on costs ``-|V|``."""
    n = len(w)
    u, v, row = [0.0] * n, [0.0] * (n + 1), [-1] * (n + 1)  # row[j]: column j's row
    for i in range(n):
        row[n], j, free, tree = i, n, list(range(n)), []
        dist, way = [math.inf] * n, [n] * n  # way[c]: the column before c on the path
        while row[j] >= 0:  # a Dijkstra step from the tree to the nearest column
            tree.append(j)
            r, delta = row[j], math.inf
            for c in free:
                cur = -w[r][c] - u[r] - v[c]
                if cur < dist[c]:
                    dist[c], way[c] = cur, j
                if dist[c] < delta:
                    delta, nxt = dist[c], c
            for c in tree:
                u[row[c]] += delta
                v[c] -= delta
            for c in free:
                dist[c] -= delta
            free.remove(nxt)
            j = nxt
        while j != n:  # a free column is reached: flip the path
            row[j], j = row[way[j]], way[j]
    total = 0.0
    for a, c in sorted(zip(row[:n], range(n))):
        total += w[a][c]
    return math.sqrt(max(0.0, 2.0 * (n - total)))


def extract_mixing(
    k: KrausSet, l: KrausSet, tol: float = CHANNEL_EQUALITY_TOL
) -> MixingUnitary | None:
    """Recover the unitary V with ``L_A = sum_B V_AB K_B``, if one exists.

    The pair is first scaled exactly to unit size (``linalg._scaled``: its
    largest real or imaginary part in (0.5, 1]). Every test below then runs
    once, at ``tol``, so ``extract_mixing(2^e K, 2^e L)`` is bitwise
    ``extract_mixing(K, L)`` while the entries stay normal.

    Raises ValueError when the sets define different channels: their Choi
    distance exceeds ``tol``. Solves ``W_L = W_K V^T`` for the stacked vecs
    by QR least squares, reusing the R that decided channel equality: with
    R_K its leading N x N block, ``V^T = R_K^{-1} R[:N, N:]``. Returns None
    when there are more operators than the d^2 dimensions of operator
    space, when ``sigma_min(R_K)^2`` is at most ``GRAM_MIN_EIGENVALUE``
    (linearly dependent Kraus elements), or when the solved V fails
    verification, so a returned V is always correct: unitary within
    ``tol`` and reconstructing every operator within ``tol * rank``.
    """
    if k.rank != l.rank:
        raise ValueError(f"rank mismatch: {k.rank} vs {l.rank}")
    k_ops, l_ops, _ = _scaled([True], k.ops[None], l.ops[None])
    (distance,), (r,) = _factored_chois(k_ops, l_ops)
    if distance > tol:
        raise ValueError(
            "the sets define different channels; no mixing unitary can relate them"
        )
    n = k.rank
    if n > k.dim * k.dim:
        return None
    r_k = r[:n, :n]
    if float(np.linalg.svd(r_k, compute_uv=False)[-1]) ** 2 <= GRAM_MIN_EIGENVALUE:
        return None
    v = np.linalg.solve(r_k, r[:n, n:]).T

    # a non-finite V has a NaN or infinite defect and must fail here
    if not unitarity_defect(v) <= tol:
        return None
    miss = (l_ops[0] - _mix(v, k_ops[0])).reshape(n, -1)
    if not float(np.linalg.norm(miss, axis=1).max()) <= tol * n:
        return None
    return _trusted(MixingUnitary, mat=_readonly(v))
