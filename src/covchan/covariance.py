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
global phase. This module checks that rigidity directly, and certifies it
for a search: random candidates plus one closed-form candidate at the
phase-distance floor, where the constrained residual is smallest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .channels import (
    CHANNEL_EQUALITY_TOL,
    COMPLETENESS_TOL,
    DensityMatrix,
    KrausSet,
    _INCOMPLETE,
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
    "N1CheckResult",
    "N1SearchReport",
    "N1Violation",
    "PhaseEquivalence",
    "Verdict",
    "analyze",
    "compatibility_residual",
    "conjugate_kraus",
    "covariant_distance",
    "extract_mixing",
    "make_noncovariant_solution",
    "mix_kraus",
    "n1_covariance_search",
    "n1_uniqueness_check",
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


class PhaseEquivalence(enum.Enum):
    EQUAL_UP_TO_PHASE = "EQUAL_UP_TO_PHASE"
    DIFFERENT = "DIFFERENT"


@dataclass(frozen=True)
class N1CheckResult:
    """Single-operator comparison: equal up to a global phase, or a witness.

    phase: the aligning unit scalar c (only when equal up to phase).
    distance: ``min_c || L - c K ||_F`` over unit-modulus c.
    witness / witness_distance: a state whose images under the two maps
    differ by more than the tolerance (only when DIFFERENT).
    """

    verdict: PhaseEquivalence
    distance: float
    phase: complex | None = None
    witness: DensityMatrix | None = None
    witness_distance: float | None = None


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


def _witness_states(d: int):
    # d^2 pure states spanning the Hermitian matrices: basis states plus
    # two superpositions per pair. Complete by linearity, so two unitary
    # conjugations that agree on all of them are the same channel.
    e = np.eye(d, dtype=np.complex128)
    pairs = [e[i] + c * e[j] for i in range(d) for j in range(i + 1, d) for c in (1, 1j)]
    return np.array([*e, *(p / np.sqrt(2.0) for p in pairs)])


def _single_operator(mat, name: str, tol: float) -> np.ndarray:
    """``mat`` checked as the one operator of a trace-preserving set.

    Its unitarity defect is its completeness defect, so it gets
    ``parse_kraus_set``'s completeness gate at ``tol``, with its error
    prefixed by ``name``.
    """
    mat = _as_square(mat, name)
    _check_gram(mat[None, None], max(COMPLETENESS_TOL, tol), f"{name}: {_INCOMPLETE}")
    return mat


def n1_uniqueness_check(k1, l1, tol: float = CHANNEL_EQUALITY_TOL) -> N1CheckResult:
    """Test single-operator rigidity: the sets agree only if L1 = c K1.

    For one-element trace-preserving sets the operators are unitary and the
    usual mixing freedom degenerates to a global phase, so the channels
    coincide exactly when the operators match up to that phase. When they
    do not, a witness state with visibly different images is produced by
    scanning the spanning family of pure states (complete by linearity).
    """
    k1 = _single_operator(k1, "K1", tol)
    l1 = _single_operator(l1, "L1", tol)
    if k1.shape != l1.shape:
        raise ValueError(f"shape mismatch: K1 {k1.shape} vs L1 {l1.shape}")

    distance, phase = phase_aligned_distance(k1, l1)
    if distance <= tol:
        return N1CheckResult(
            verdict=PhaseEquivalence.EQUAL_UP_TO_PHASE,
            distance=distance,
            phase=phase,
        )

    psis = _witness_states(k1.shape[0])
    rhos = psis[:, :, None] * psis[:, None, :].conj()
    images_k = _conjugate(k1, rhos)
    images_l = _conjugate(l1, rhos)
    dists = [frobenius_distance(a, b) for a, b in zip(images_k, images_l)]
    best = int(np.argmax(dists))  # the first of equal maxima
    witness = _output_state(rhos[best])
    return N1CheckResult(
        verdict=PhaseEquivalence.DIFFERENT,
        distance=distance,
        witness=witness,
        witness_distance=dists[best],
    )


@dataclass(frozen=True)
class N1Violation:
    """A search candidate that would falsify single-operator rigidity."""

    residual: float
    phase_distance: float
    candidate: np.ndarray


@dataclass(frozen=True)
class N1SearchReport:
    """Outcome of hunting for a compatible-but-noncovariant single operator.

    min_residual is the smallest compatibility residual seen among
    candidates kept away from the covariant solution (phase distance above
    the floor); infinity when no candidate cleared the floor, as happens
    for scalars where every unitary is a phase. residual_floor is the
    analytic lower bound on it, ``eps * sqrt(2 d - eps^2 / 2)`` for
    ``eps = distance_floor``.
    """

    dim: int
    trials: int
    tol: float
    distance_floor: float
    residual_floor: float
    examined: int
    min_residual: float
    best_phase_distance: float | None
    best_candidate: np.ndarray | None
    violation_count: int = field(init=False)
    violations: tuple

    def __post_init__(self):
        object.__setattr__(self, "violation_count", len(self.violations))


def _rank1_choi_residual(target: np.ndarray, cand: np.ndarray) -> float:
    # The two-column case of the factored Choi distance: the R of
    # [vec target | vec cand] by Gram-Schmidt, then ||R J R^dagger||_F
    # written out for the 2 x 2 R = [[r11, r12], [0, r22]]. Inner products
    # and norms do not depend on the vec ordering, so the matrices are used
    # as they are.
    r11 = math.sqrt(np.vdot(target, target).real)
    r12 = complex(np.vdot(target, cand)) / r11
    rest = cand - (r12 / r11) * target
    r22_sq = np.vdot(rest, rest).real
    r12_sq = abs(r12) ** 2
    corner = r11 * r11 - r12_sq
    return math.sqrt(corner * corner + 2.0 * r12_sq * r22_sq + r22_sq * r22_sq)


def _n1_candidates(target: np.ndarray, trials: int, seed: int):
    # Stacks of candidates: the seeded Haar trials in bounded blocks, then
    # the boundary candidate alone. Two d x d unitaries
    # at phase-aligned distance delta have Choi residual
    # delta * sqrt(2 d - delta^2 / 2), which increases with delta, so the
    # smallest residual the floor allows sits just past it. For
    # C = T diag(e^{i alpha}, e^{-i alpha}, 1, ..., 1), Tr(T^dagger C) =
    # d - 2 + 2 cos(alpha) is real and positive, so the aligning phase is 1
    # and delta = 2 sqrt(2) sin(alpha / 2).
    d = target.shape[0]
    for block in _blocks(trials, 16 * d * d):
        cands = _haar_unitaries(d, [spawn_rng(seed, 0, i) for i in block])
        cands.setflags(write=False)
        yield cands
    if d >= 2:
        delta = PHASE_DISTANCE_FLOOR * (1.0 + 1e-6)
        alpha = 2.0 * math.asin(delta / (2.0 * math.sqrt(2.0)))
        turn = np.ones(d, dtype=np.complex128)
        turn[:2] = np.exp([1j * alpha, -1j * alpha])
        yield (target * turn)[None]


def n1_covariance_search(
    k1,
    f: FrameTransform,
    trials: int,
    seed: int,
    tol: float = CHANNEL_EQUALITY_TOL,
) -> N1SearchReport:
    """Search for a single-operator counterexample to covariance rigidity.

    Examines ``trials`` random unitary candidates for the frame-S' operator
    and, for d >= 2, one closed-form boundary candidate: the target
    ``Lam K1 Lam^dagger`` times ``diag(e^{i alpha}, e^{-i alpha}, 1, ...)``,
    with alpha set so that its phase-aligned distance is just above
    ``PHASE_DISTANCE_FLOOR``. For unitaries the residual grows with that
    distance, so this candidate attains the constrained minimum
    ``residual_floor`` up to rounding. Candidates within the floor count
    as the covariant solution and are skipped. Rigidity predicts the
    minimum stays orders of magnitude above ``tol``; any candidate at or
    below it is recorded as a violation (which would indict this
    implementation, not the math).

    Deterministic in (inputs, trials, seed); candidates are evaluated in a
    fixed order and streams are keyed per trial index. The random
    candidates are drawn as stacks in bounded blocks (a fixed byte budget
    per stack), and each block's phase traces come from one stacked
    product; every candidate's values are bitwise those of drawing and
    comparing it alone, so the report does not depend on the blocking.
    """
    k1 = _single_operator(k1, "K1", tol)
    if k1.shape[0] != f.dim:
        raise ValueError(f"dimension mismatch: K1 {k1.shape[0]} vs frame {f.dim}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    d = f.dim
    target = _conjugate(f.mat, k1)

    min_residual = math.inf
    best_phase_distance = None
    best_candidate = None
    violations = []
    examined = 0
    for cands in _n1_candidates(target, trials, seed):
        traces = np.trace(dagger(target) @ cands, axis1=-2, axis2=-1).tolist()
        for cand, trace in zip(cands, traces):
            examined += 1
            phase_dist, _ = _aligned_distance(target, cand, trace)
            if phase_dist <= PHASE_DISTANCE_FLOOR:
                continue
            residual = _rank1_choi_residual(target, cand)
            if residual < min_residual:
                min_residual = residual
                best_phase_distance = phase_dist
                best_candidate = cand
            if residual <= tol:
                violations.append(N1Violation(residual, phase_dist, cand))

    eps = PHASE_DISTANCE_FLOOR
    return N1SearchReport(
        dim=d,
        trials=trials,
        tol=tol,
        distance_floor=eps,
        residual_floor=eps * math.sqrt(2.0 * d - 0.5 * eps * eps),
        examined=examined,
        min_residual=min_residual,
        best_phase_distance=best_phase_distance,
        best_candidate=best_candidate,
        violations=tuple(violations),
    )


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
