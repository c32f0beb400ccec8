"""Single-operator rigidity: one Kraus operator is fixed up to a global phase.

A trace-preserving set with one element is a unitary, and the mixing
freedom that ``covariance`` enumerates for larger sets collapses for it to
a global phase: the frame-S' operator of a compatible pair must be
``c Lam K1 Lam^dagger`` for a unit scalar c. This module checks that
rigidity directly, naming a witness state when it fails, and certifies it
for a search: random candidates plus one closed-form candidate at the
phase-distance floor, where the constrained residual is smallest. Of the
commands, only ``n1-search`` loads it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    CHANNEL_EQUALITY_TOL,
    COMPLETENESS_TOL,
    DensityMatrix,
    _INCOMPLETE,
    _conjugate,
    _output_state,
)
from .covariance import (
    PHASE_DISTANCE_FLOOR,
    FrameTransform,
    _aligned_distance,
    phase_aligned_distance,
)
from .linalg import (
    _as_square,
    _blocks,
    _check_gram,
    _haar_unitaries,
    dagger,
    frobenius_distance,
    spawn_rng,
)

__all__ = [
    "N1CheckResult",
    "N1SearchReport",
    "N1Violation",
    "PhaseEquivalence",
    "n1_covariance_search",
    "n1_uniqueness_check",
]


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
