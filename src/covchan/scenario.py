"""Two-frame runs of sequential interventions on a bipartite state.

One observer evolves the state through a list of selective measurements;
a second observer, related by a unitary frame change, runs the same story
with frame-local operator choices. The runner records branch statistics
and endpoint states in both accounts and measures how far they are from
covariant agreement. The non-selective endpoint must agree whenever the
second observer's sets come from the compatible family (the same
channel). Branch statistics are stricter: they agree for every state
only when each mixing is diagonal phases. Any other mixing, permutations
included, changes the selective branches, and the statistics of that
intervention or of a later one can expose it. The individual
post-branch states are reported, as one table :class:`Branches`, but
never folded into the defect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channels import (
    CHANNEL_EQUALITY_TOL,
    Branches,
    DensityMatrix,
    KrausSet,
    _conjugate,
    _derived_set,
    _readonly,
    _trusted,
)
from .covariance import (
    FrameTransform,
    MixingUnitary,
    Verdict,
    _operator_distance,
    _verdict,
    conjugate_kraus,
    mix_kraus,
    transform_state,
)
from .linalg import _blocks, frobenius_distance

__all__ = [
    "NULL_BRANCH_PROB",
    "Intervention",
    "InterventionRecord",
    "ScenarioConfig",
    "ScenarioResult",
    "Target",
    "embed_local",
    "run_scenario",
]

# Branches at or below this probability are reported as null rather than
# renormalized; dividing by anything smaller is numerically meaningless.
NULL_BRANCH_PROB = 1e-12

_MAX_BRANCHES = 65536


class Target(enum.Enum):
    """Which tensor factor an intervention acts on."""

    SUBSYSTEM_A = "A"
    SUBSYSTEM_B = "B"
    JOINT = "JOINT"


@dataclass(frozen=True)
class Intervention:
    """One measurement step: each Kraus operator is one outcome branch.

    The set as a whole must be trace-preserving (the branches partition
    completeness), and so must ``sprime_kraus``. The frame-S' account uses
    the covariant conjugation by default; ``mixing`` swaps in a mixed
    member of the compatible family, and ``sprime_kraus`` overrides the S'
    operators outright (same local space as ``kraus``), which is how
    deliberately incompatible choices are injected.
    """

    label: str
    kraus: KrausSet
    target: Target
    mixing: MixingUnitary | None = None
    sprime_kraus: KrausSet | None = None

    def __post_init__(self):
        sets = (("branches", self.kraus), ("frame-S' branches", self.sprime_kraus))
        for what, k in sets:
            if k is not None and not k.trace_preserving:
                raise ValueError(
                    f"intervention {self.label!r}: {what} must jointly form a "
                    "trace-preserving set"
                )
        if self.mixing is not None and self.sprime_kraus is not None:
            raise ValueError(
                f"intervention {self.label!r}: give a mixing unitary or an "
                "explicit frame-S' set, not both"
            )
        if self.mixing is not None and self.mixing.rank != self.kraus.rank:
            raise ValueError(
                f"intervention {self.label!r}: mixing rank {self.mixing.rank} "
                f"does not match branch count {self.kraus.rank}"
            )
        if self.sprime_kraus is not None:
            if self.sprime_kraus.dim != self.kraus.dim:
                raise ValueError(
                    f"intervention {self.label!r}: frame-S' set dimension "
                    f"{self.sprime_kraus.dim} does not match {self.kraus.dim}"
                )
            if self.sprime_kraus.rank != self.kraus.rank:
                raise ValueError(
                    f"intervention {self.label!r}: frame-S' set has "
                    f"{self.sprime_kraus.rank} branches, expected {self.kraus.rank}"
                )


@dataclass(frozen=True)
class ScenarioConfig:
    """A bipartite initial state, a frame change, and an intervention list."""

    initial_state: DensityMatrix
    dim_a: int
    dim_b: int
    frame: FrameTransform
    interventions: tuple
    tol: float = CHANNEL_EQUALITY_TOL

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be >= 1")
        d = self.dim_a * self.dim_b
        if self.initial_state.dim != d:
            raise ValueError(
                f"initial state dim {self.initial_state.dim} is not "
                f"dim_a * dim_b = {d}"
            )
        if self.frame.dim != d:
            raise ValueError(f"frame dim {self.frame.dim} is not {d}")
        object.__setattr__(self, "interventions", tuple(self.interventions))
        for iv in self.interventions:
            expected = {
                Target.SUBSYSTEM_A: self.dim_a,
                Target.SUBSYSTEM_B: self.dim_b,
                Target.JOINT: d,
            }[iv.target]
            if iv.kraus.dim != expected:
                raise ValueError(
                    f"intervention {iv.label!r} acts on dim {iv.kraus.dim}, "
                    f"target {iv.target.value} needs dim {expected}"
                )


@dataclass(frozen=True)
class InterventionRecord:
    """Marginal branch probabilities for one intervention, both frames."""

    label: str
    target: Target
    probabilities_s: tuple
    probabilities_sprime: tuple
    probability_defect: float


@dataclass(frozen=True)
class ScenarioResult:
    """Both frame accounts of a scenario plus their disagreement measures.

    covariance_defect is the largest of every branch-probability mismatch
    (marginal and joint) and the endpoint-state mismatch
    ``|| rho'_f - Lam rho_f Lam^dagger ||_F``. representation_distance is
    the worst per-operator distance of the S' sets from the covariant
    conjugates; an S' set always pairs with them one to one, since
    :class:`Intervention` refuses a rank mismatch.
    """

    dim_a: int
    dim_b: int
    interventions: tuple
    branches: Branches
    final_state_s: DensityMatrix
    final_state_sprime: DensityMatrix
    probability_defect: float
    state_defect: float
    covariance_defect: float
    representation_distance: float
    tol: float
    verdict: Verdict


def embed_local(k: KrausSet, target: Target, dim_a: int, dim_b: int) -> KrausSet:
    """Lift a local Kraus set to the joint space, identity on the rest."""
    d = dim_a * dim_b
    if target is Target.JOINT:
        if k.dim != d:
            raise ValueError(f"joint set has dim {k.dim}, expected {d}")
        return k
    if target is Target.SUBSYSTEM_A:
        if k.dim != dim_a:
            raise ValueError(f"set dim {k.dim} does not match subsystem A ({dim_a})")
        return _derived_set(k, lambda: np.kron(k.ops, np.eye(dim_b)))
    if k.dim != dim_b:
        raise ValueError(f"set dim {k.dim} does not match subsystem B ({dim_b})")
    return _derived_set(k, lambda: np.kron(np.eye(dim_a), k.ops))


def _grow(state: np.ndarray, stacks, labels, out: np.ndarray) -> tuple:
    """F frames' accounts of ``state`` evolving through ``stacks`` in turn.

    ``state`` is the ``(F, d, d)`` stack of start states and each of
    ``stacks`` an ``(N, F, d, d)`` stack of operators, frame f's in column
    f. Writes the unnormalized leaves, in outcome-sequence order, into the
    ``(L, F, d, d)`` table ``out``; returns each intervention's ``(F, N)``
    marginals, the traces of the non-selective states' branch images (by
    linearity the true marginals), and the ``(F, d, d)`` final states. Every
    level is built inside ``out``: parent ``p`` of a set with N branches
    has its children in rows ``p N`` to ``p N + N - 1``, so taking the
    parents in blocks (``linalg._blocks``) from the last back to the
    first, a block's images, made before they are written, only ever
    overwrite parents already read. Sets accepted at a loose ``tol`` can
    overflow the products: the first intervention after which any frame's
    leaf, state or marginal is not finite is named, by its label in
    ``labels``, in a ``ValueError``; numpy's overflow warnings are silenced.
    """
    marginals = []
    out[0] = state
    n = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for ops, label in zip(stacks, labels):
            images = _conjugate(ops, state)
            probs = np.trace(images, axis1=-2, axis2=-1).real.T
            marginals.append(probs.tolist())
            state = images.sum(axis=0)
            finite = np.isfinite(state).all() and np.isfinite(probs).all()
            for block in reversed(_blocks(n, len(ops) * state.nbytes)):
                children = _conjugate(ops, out[block.start : block.stop, None])
                finite = finite and np.isfinite(children).all()
                out[block.start * len(ops) : block.stop * len(ops)] = children.reshape(
                    -1, *state.shape
                )
            if not finite:
                raise ValueError(
                    f"intervention {label!r}: branch states overflow; "
                    "entries must be finite"
                )
            n *= len(ops)
    return marginals, state


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run both frame accounts and measure their covariant agreement.

    One :func:`_grow` takes frame S from the initial state through the
    embedded sets and frame S' from its covariant transform through the S'
    sets, into one :class:`Branches` table of joint statistics and states.
    """
    sigma = transform_state(cfg.initial_state, cfg.frame).mat
    stacks = []
    representation_distance = 0.0
    n_branches = 1
    for iv in cfg.interventions:
        k_joint = embed_local(iv.kraus, iv.target, cfg.dim_a, cfg.dim_b)
        covariant = conjugate_kraus(k_joint, cfg.frame)
        l_joint = covariant
        if iv.sprime_kraus is not None:
            l_joint = embed_local(iv.sprime_kraus, iv.target, cfg.dim_a, cfg.dim_b)
        elif iv.mixing is not None:
            l_joint = mix_kraus(covariant, iv.mixing)
        (distance,) = _operator_distance(l_joint.ops[None], covariant.ops[None])
        representation_distance = max(representation_distance, distance)
        n_branches *= k_joint.rank
        if n_branches > _MAX_BRANCHES:
            raise ValueError(
                f"outcome tree exceeds {_MAX_BRANCHES} branches; "
                "trim the intervention list"
            )
        stacks.append(np.stack([k_joint.ops, l_joint.ops], axis=1))

    # the (leaf, frame) table, both frames grown in it together
    states = np.empty((n_branches, 2, *sigma.shape), dtype=np.complex128)
    start = np.stack([cfg.initial_state.mat, sigma])
    labels = [iv.label for iv in cfg.interventions]
    marginals, (rho, sigma) = _grow(start, stacks, labels, states)
    records = tuple(
        InterventionRecord(
            label=iv.label,
            target=iv.target,
            probabilities_s=tuple(probs_s),
            probabilities_sprime=tuple(probs_sp),
            probability_defect=max(abs(p - q) for p, q in zip(probs_s, probs_sp)),
        )
        for iv, (probs_s, probs_sp) in zip(cfg.interventions, marginals)
    )

    # live states are renormalized in place, null ones set to NaN, by blocks
    counts = np.array([iv.kraus.rank for iv in cfg.interventions], dtype=np.intp)
    probs = np.empty((n_branches, 2))
    live = np.empty((n_branches, 2), dtype=bool)
    for block in _blocks(n_branches, states[0].nbytes):
        rows = slice(block.start, block.stop)
        leaves, p, ok = states[rows], probs[rows], live[rows]
        p[:] = np.trace(leaves, axis1=-2, axis2=-1).real
        ok[:] = ~(p <= NULL_BRANCH_PROB)
        leaves[~ok] = np.nan
        np.divide(leaves, p[..., None, None], out=leaves, where=ok[..., None, None])
        leaves += leaves.conj().swapaxes(-1, -2)
        leaves *= 0.5
    for column in (counts, probs, live, states):
        column.setflags(write=False)
    branches = Branches(counts, probs, live, states)

    joint = float(np.abs(probs[:, 0] - probs[:, 1]).max())
    probability_defect = max([joint, *(rec.probability_defect for rec in records)])

    state_defect = frobenius_distance(sigma, _conjugate(cfg.frame.mat, rho))
    covariance_defect = max(probability_defect, state_defect)

    return ScenarioResult(
        dim_a=cfg.dim_a,
        dim_b=cfg.dim_b,
        interventions=records,
        branches=branches,
        final_state_s=_trusted(DensityMatrix, mat=_readonly(rho)),
        final_state_sprime=_trusted(DensityMatrix, mat=_readonly(sigma)),
        probability_defect=probability_defect,
        state_defect=state_defect,
        covariance_defect=covariance_defect,
        representation_distance=representation_distance,
        tol=cfg.tol,
        verdict=_verdict(covariance_defect, representation_distance, cfg.tol),
    )
