import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from covchan.channels import (
    DensityMatrix,
    KrausSet,
    _kraus_images,
    completeness_defect,
    random_kraus_set,
)
from covchan.covariance import (
    FrameTransform,
    MixingUnitary,
    Verdict,
    conjugate_kraus,
    mix_kraus,
    transform_state,
)
from covchan import linalg
from covchan.linalg import (
    dagger,
    frobenius_distance,
    random_density,
    random_unitary,
    spawn_rng,
)
from covchan.scenario import (
    NULL_BRANCH_PROB,
    Intervention,
    ScenarioConfig,
    Target,
    embed_local,
    run_scenario,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

BELL = DensityMatrix.from_state_vector([1.0, 0.0, 0.0, 1.0])
Z_MEAS = KrausSet([P0, P1])
IDENT4 = FrameTransform(np.eye(4))


def _product_frame(a, b):
    return FrameTransform(np.kron(a, b))


class TestEmbedLocal:
    def test_identity_embeds_to_identity(self):
        out = embed_local(KrausSet([I2]), Target.SUBSYSTEM_A, 2, 2)
        assert np.allclose(out.ops[0], np.eye(4))

    def test_subsystem_a_tensors_on_the_right(self):
        out = embed_local(KrausSet([X]), Target.SUBSYSTEM_A, 2, 2)
        assert np.allclose(out.ops[0], np.kron(X, I2))

    def test_subsystem_b_tensors_on_the_left(self):
        out = embed_local(KrausSet([X]), Target.SUBSYSTEM_B, 2, 2)
        assert np.allclose(out.ops[0], np.kron(I2, X))

    def test_joint_passthrough(self):
        k = random_kraus_set(4, 2, 0)
        assert embed_local(k, Target.JOINT, 2, 2) is k

    def test_completeness_preserved(self):
        for trial in range(30):
            k = random_kraus_set(2, 3, spawn_rng(97, trial))
            out = embed_local(k, Target.SUBSYSTEM_A, 2, 3)
            assert completeness_defect(out) <= 1e-10

    @pytest.mark.parametrize("target", list(Target))
    def test_stored_as_the_checked_constructor_stores(self, target):
        local = {Target.SUBSYSTEM_A: 2, Target.SUBSYSTEM_B: 3, Target.JOINT: 6}[target]
        out = embed_local(random_kraus_set(local, 3, spawn_rng(101, local)), target, 2, 3)
        for a, b in zip(out.ops, KrausSet(out.ops).ops, strict=True):
            assert a.dtype == np.complex128 and a.shape == (6, 6)
            assert a.flags.c_contiguous and not a.flags.writeable
            assert np.array_equal(a, b)
        assert completeness_defect(out) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="subsystem"):
            embed_local(KrausSet([np.eye(3)]), Target.SUBSYSTEM_A, 2, 2)
        with pytest.raises(ValueError, match="joint"):
            embed_local(KrausSet([I2]), Target.JOINT, 2, 2)
        with pytest.raises(ValueError, match=r"subsystem B \(2\)"):
            embed_local(KrausSet([np.eye(3)]), Target.SUBSYSTEM_B, 2, 2)


class TestInterventionValidation:
    def test_requires_trace_preserving_branches(self):
        branch = KrausSet([P0], trace_preserving=False)
        with pytest.raises(ValueError, match="trace-preserving"):
            Intervention(label="half", kraus=branch, target=Target.SUBSYSTEM_A)

    def test_rejects_both_mixing_and_override(self):
        with pytest.raises(ValueError, match="not both"):
            Intervention(
                label="conflict",
                kraus=Z_MEAS,
                target=Target.SUBSYSTEM_A,
                mixing=MixingUnitary(np.eye(2)),
                sprime_kraus=Z_MEAS,
            )

    def test_rejects_mixing_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            Intervention(
                label="bad",
                kraus=Z_MEAS,
                target=Target.SUBSYSTEM_A,
                mixing=MixingUnitary(np.eye(3)),
            )

    def test_rejects_override_branch_count_mismatch(self):
        with pytest.raises(ValueError, match="branches"):
            Intervention(
                label="bad",
                kraus=Z_MEAS,
                target=Target.SUBSYSTEM_A,
                sprime_kraus=KrausSet([I2]),
            )

    def test_rejects_override_dimension_mismatch(self):
        three = KrausSet([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        with pytest.raises(ValueError) as exc:
            Intervention(
                label="z", kraus=Z_MEAS, target=Target.SUBSYSTEM_A, sprime_kraus=three
            )
        assert str(exc.value) == (
            "intervention 'z': frame-S' set dimension 3 does not match 2"
        )

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_requires_trace_preserving_frame_sprime_set(self, scale):
        branches = KrausSet([P0, scale * P1], trace_preserving=False)
        with pytest.raises(ValueError, match="frame-S' branches must jointly form"):
            Intervention(
                label="z", kraus=Z_MEAS, target=Target.SUBSYSTEM_A, sprime_kraus=branches
            )


class TestScenarioConfigValidation:
    @pytest.mark.parametrize("dim_a, dim_b", [(0, 4), (4, 0)])
    def test_rejects_nonpositive_subsystem_dim(self, dim_a, dim_b):
        with pytest.raises(ValueError, match="subsystem dimensions must be >= 1"):
            ScenarioConfig(
                initial_state=BELL,
                dim_a=dim_a,
                dim_b=dim_b,
                frame=IDENT4,
                interventions=(),
            )

    def test_rejects_state_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim_a"):
            ScenarioConfig(
                initial_state=DensityMatrix(np.eye(2) / 2.0),
                dim_a=2,
                dim_b=2,
                frame=IDENT4,
                interventions=(),
            )

    def test_rejects_frame_dim_mismatch(self):
        with pytest.raises(ValueError, match="frame"):
            ScenarioConfig(
                initial_state=BELL,
                dim_a=2,
                dim_b=2,
                frame=FrameTransform(I2),
                interventions=(),
            )

    def test_rejects_target_dim_mismatch(self):
        iv = Intervention(label="joint", kraus=Z_MEAS, target=Target.JOINT)
        with pytest.raises(ValueError, match="target"):
            ScenarioConfig(
                initial_state=BELL, dim_a=2, dim_b=2, frame=IDENT4, interventions=(iv,)
            )


class TestBellFixture:
    def test_branch_probabilities_both_frames(self):
        iv = Intervention(label="z", kraus=Z_MEAS, target=Target.SUBSYSTEM_A)
        frame = _product_frame(H, random_unitary(2, 1))
        res = run_scenario(
            ScenarioConfig(
                initial_state=BELL, dim_a=2, dim_b=2, frame=frame, interventions=(iv,)
            )
        )
        rec = res.interventions[0]
        for p in (*rec.probabilities_s, *rec.probabilities_sprime):
            assert p == pytest.approx(0.5, abs=1e-12)
        assert res.covariance_defect <= 1e-12
        assert res.verdict is Verdict.COVARIANT

    def test_collapsed_branch_states(self):
        iv = Intervention(label="z", kraus=Z_MEAS, target=Target.SUBSYSTEM_A)
        res = run_scenario(
            ScenarioConfig(
                initial_state=BELL, dim_a=2, dim_b=2, frame=IDENT4, interventions=(iv,)
            )
        )
        outcome0 = list(res.branches.sequences).index((0,))
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        assert frobenius_distance(res.branches.states[outcome0, 0], want) <= 1e-12

    def test_mixed_branches_keep_statistics(self):
        iv = Intervention(
            label="z",
            kraus=Z_MEAS,
            target=Target.SUBSYSTEM_A,
            mixing=MixingUnitary(H),
        )
        res = run_scenario(
            ScenarioConfig(
                initial_state=BELL, dim_a=2, dim_b=2, frame=IDENT4, interventions=(iv,)
            )
        )
        assert res.probability_defect <= 1e-9
        assert res.state_defect <= 1e-9
        assert res.verdict is Verdict.NONCOVARIANT_COMPATIBLE
        assert res.representation_distance > 1e-3
        # the S' branch states legitimately differ from the S ones
        state_s, state_sp = res.branches.states[0]
        assert frobenius_distance(state_s, state_sp) > 0.1


def test_representation_swap_leaves_statistics_unchanged():
    frame = _product_frame(random_unitary(2, 5), random_unitary(2, 6))
    results = []
    for ops in ([I2 / np.sqrt(2.0), Z / np.sqrt(2.0)], [P0, P1]):
        iv = Intervention(label="dephase", kraus=KrausSet(ops), target=Target.SUBSYSTEM_A)
        results.append(
            run_scenario(
                ScenarioConfig(
                    initial_state=BELL,
                    dim_a=2,
                    dim_b=2,
                    frame=frame,
                    interventions=(iv,),
                )
            )
        )
    a, b = results
    for pa, pb in zip(
        a.interventions[0].probabilities_s, b.interventions[0].probabilities_s
    ):
        assert abs(pa - pb) <= 1e-9
    assert frobenius_distance(a.final_state_s.mat, b.final_state_s.mat) <= 1e-9
    assert frobenius_distance(a.final_state_sprime.mat, b.final_state_sprime.mat) <= 1e-9
    assert max(a.covariance_defect, b.covariance_defect) <= 1e-9


class TestRandomScenarios:
    def test_covariant_choice_always_agrees(self):
        for trial in range(60):
            state = DensityMatrix(random_density(4, spawn_rng(101, trial, 0)))
            frame = FrameTransform(random_unitary(4, spawn_rng(101, trial, 1)))
            interventions = []
            for j in range(1 + trial % 3):
                target = (Target.SUBSYSTEM_A, Target.SUBSYSTEM_B, Target.JOINT)[
                    (trial + j) % 3
                ]
                d = 4 if target is Target.JOINT else 2
                interventions.append(
                    Intervention(
                        label=f"step-{j}",
                        kraus=random_kraus_set(d, 2, spawn_rng(101, trial, 2, j)),
                        target=target,
                    )
                )
            res = run_scenario(
                ScenarioConfig(
                    initial_state=state,
                    dim_a=2,
                    dim_b=2,
                    frame=frame,
                    interventions=tuple(interventions),
                )
            )
            assert res.covariance_defect <= 1e-9
            assert res.verdict is Verdict.COVARIANT
            for rec in res.interventions:
                for probs in (rec.probabilities_s, rec.probabilities_sprime):
                    assert all(-1e-10 <= p <= 1.0 + 1e-10 for p in probs)
                    assert abs(sum(probs) - 1.0) <= 1e-8

    def test_commuting_local_interventions_order_insensitive(self):
        # A then B against B then A, with unequal ranks under a product frame:
        # marginals, leaf probabilities, leaf states and final states agree
        # in both frames
        for trial in range(20):
            state = DensityMatrix(random_density(4, spawn_rng(103, trial, 0)))
            ka = random_kraus_set(2, 2, spawn_rng(103, trial, 1))
            kb = random_kraus_set(2, 3, spawn_rng(103, trial, 2))
            frame = _product_frame(
                random_unitary(2, spawn_rng(103, trial, 3)),
                random_unitary(2, spawn_rng(103, trial, 4)),
            )
            iv_a = Intervention(label="a", kraus=ka, target=Target.SUBSYSTEM_A)
            iv_b = Intervention(label="b", kraus=kb, target=Target.SUBSYSTEM_B)
            res_ab, res_ba = (
                run_scenario(
                    ScenarioConfig(
                        initial_state=state,
                        dim_a=2,
                        dim_b=2,
                        frame=frame,
                        interventions=order,
                    )
                )
                for order in ((iv_a, iv_b), (iv_b, iv_a))
            )
            for rec_ab, rec_ba in zip(res_ab.interventions, reversed(res_ba.interventions)):
                assert rec_ab.label == rec_ba.label
                for probs_ab, probs_ba in (
                    (rec_ab.probabilities_s, rec_ba.probabilities_s),
                    (rec_ab.probabilities_sprime, rec_ba.probabilities_sprime),
                ):
                    assert np.allclose(probs_ab, probs_ba, rtol=0.0, atol=1e-12)
            ab, ba = res_ab.branches, res_ba.branches
            leaves_ba = {seq[::-1]: i for i, seq in enumerate(ba.sequences)}
            assert len(ab) == len(leaves_ba) == 6
            for i, seq in enumerate(ab.sequences):
                j = leaves_ba[seq]
                assert np.allclose(
                    ab.probabilities[i], ba.probabilities[j], rtol=0.0, atol=1e-12
                )
                for a, b in zip(ab.states[i], ba.states[j]):
                    assert frobenius_distance(a, b) <= 1e-12
            for a, b in (
                (res_ab.final_state_s, res_ba.final_state_s),
                (res_ab.final_state_sprime, res_ba.final_state_sprime),
            ):
                assert frobenius_distance(a.mat, b.mat) <= 1e-12
            assert max(res_ab.covariance_defect, res_ba.covariance_defect) <= 1e-12


def test_null_branch_reported_as_none():
    state = DensityMatrix.from_state_vector([1.0, 0.0, 0.0, 0.0])
    iv = Intervention(label="z", kraus=Z_MEAS, target=Target.SUBSYSTEM_A)
    res = run_scenario(
        ScenarioConfig(
            initial_state=state, dim_a=2, dim_b=2, frame=IDENT4, interventions=(iv,)
        )
    )
    dead = list(res.branches.sequences).index((1,))
    assert res.branches.probabilities[dead, 0] <= 1e-12
    assert not res.branches.live[dead].any()
    assert np.isnan(res.branches.states[dead]).all()


class TestBranchCap:
    """The outcome tree stops at 65536 branches."""

    # d = 1: one branch keeps the whole state, the other is always null
    KEEP_OR_DROP = KrausSet([np.ones((1, 1)), np.zeros((1, 1))])

    def _config(self, n_interventions):
        iv = Intervention(label="m", kraus=self.KEEP_OR_DROP, target=Target.JOINT)
        return ScenarioConfig(
            initial_state=DensityMatrix(np.ones((1, 1))),
            dim_a=1,
            dim_b=1,
            frame=FrameTransform(np.ones((1, 1))),
            interventions=(iv,) * n_interventions,
        )

    def test_tree_at_the_cap(self):
        res = run_scenario(self._config(16))
        assert len(res.branches) == 65536
        sequences = list(res.branches.sequences)
        assert sequences == list(itertools.product((0, 1), repeat=16))
        assert res.branches.probabilities[0].tolist() == [1.0, 1.0]
        assert res.branches.live[0].all()
        assert not res.branches.live[1:].any()
        assert res.verdict is Verdict.COVARIANT

    def test_tree_over_the_cap(self):
        with pytest.raises(ValueError, match="65536 branches"):
            run_scenario(self._config(17))


def test_empty_interventions_transforms_initial_state():
    frame = _product_frame(H, H)
    res = run_scenario(
        ScenarioConfig(
            initial_state=BELL, dim_a=2, dim_b=2, frame=frame, interventions=()
        )
    )
    want = frame.mat @ BELL.mat @ frame.mat.conj().T
    assert frobenius_distance(res.final_state_sprime.mat, want) <= 1e-12
    assert res.covariance_defect <= 1e-12
    assert res.verdict is Verdict.COVARIANT


def test_single_branch_override_mismatch_is_incompatible():
    ident = KrausSet([I2])
    rotated = KrausSet([random_unitary(2, 77)])
    iv = Intervention(
        label="kick", kraus=ident, target=Target.SUBSYSTEM_A, sprime_kraus=rotated
    )
    res = run_scenario(
        ScenarioConfig(
            initial_state=BELL, dim_a=2, dim_b=2, frame=IDENT4, interventions=(iv,)
        )
    )
    assert res.covariance_defect > 1e-9
    assert res.verdict is Verdict.INCOMPATIBLE
    # probabilities cannot distinguish the single branch; the state does
    assert res.probability_defect <= 1e-12
    assert res.state_defect > 1e-3


def _weak_measurement(d, p, trial):
    """A weak measurement whose first branch has probability p on U e_0.

    K0 = U diag(sqrt p, sqrt 1/2, ...) U^dagger and K1 = U diag(sqrt(1 - p),
    sqrt 1/2, ...) U^dagger act on the pure state U e_0, under the identity
    frame.
    """
    u = random_unitary(d, spawn_rng(11, d, trial))
    ops = [(u * [np.sqrt(q), *[np.sqrt(0.5)] * (d - 1)]) @ dagger(u) for q in (p, 1 - p)]
    iv = Intervention(label="weak", kraus=KrausSet(ops), target=Target.JOINT)
    return ScenarioConfig(
        initial_state=DensityMatrix.from_state_vector(u[:, 0]),
        dim_a=d,
        dim_b=1,
        frame=FrameTransform(np.eye(d)),
        interventions=(iv,),
    )


def _renormalized(mat, prob):
    """One leaf's state as the runner built it leaf by leaf (the reference)."""
    if prob <= NULL_BRANCH_PROB:
        return None
    state = mat / prob
    return 0.5 * (state + dagger(state))


def _leaf_stacks(cfg):
    """Both frames' unnormalized leaves, in outcome-sequence order."""
    d = cfg.initial_state.dim
    leaves_s = cfg.initial_state.mat[None]
    leaves_sp = transform_state(cfg.initial_state, cfg.frame).mat[None]
    for iv in cfg.interventions:
        k = embed_local(iv.kraus, iv.target, cfg.dim_a, cfg.dim_b)
        l = conjugate_kraus(k, cfg.frame)
        if iv.mixing is not None:
            l = mix_kraus(l, iv.mixing)
        leaves_s = _kraus_images(k.ops, leaves_s).reshape(-1, d, d)
        leaves_sp = _kraus_images(l.ops, leaves_sp).reshape(-1, d, d)
    return leaves_s, leaves_sp


class TestLeafStates:
    """Leaf states validated as one stack are bitwise the leaf-by-leaf ones."""

    def _assert_matches_reference(self, cfg):
        res = run_scenario(cfg)
        leaves = np.stack(_leaf_stacks(cfg), axis=1)
        branches = res.branches
        assert len(branches) == len(leaves)
        assert not branches.states.flags.writeable
        live = 0
        for states, mats, probs in zip(branches.states, leaves, branches.probabilities):
            for state, mat, prob in zip(states, mats, probs.tolist()):
                want = _renormalized(mat, prob)
                if want is None:
                    assert np.isnan(state).all()
                    continue
                live += 1
                assert np.array_equal(state, want)
        assert live == branches.live.sum()
        return res, live

    def test_d16_tree_with_null_leaves(self):
        proj = KrausSet([np.diag(e).astype(complex) for e in np.eye(4)])
        ivs = (
            Intervention("z on A", proj, Target.SUBSYSTEM_A),
            Intervention("z on A again", proj, Target.SUBSYSTEM_A),
            Intervention("k on B", random_kraus_set(4, 4, 61), Target.SUBSYSTEM_B),
            Intervention(
                "k on A",
                random_kraus_set(4, 4, 62),
                Target.SUBSYSTEM_A,
                mixing=MixingUnitary(random_unitary(4, 63)),
            ),
        )
        cfg = ScenarioConfig(
            initial_state=DensityMatrix.from_state_vector(np.eye(4).ravel()),
            dim_a=4,
            dim_b=4,
            frame=_product_frame(random_unitary(4, 64), random_unitary(4, 65)),
            interventions=ivs,
        )
        res, live = self._assert_matches_reference(cfg)
        assert len(res.branches) == 256
        # repeating the projective measurement nulls 12 of every 16 sequences
        assert live == 2 * 64
        assert (~res.branches.live).sum(axis=0).tolist() == [192, 192]

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("p", [1.5e-12, 1.5e-11, 1.5e-10, 1.5e-9])
    def test_weak_measurement_leaf_is_reported_as_computed(self, d, p):
        # renormalizing by 1 / p magnifies rounding to order eps / p, past any
        # fixed state tolerance; the leaf is reported as computed
        for trial in range(10):
            res, live = self._assert_matches_reference(_weak_measurement(d, p, trial))
            assert res.verdict is Verdict.COVARIANT
            assert live == 4

    def test_d1_tree_at_the_cap(self):
        keep_or_drop = KrausSet([np.ones((1, 1)), np.zeros((1, 1))])
        iv = Intervention(label="m", kraus=keep_or_drop, target=Target.JOINT)
        cfg = ScenarioConfig(
            initial_state=DensityMatrix(np.ones((1, 1))),
            dim_a=1,
            dim_b=1,
            frame=FrameTransform(np.ones((1, 1))),
            interventions=(iv,) * 16,
        )
        res, live = self._assert_matches_reference(cfg)
        assert len(res.branches) == 65536
        assert live == 2


def _table_configs():
    """Trees for the leaf table: none, mixed ranks with null leaves, the cap."""
    repeated_z = KrausSet([P0, P1])
    mixed_ranks = ScenarioConfig(
        initial_state=DensityMatrix(random_density(4, 71)),
        dim_a=2,
        dim_b=2,
        frame=_product_frame(random_unitary(2, 72), random_unitary(2, 73)),
        interventions=(
            Intervention("z on A", repeated_z, Target.SUBSYSTEM_A),
            Intervention("k on B", random_kraus_set(2, 3, 74), Target.SUBSYSTEM_B),
            Intervention("z on A again", repeated_z, Target.SUBSYSTEM_A),
        ),
    )
    keep_or_drop = Intervention("m", TestBranchCap.KEEP_OR_DROP, Target.JOINT)
    return {
        "no-interventions": ScenarioConfig(BELL, 2, 2, IDENT4, ()),
        "mixed-ranks": mixed_ranks,
        "d1-at-the-cap": ScenarioConfig(
            DensityMatrix(np.ones((1, 1))), 1, 1, FrameTransform(np.ones((1, 1))),
            (keep_or_drop,) * 16,
        ),
    }


class TestBranchTable:
    """``ScenarioResult.branches`` is one read-only table, one row per leaf."""

    @pytest.mark.parametrize("case", sorted(_table_configs()))
    def test_columns(self, case):
        cfg = _table_configs()[case]
        branches = run_scenario(cfg).branches
        counts = [iv.kraus.rank for iv in cfg.interventions]
        n, d = math.prod(counts), cfg.initial_state.dim
        assert len(branches) == n
        assert branches.counts.tolist() == counts
        assert list(branches.sequences) == list(itertools.product(*map(range, counts)))
        assert branches.probabilities.shape == branches.live.shape == (n, 2)
        assert branches.states.shape == (n, 2, d, d)
        live = branches.live
        assert np.array_equal(live, ~(branches.probabilities <= NULL_BRANCH_PROB))
        for column in (branches.counts, branches.probabilities, live, branches.states):
            assert not column.flags.writeable
        assert np.isnan(branches.states[~live]).all()
        leaves = np.stack(_leaf_stacks(cfg), axis=1)[live]
        want = [_renormalized(m, p) for m, p in zip(leaves, branches.probabilities[live])]
        assert np.array_equal(branches.states[live], np.array(want))

    def test_no_interventions_is_one_empty_sequence(self):
        branches = run_scenario(_table_configs()["no-interventions"]).branches
        assert list(branches.sequences) == [()]
        assert branches.live.tolist() == [[True, True]]

    def test_mixed_ranks_have_null_leaves_in_both_frames(self):
        branches = run_scenario(_table_configs()["mixed-ranks"]).branches
        # z on A twice nulls the sequences whose two z outcomes differ
        null = [a != b for a, _, b in branches.sequences]
        assert (~branches.live).tolist() == [[x, x] for x in null]

    def test_sequences_start_afresh_on_each_read(self):
        branches = run_scenario(_table_configs()["mixed-ranks"]).branches
        assert list(branches.sequences) == list(branches.sequences)


def _epr_tree(local, n_meas, variant=None, seed=91):
    """A maximally entangled ``local x local`` pair under ``n_meas`` projective
    measurements, alternately on A and B, with a random frame; ``variant``
    "mixing" or "sprime" changes the second frame's set for one measurement."""
    rng = lambda *path: spawn_rng(seed, local, n_meas, *path)  # noqa: E731
    psi = np.eye(local).ravel() / np.sqrt(local)
    ivs = []
    for m in range(n_meas):
        u = random_unitary(local, rng(1, m))
        proj = KrausSet([np.outer(u[:, i], u[:, i].conj()) for i in range(local)])
        extra = {}
        if m == n_meas // 2 and variant == "mixing":
            extra["mixing"] = MixingUnitary(random_unitary(local, rng(2, m)))
        if m == n_meas // 2 and variant == "sprime":
            v = random_unitary(local, rng(3, m))
            extra["sprime_kraus"] = KrausSet([np.outer(c, c.conj()) for c in v.T])
        target = (Target.SUBSYSTEM_A, Target.SUBSYSTEM_B)[m % 2]
        ivs.append(Intervention(f"m{m}", proj, target, **extra))
    d = local * local
    return ScenarioConfig(
        initial_state=DensityMatrix.from_state_vector(psi),
        dim_a=local,
        dim_b=local,
        frame=FrameTransform(random_unitary(d, rng(0))),
        interventions=tuple(ivs),
    )


class TestTableInPlace:
    """The leaf table is allocated once and every level grows inside it."""

    @pytest.mark.parametrize(
        "local, n_meas", [(2, 16), (4, 6)], ids=["bell-65536", "d16-4096"]
    )
    def test_traced_peak_is_near_the_table(self, local, n_meas):
        # the table is the one full-size array; every temporary is a block
        cfg = _epr_tree(local, n_meas)
        tracemalloc.start()
        try:
            res = run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.branches) == local**n_meas
        assert peak <= 1.5 * res.branches.states.nbytes

    @pytest.mark.parametrize(
        "local, n_meas, variant", [(2, 8, "mixing"), (4, 3, "sprime"), (3, 4, None)]
    )
    def test_split_levels_give_the_same_table(
        self, monkeypatch, local, n_meas, variant
    ):
        cfg = _epr_tree(local, n_meas, variant)
        want = run_scenario(cfg)
        # three d = 4 parents of a binary set per block (one at d = 9 or 16):
        # a block's children overwrite parents of blocks taken before it
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 3 * 2 * 16 * 16)
        got = run_scenario(cfg)
        assert (got.verdict is Verdict.COVARIANT) is (variant is None)
        for name in ("counts", "probabilities", "live", "states"):
            a, b = getattr(got.branches, name), getattr(want.branches, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got.interventions == want.interventions

    def test_overflow_in_a_late_block_names_the_first_label(self, monkeypatch):
        # only the leaves under outcome 0 of the big sets grow: after "m3"
        # those in rows 0 and 4 of 16 overflow, in the last blocks taken
        big = KrausSet([1e70 * P0, P1], completeness_tol=1e300)
        ivs = (
            Intervention("m0", big, Target.SUBSYSTEM_A),
            Intervention("m1", Z_MEAS, Target.SUBSYSTEM_B),
            Intervention("m2", big, Target.SUBSYSTEM_A),
            Intervention("m3", big, Target.SUBSYSTEM_A),
        )
        cfg = ScenarioConfig(BELL, 2, 2, IDENT4, ivs, tol=1e300)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                run_scenario(cfg)
        assert str(exc.value) == (
            "intervention 'm3': branch states overflow; entries must be finite"
        )
