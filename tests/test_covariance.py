import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import times_power_of_two
from covchan.channels import (
    CHANNEL_EQUALITY_TOL,
    COMPLETENESS_TOL,
    DensityMatrix,
    KrausSet,
    channels_equal,
    choi_distance,
    choi_matrix,
    completeness_defect,
    random_kraus_set,
)
from covchan.covariance import (
    GRAM_MIN_EIGENVALUE,
    PHASE_DISTANCE_FLOOR,
    UNITARY_TOL,
    CovarianceReport,
    FrameTransform,
    MixingUnitary,
    Verdict,
    analyze,
    compatibility_residual,
    conjugate_kraus,
    covariant_distance,
    extract_mixing,
    make_noncovariant_solution,
    mix_kraus,
    phase_aligned_distance,
    phase_permutation_distance,
    transform_state,
)
from covchan import covariance
from covchan.covariance import _mix, _verdict
from covchan.linalg import (
    _scaled,
    dagger,
    frobenius_distance,
    random_density,
    random_unitary,
    spawn_rng,
    unitarity_defect,
)
from covchan.rigidity import (
    PhaseEquivalence,
    _rank1_choi_residual,
    n1_covariance_search,
    n1_uniqueness_check,
)


def kraus_gram(ops) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix ``G[a, b] = Tr(K_a^dagger K_b)``."""
    w = np.stack([np.ravel(op) for op in ops], axis=1)
    return w.conj().T @ w


I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
S2 = 1.0 / np.sqrt(2.0)

PHASE_DAMPING = KrausSet([S2 * I2, S2 * Z])

# the single-operator gate's error for diag(1, 2), by operator name
N1_GATE = (
    "{}: completeness defect 3.000e+00 exceeds 1.0e-09; "
    "sum of K^dagger K is not the identity"
)
IDENT_FRAME = FrameTransform(I2)


class TestFrameTransform:
    def test_accepts_unitary(self):
        f = FrameTransform(H)
        assert f.dim == 2

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            FrameTransform([[1.0, 0.0], [0.0, 2.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError) as exc:
            FrameTransform(np.ones((2, 3)))
        assert str(exc.value) == "frame transform must be square, got (2, 3)"


class TestMixingUnitary:
    def test_accepts_unitary(self):
        assert MixingUnitary(H).rank == 2

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            MixingUnitary([[1.0, 1.0], [0.0, 1.0]])


class TestTransformState:
    def test_identity_frame(self):
        rho = DensityMatrix(random_density(2, 0))
        out = transform_state(rho, IDENT_FRAME)
        assert frobenius_distance(out.mat, rho.mat) == 0.0

    def test_permutation_frame(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        out = transform_state(rho, FrameTransform(X))
        assert np.allclose(out.mat, np.diag([0.25, 0.75]))

    def test_preserves_spectrum(self):
        for trial in range(50):
            rho = DensityMatrix(random_density(4, spawn_rng(41, trial, 0)))
            f = FrameTransform(random_unitary(4, spawn_rng(41, trial, 1)))
            before = np.sort(np.linalg.eigvalsh(rho.mat))
            after = np.sort(np.linalg.eigvalsh(transform_state(rho, f).mat))
            assert np.max(np.abs(before - after)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            transform_state(DensityMatrix(np.eye(3) / 3.0), IDENT_FRAME)


class TestConjugateKraus:
    def test_identity_frame_is_noop(self):
        out = conjugate_kraus(PHASE_DAMPING, IDENT_FRAME)
        assert all(np.array_equal(a, b) for a, b in zip(out.ops, PHASE_DAMPING.ops))

    def test_hadamard_turns_flip_into_phase(self):
        out = conjugate_kraus(KrausSet([X]), FrameTransform(H))
        assert frobenius_distance(out.ops[0], Z) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError) as exc:
            conjugate_kraus(PHASE_DAMPING, FrameTransform(np.eye(3)))
        assert str(exc.value) == "dimension mismatch: set 2 vs frame 3"

    def test_preserves_completeness_defect(self):
        for trial in range(50):
            k = random_kraus_set(3, 4, spawn_rng(43, trial, 0))
            f = FrameTransform(random_unitary(3, spawn_rng(43, trial, 1)))
            out = conjugate_kraus(k, f)
            assert abs(completeness_defect(out) - completeness_defect(k)) <= 1e-10

    def test_preserves_rank_and_order(self):
        f = FrameTransform(random_unitary(2, 9))
        out = conjugate_kraus(PHASE_DAMPING, f)
        assert out.rank == 2
        assert frobenius_distance(out.ops[0], f.mat @ PHASE_DAMPING.ops[0] @ dagger(f.mat)) == 0.0


class TestCompatibilityResidual:
    def test_covariant_solution_always_compatible(self):
        for trial in range(100):
            d = 2 + trial % 3
            n = 1 + trial % 6
            k = random_kraus_set(d, n, spawn_rng(47, trial, 0))
            f = FrameTransform(random_unitary(d, spawn_rng(47, trial, 1)))
            assert compatibility_residual(k, conjugate_kraus(k, f), f) <= 1e-10

    def test_identity_everything(self):
        assert compatibility_residual(PHASE_DAMPING, PHASE_DAMPING, IDENT_FRAME) == 0.0

    def test_distinct_channels(self):
        got = compatibility_residual(KrausSet([I2]), KrausSet([X]), IDENT_FRAME)
        assert got == pytest.approx(2.0 * np.sqrt(2.0))

    def test_pull_back_equals_push_forward(self):
        # conjugation by a unitary preserves Frobenius distances between
        # Choi matrices, so the residual against the covariant solution
        # equals the S set's distance to the pulled-back S' set, and both
        # equal the dense oracle's
        for d, rank in itertools.product([2, 8, 32], [1, 4, 16]):
            k = random_kraus_set(d, rank, spawn_rng(53, d, rank, 0))
            f = FrameTransform(random_unitary(d, spawn_rng(53, d, rank, 1)))
            back = FrameTransform(dagger(f.mat))
            v = MixingUnitary(random_unitary(rank, spawn_rng(53, d, rank, 2)))
            independent = random_kraus_set(d, rank, spawn_rng(53, d, rank, 3))
            for lp in (independent, make_noncovariant_solution(k, f, v)):
                push = compatibility_residual(k, lp, f)
                pull = choi_distance(k, conjugate_kraus(lp, back))
                dense = frobenius_distance(
                    choi_matrix(conjugate_kraus(k, f)), choi_matrix(lp)
                )
                assert abs(push - pull) <= 1e-12, (d, rank)
                assert abs(push - dense) <= 1e-12, (d, rank)

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_verdict_at_tolerance_matches_dense_oracle(self, d):
        # Scaling K_1 by sqrt(1 + eps) moves the Choi matrix by exactly
        # eps ||K_1||_F^2; the S' set is that perturbed set, conjugated.
        k = random_kraus_set(d, 4, spawn_rng(67, d, 0))
        f = FrameTransform(random_unitary(d, spawn_rng(67, d, 1)))
        tol = CHANNEL_EQUALITY_TOL
        norm_sq = float(np.vdot(k.ops[0], k.ops[0]).real)
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            eps = factor * tol / norm_sq
            ops = [np.sqrt(1.0 + eps) * k.ops[0], *k.ops[1:]]
            perturbed = KrausSet(ops, trace_preserving=False)
            dense = frobenius_distance(choi_matrix(k), choi_matrix(perturbed))
            rep = analyze(k, conjugate_kraus(perturbed, f), f, tol)
            assert abs(rep.residual - dense) <= 1e-12
            assert (dense > tol) == (factor > 1.0)
            assert (rep.verdict is Verdict.INCOMPATIBLE) == (dense > tol)
            assert channels_equal(k, perturbed, tol) == (dense <= tol)


class TestMixKraus:
    def test_identity_mixing_is_noop(self):
        out = mix_kraus(PHASE_DAMPING, MixingUnitary(np.eye(2)))
        assert all(np.allclose(a, b) for a, b in zip(out.ops, PHASE_DAMPING.ops))

    def test_hadamard_mixing_gives_projectors(self):
        out = mix_kraus(PHASE_DAMPING, MixingUnitary(H))
        assert frobenius_distance(out.ops[0], np.diag([1.0, 0.0])) <= 1e-12
        assert frobenius_distance(out.ops[1], np.diag([0.0, 1.0])) <= 1e-12

    def test_channel_unchanged(self):
        for trial in range(100):
            d = 2 + trial % 3
            n = 2 + trial % 3
            k = random_kraus_set(d, n, spawn_rng(59, trial, 0))
            v = MixingUnitary(random_unitary(n, spawn_rng(59, trial, 1)))
            assert choi_distance(mix_kraus(k, v), k) <= 1e-10

    def test_completeness_preserved(self):
        for trial in range(30):
            k = random_kraus_set(3, 4, spawn_rng(61, trial, 0))
            v = MixingUnitary(random_unitary(4, spawn_rng(61, trial, 1)))
            assert completeness_defect(mix_kraus(k, v)) <= 1e-9

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            mix_kraus(PHASE_DAMPING, MixingUnitary(np.eye(3)))


class TestMixKernel:
    """``_mix`` against the sum written out, one operator at a time."""

    @staticmethod
    def _oracle(v, ops):
        out = np.zeros_like(ops)
        for a in range(v.shape[0]):
            for b in range(v.shape[1]):
                out[a] += v[a, b] * ops[b]
        return out

    @staticmethod
    def _draw(shape, *key):
        rng = spawn_rng(71, *key)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 32])
    def test_single_set_is_the_written_out_sum(self, d, n):
        ops = self._draw((n, d, d), d, n, 0)
        v = random_unitary(n, spawn_rng(71, d, n, 1))
        got = _mix(v, ops)
        assert got.shape == ops.shape
        assert np.linalg.norm(got - self._oracle(v, ops)) <= 1e-12 * np.linalg.norm(ops)

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 32])
    def test_stack_rows_are_single_calls(self, d, n):
        ops = self._draw((3, n, d, d), d, n, 2)
        v = np.stack([random_unitary(n, spawn_rng(71, d, n, 3, t)) for t in range(3)])
        got = _mix(v, ops)
        assert got.shape == ops.shape
        for t in range(3):
            single = _mix(v[t], ops[t])
            assert got[t].tobytes() == single.tobytes()
            want = self._oracle(v[t], ops[t])
            assert np.linalg.norm(got[t] - want) <= 1e-12 * np.linalg.norm(ops[t])


class TestMakeNoncovariantSolution:
    def test_identity_mixing_stays_covariant(self):
        f = FrameTransform(random_unitary(2, 3))
        out = make_noncovariant_solution(PHASE_DAMPING, f, MixingUnitary(np.eye(2)))
        assert covariant_distance(PHASE_DAMPING, out, f) <= 1e-12

    def test_hand_fixture_values(self):
        out = make_noncovariant_solution(PHASE_DAMPING, IDENT_FRAME, MixingUnitary(H))
        residual = compatibility_residual(PHASE_DAMPING, out, IDENT_FRAME)
        distance = covariant_distance(PHASE_DAMPING, out, IDENT_FRAME)
        assert residual <= 1e-12
        # max over the pair: || diag(1,0) - I/sqrt(2) ||_F = sqrt(2 - sqrt(2))
        # and || diag(0,1) - Z/sqrt(2) ||_F = sqrt(2 + sqrt(2)); the latter wins
        assert distance == pytest.approx(np.sqrt(2.0 + np.sqrt(2.0)), abs=1e-12)

    def test_always_compatible(self):
        for trial in range(100):
            d = 2 + trial % 3
            n = 2 + trial % 3
            k = random_kraus_set(d, n, spawn_rng(67, trial, 0))
            f = FrameTransform(random_unitary(d, spawn_rng(67, trial, 1)))
            v = MixingUnitary(random_unitary(n, spawn_rng(67, trial, 2)))
            out = make_noncovariant_solution(k, f, v)
            assert compatibility_residual(k, out, f) <= 1e-9


def test_covariant_distance_rank_mismatch_is_infinite():
    split = KrausSet([S2 * I2, S2 * I2])
    assert covariant_distance(KrausSet([I2]), split, IDENT_FRAME) == math.inf


class TestAnalyze:
    def test_covariant_verdict(self):
        f = FrameTransform(random_unitary(2, 11))
        rep = analyze(PHASE_DAMPING, conjugate_kraus(PHASE_DAMPING, f), f)
        assert rep.verdict is Verdict.COVARIANT
        assert rep.rank == 2 and rep.dim == 2

    def test_noncovariant_compatible_verdict(self):
        f = FrameTransform(random_unitary(2, 12))
        lp = make_noncovariant_solution(PHASE_DAMPING, f, MixingUnitary(H))
        rep = analyze(PHASE_DAMPING, lp, f)
        assert rep.verdict is Verdict.NONCOVARIANT_COMPATIBLE
        assert rep.residual <= 1e-9 < rep.covariant_distance

    @pytest.mark.parametrize("kind", ["mixed", "rank mismatch", "overflow"])
    def test_one_conjugation_gives_both_fields(self, monkeypatch, kind):
        f = FrameTransform(random_unitary(2, 12))
        mixed = make_noncovariant_solution(PHASE_DAMPING, f, MixingUnitary(H))
        k, lp, f = {
            "mixed": (PHASE_DAMPING, mixed, f),
            "rank mismatch": (KrausSet([I2]), KrausSet([S2 * I2, S2 * I2]), IDENT_FRAME),
            "overflow": (
                KrausSet([np.full((2, 2), 1e200 + 0j)], trace_preserving=False),
                KrausSet([I2]),
                IDENT_FRAME,
            ),
        }[kind]
        calls = []
        conjugate = covariance.conjugate_kraus
        monkeypatch.setattr(
            covariance, "conjugate_kraus", lambda *args: calls.append(args) or conjugate(*args)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = analyze(k, lp, f)
        assert len(calls) == 1
        # the public functions return analyze's fields, bitwise
        assert compatibility_residual(k, lp, f).hex() == rep.residual.hex()
        assert covariant_distance(k, lp, f).hex() == rep.covariant_distance.hex()

    def test_incompatible_verdict(self):
        rep = analyze(KrausSet([I2]), KrausSet([X]), IDENT_FRAME)
        assert rep.verdict is Verdict.INCOMPATIBLE
        assert rep.residual == pytest.approx(2.0 * np.sqrt(2.0))

    @pytest.mark.parametrize(
        "lprime, f, message",
        [
            (KrausSet([np.eye(3)]), IDENT_FRAME, "dimension mismatch: 2, 3, frame 2"),
            (PHASE_DAMPING, FrameTransform(np.eye(3)), "dimension mismatch: 2, 2, frame 3"),
        ],
        ids=["set", "frame"],
    )
    def test_dimension_mismatch(self, lprime, f, message):
        with pytest.raises(ValueError) as exc:
            analyze(PHASE_DAMPING, lprime, f)
        assert str(exc.value) == message

    def test_verdicts_partition(self):
        for trial in range(60):
            k = random_kraus_set(2, 2, spawn_rng(71, trial, 0))
            f = FrameTransform(random_unitary(2, spawn_rng(71, trial, 1)))
            lp = (
                conjugate_kraus(k, f)
                if trial % 3 == 0
                else make_noncovariant_solution(
                    k, f, MixingUnitary(random_unitary(2, spawn_rng(71, trial, 2)))
                )
                if trial % 3 == 1
                else random_kraus_set(2, 2, spawn_rng(71, trial, 3))
            )
            rep = analyze(k, lp, f, tol=1e-9)
            if rep.residual > 1e-9:
                assert rep.verdict is Verdict.INCOMPATIBLE
            elif rep.covariant_distance <= 1e-9:
                assert rep.verdict is Verdict.COVARIANT
            else:
                assert rep.verdict is Verdict.NONCOVARIANT_COMPATIBLE


class TestVerdictRule:
    @pytest.mark.parametrize(
        "defect, distance, verdict",
        [
            (2e-9, 0.0, Verdict.INCOMPATIBLE),
            (math.inf, 0.0, Verdict.INCOMPATIBLE),
            (1e-9, 1e-9, Verdict.COVARIANT),
            (0.0, 2e-9, Verdict.NONCOVARIANT_COMPATIBLE),
            (0.0, math.inf, Verdict.NONCOVARIANT_COMPATIBLE),
            (-math.inf, 0.0, Verdict.COVARIANT),
            (-math.inf, math.inf, Verdict.NONCOVARIANT_COMPATIBLE),
            # a NaN defect is never within tol; a NaN distance is never covariant
            (math.nan, 0.0, Verdict.INCOMPATIBLE),
            (math.nan, math.nan, Verdict.INCOMPATIBLE),
            (math.inf, math.nan, Verdict.INCOMPATIBLE),
            (0.0, math.nan, Verdict.NONCOVARIANT_COMPATIBLE),
        ],
    )
    def test_three_way_rule(self, defect, distance, verdict):
        assert _verdict(defect, distance, 1e-9) is verdict


def _assert_stored_as(ops, checked):
    """Derived arrays are stored exactly as the checking constructor stores them."""
    assert len(ops) == len(checked)
    for a, b in zip(ops, checked):
        assert a.dtype == np.complex128 and a.shape == b.shape
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, b)


class TestDerivedValues:
    """Sets, frames and mixings computed from checked values."""

    @pytest.mark.parametrize("trial", range(12))
    def test_conjugated_and_mixed_sets(self, trial):
        d, n = 2 + trial % 3, 1 + trial % 4
        k = random_kraus_set(d, n, spawn_rng(83, trial, 0))
        f = FrameTransform(random_unitary(d, spawn_rng(83, trial, 1)))
        v = MixingUnitary(random_unitary(n, spawn_rng(83, trial, 2)))
        for out in (conjugate_kraus(k, f), mix_kraus(k, v)):
            assert out.trace_preserving
            _assert_stored_as(out.ops, KrausSet(out.ops).ops)
            assert completeness_defect(out) <= 1e-12

    def test_selective_set_stays_selective(self):
        branch = KrausSet([np.diag([1.0, 0.0])], trace_preserving=False)
        out = conjugate_kraus(branch, FrameTransform(H))
        assert not out.trace_preserving
        _assert_stored_as(out.ops, KrausSet(out.ops, trace_preserving=False).ops)

    def test_extracted_mixing(self):
        k = random_kraus_set(3, 4, spawn_rng(89, 0))
        v = MixingUnitary(random_unitary(4, spawn_rng(89, 1)))
        got = extract_mixing(k, mix_kraus(k, v))
        _assert_stored_as([got.mat], [MixingUnitary(got.mat).mat])

    def test_non_finite_mixing_is_not_returned(self, monkeypatch):
        # the verification that replaced the constructor must refuse NaN too
        k = random_kraus_set(2, 2, spawn_rng(89, 2))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan))
        assert extract_mixing(k, k) is None

    def test_overflow_in_a_derived_set_is_an_error(self):
        # a selective branch may be arbitrarily large; its conjugate overflows
        big = KrausSet([np.full((2, 2), 1e308)], trace_preserving=False)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="Kraus operator 0: entries must be finite"
        ):
            conjugate_kraus(big, FrameTransform(H))


class TestToleranceEdge:
    """Inputs that pass their own checks are not refused through derived values."""

    def test_frame_and_set_at_their_tolerances(self):
        k = KrausSet([np.diag([np.sqrt(1.0 + 9e-10), 1.0])])
        lam = random_unitary(2, 3) * (1.0 + 3.2e-11)
        f = FrameTransform(lam)
        assert 8e-10 < completeness_defect(k) <= COMPLETENESS_TOL
        assert 8e-11 < unitarity_defect(lam) <= UNITARY_TOL
        # the conjugated set's defect is past the default completeness tolerance
        assert completeness_defect(conjugate_kraus(k, f)) > COMPLETENESS_TOL
        assert analyze(k, k, f).verdict is Verdict.COVARIANT

    def test_frame_at_a_loose_tolerance(self):
        lam = random_unitary(2, 3) * (1.0 + 3e-9)
        f = FrameTransform(lam, unitarity_tol=1e-6)
        assert unitarity_defect(dagger(f.mat)) > UNITARY_TOL
        rep = analyze(KrausSet([I2]), KrausSet([I2]), f, tol=1e-6)
        assert rep.verdict is Verdict.COVARIANT

    def test_constructor_tolerance_never_tightens_the_default(self):
        # defects within the defaults pass whatever tighter tol is asked for
        ops = [np.diag([np.sqrt(1.0 + 5e-10), 1.0])]
        assert completeness_defect(KrausSet(ops, completeness_tol=1e-12)) > 1e-12
        lam = random_unitary(2, 3) * (1.0 + 3e-11)
        assert unitarity_defect(FrameTransform(lam, unitarity_tol=1e-13).mat) > 1e-13
        assert MixingUnitary(lam, unitarity_tol=1e-13).rank == 2
        # and a refusal names the tolerance it checked at
        with pytest.raises(ValueError, match="exceeds 1.0e-09"):
            KrausSet([np.diag([np.sqrt(1.0 + 2e-9), 1.0])], completeness_tol=1e-12)

    # unitarity defect 8.5e-9: accepted at tol 1e-8, and its conjugates carry
    # the scale to the fourth power, past tol as a completeness defect
    EDGE_SETS = [KrausSet([I2]), random_kraus_set(2, 3, 5)]

    @staticmethod
    def _edge_frame():
        return FrameTransform(random_unitary(2, 3) * (1.0 + 3e-9), unitarity_tol=1e-8)

    @pytest.mark.parametrize("k", EDGE_SETS, ids=["identity", "rank3"])
    def test_covariant_solution_at_the_frame_gate(self, k):
        f = self._edge_frame()
        assert 8e-9 < unitarity_defect(f.mat) <= 1e-8
        rep = analyze(k, conjugate_kraus(k, f), f, tol=1e-8)
        assert rep.verdict is Verdict.COVARIANT
        assert rep.residual == 0.0 and rep.covariant_distance == 0.0

    @pytest.mark.parametrize("k", EDGE_SETS, ids=["identity", "rank3"])
    def test_mixed_solution_at_the_frame_gate(self, k):
        f = self._edge_frame()
        v = MixingUnitary(random_unitary(k.rank, 7))
        rep = analyze(k, make_noncovariant_solution(k, f, v), f, tol=1e-8)
        assert rep.verdict is Verdict.NONCOVARIANT_COMPATIBLE
        assert rep.residual <= 1e-15


class TestPhaseAlignedDistance:
    def test_recovers_phase(self):
        u = random_unitary(3, 2)
        c = np.exp(0.77j)
        dist, phase = phase_aligned_distance(u, c * u)
        assert dist <= 1e-12
        assert abs(phase - c) <= 1e-12

    def test_orthogonal_defaults_to_unit_phase(self):
        dist, phase = phase_aligned_distance(I2, X)
        assert phase == 1.0 + 0.0j
        assert dist == pytest.approx(2.0)


class TestN1UniquenessCheck:
    def test_global_phase_is_equal(self):
        res = n1_uniqueness_check(I2, np.exp(1j * np.pi / 4) * I2)
        assert res.verdict is PhaseEquivalence.EQUAL_UP_TO_PHASE
        assert res.distance <= 1e-12
        assert abs(res.phase - np.exp(1j * np.pi / 4)) <= 1e-12
        assert res.witness is None

    def test_flip_is_different_with_witness(self):
        res = n1_uniqueness_check(I2, X)
        assert res.verdict is PhaseEquivalence.DIFFERENT
        assert res.witness_distance == pytest.approx(np.sqrt(2.0))
        assert isinstance(res.witness, DensityMatrix)
        img_k = res.witness.mat
        img_l = X @ res.witness.mat @ X
        assert frobenius_distance(img_k, img_l) == pytest.approx(res.witness_distance)

    def test_random_phase_pairs_equal(self):
        for trial in range(200):
            d = 2 + trial % 3
            k1 = random_unitary(d, spawn_rng(73, trial, 0))
            theta = float(spawn_rng(73, trial, 1).uniform(0, 2 * np.pi))
            res = n1_uniqueness_check(k1, np.exp(1j * theta) * k1)
            assert res.verdict is PhaseEquivalence.EQUAL_UP_TO_PHASE

    def test_independent_pairs_different_with_valid_witness(self):
        for trial in range(200):
            d = 2 + trial % 3
            k1 = random_unitary(d, spawn_rng(79, trial, 0))
            l1 = random_unitary(d, spawn_rng(79, trial, 1))
            res = n1_uniqueness_check(k1, l1)
            assert res.verdict is PhaseEquivalence.DIFFERENT
            assert res.witness_distance > 1e-6
            imgs = (
                k1 @ res.witness.mat @ dagger(k1),
                l1 @ res.witness.mat @ dagger(l1),
            )
            assert frobenius_distance(*imgs) == pytest.approx(res.witness_distance)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="completeness") as exc:
            n1_uniqueness_check(np.diag([1.0, 2.0]), I2)
        assert str(exc.value) == N1_GATE.format("K1")
        with pytest.raises(ValueError, match="completeness") as exc:
            n1_uniqueness_check(I2, np.diag([1.0, 2.0]))
        assert str(exc.value) == N1_GATE.format("L1")

    def test_rejects_shape_mismatch(self):
        # both operators have passed the square check; only their sizes differ
        with pytest.raises(ValueError) as exc:
            n1_uniqueness_check(I2, np.eye(3))
        assert str(exc.value) == "shape mismatch: K1 (2, 2) vs L1 (3, 3)"

    @pytest.mark.parametrize(
        "k1, l1, message",
        [
            (np.ones((2, 3)), I2, "K1 must be square, got (2, 3)"),
            (I2, np.ones((3, 2)), "L1 must be square, got (3, 2)"),
            (np.diag([np.nan, 1.0]), I2, "K1: entries must be finite"),
            (I2, np.diag([1.0, np.inf]), "L1: entries must be finite"),
        ],
        ids=["k1-not-square", "l1-not-square", "k1-nan", "l1-inf"],
    )
    def test_rejects_bad_operator(self, k1, l1, message):
        with pytest.raises(ValueError) as exc:
            n1_uniqueness_check(k1, l1)
        assert str(exc.value) == message


class TestN1CovarianceSearch:
    def test_identity_fixture_finds_nothing(self):
        rep = n1_covariance_search(I2, IDENT_FRAME, trials=300, seed=1)
        assert rep.violation_count == 0
        assert rep.min_residual > rep.tol
        assert rep.examined > 300

    def test_random_fixture_finds_nothing(self):
        k1 = random_unitary(3, 4)
        f = FrameTransform(random_unitary(3, 5))
        rep = n1_covariance_search(k1, f, trials=200, seed=2)
        assert rep.violation_count == 0
        assert rep.min_residual > rep.tol

    def test_scalar_dimension_degenerates(self):
        f = FrameTransform(np.array([[np.exp(0.3j)]]))
        rep = n1_covariance_search(np.array([[1.0 + 0j]]), f, trials=100, seed=3)
        assert rep.violation_count == 0
        assert math.isinf(rep.min_residual)
        assert rep.best_candidate is None

    def test_deterministic(self):
        a = n1_covariance_search(I2, FrameTransform(H), trials=50, seed=9)
        b = n1_covariance_search(I2, FrameTransform(H), trials=50, seed=9)
        assert a.min_residual == b.min_residual
        assert a.examined == b.examined
        assert np.array_equal(a.best_candidate, b.best_candidate)

    def test_best_candidate_respects_floor(self):
        rep = n1_covariance_search(I2, IDENT_FRAME, trials=100, seed=4)
        assert rep.best_phase_distance > rep.distance_floor

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="completeness") as exc:
            n1_covariance_search(np.diag([1.0, 2.0]), IDENT_FRAME, trials=5, seed=0)
        assert str(exc.value) == N1_GATE.format("K1")

    @pytest.mark.parametrize(
        "k1, trials, message",
        [
            (np.ones((2, 3)), 5, "K1 must be square, got (2, 3)"),
            (np.diag([1.0, np.nan]), 5, "K1: entries must be finite"),
            (np.eye(3), 5, "dimension mismatch: K1 3 vs frame 2"),
            (I2, -1, "trials must be >= 0"),
        ],
        ids=["not-square", "nan", "frame-dim", "negative-trials"],
    )
    def test_rejects_bad_input(self, k1, trials, message):
        with pytest.raises(ValueError) as exc:
            n1_covariance_search(k1, IDENT_FRAME, trials=trials, seed=0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("trials", [0, 1, 5])
    def test_rejects_negative_seed(self, trials):
        # the boundary candidate alone draws nothing: refused all the same
        with pytest.raises(ValueError) as exc:
            n1_covariance_search(I2, IDENT_FRAME, trials=trials, seed=-1)
        assert str(exc.value) == "seed must be >= 0"


def _unitary_pair_residual(delta, d):
    # Choi residual of two d x d unitaries at phase-aligned distance delta:
    # |Tr(T^dagger C)| = d - delta^2 / 2, so the residual^2 =
    # 2 d^2 - 2 |Tr(T^dagger C)|^2 = delta^2 (2 d - delta^2 / 2).
    return delta * math.sqrt(2.0 * d - 0.5 * delta * delta)


class TestRank1ClosedForm:
    """The residual of a unitary pair is a function of its phase distance."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
    def test_residual_matches_closed_form(self, d):
        for trial in range(5):
            target = random_unitary(d, spawn_rng(61, d, trial, 0))
            cand = random_unitary(d, spawn_rng(61, d, trial, 1))
            delta, _ = phase_aligned_distance(target, cand)
            assert _rank1_choi_residual(target, cand) == pytest.approx(
                _unitary_pair_residual(delta, d), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
    def test_boundary_candidate_matches_closed_form(self, d):
        # near the floor the residual is a difference of nearly equal
        # terms, so it agrees to about 1e-11 rather than to 1e-12
        k1 = random_unitary(d, spawn_rng(62, d, 0))
        f = FrameTransform(random_unitary(d, spawn_rng(62, d, 1)))
        rep = n1_covariance_search(k1, f, trials=3, seed=d)
        assert rep.min_residual == pytest.approx(
            _unitary_pair_residual(rep.best_phase_distance, d), rel=1e-9, abs=0.0
        )
        assert rep.best_phase_distance == pytest.approx(
            PHASE_DISTANCE_FLOOR * (1.0 + 1e-6), rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_search_attains_the_residual_floor(self, d):
        k1 = random_unitary(d, spawn_rng(63, d, 0))
        f = FrameTransform(random_unitary(d, spawn_rng(63, d, 1)))
        rep = n1_covariance_search(k1, f, trials=50, seed=d)
        eps = rep.distance_floor
        assert rep.residual_floor == pytest.approx(
            _unitary_pair_residual(eps, d), rel=1e-15, abs=0.0
        )
        assert rep.examined == 51
        assert rep.residual_floor * (1.0 - 1e-12) <= rep.min_residual
        assert rep.min_residual <= rep.residual_floor * (1.0 + 1e-5)
        assert rep.violation_count == 0


class TestSingleOperatorGate:
    """Both single-operator functions gate unitarity at max(tol, COMPLETENESS_TOL)."""

    @staticmethod
    def _k1(defect):
        return np.diag([np.sqrt(1.0 + defect), 1.0]).astype(complex)

    def test_agree_below_completeness_tol(self):
        k1 = self._k1(5e-10)
        assert unitarity_defect(k1) == pytest.approx(5e-10, rel=1e-6)
        tol = 1e-11
        assert n1_uniqueness_check(k1, k1, tol=tol).verdict is PhaseEquivalence.EQUAL_UP_TO_PHASE
        rep = n1_covariance_search(k1, IDENT_FRAME, trials=2, seed=0, tol=tol)
        assert rep.examined > 0

    def test_agree_past_the_gate(self):
        k1 = self._k1(2 * COMPLETENESS_TOL)
        with pytest.raises(ValueError, match="exceeds 1.0e-09"):
            n1_uniqueness_check(k1, k1, tol=1e-11)
        with pytest.raises(ValueError, match="exceeds 1.0e-09"):
            n1_covariance_search(k1, IDENT_FRAME, trials=2, seed=0, tol=1e-11)


class TestPhasePermutationDistance:
    def test_trivial_mixings_have_zero_distance(self):
        assert phase_permutation_distance(MixingUnitary(np.eye(3))) <= 1e-12
        swap = np.array([[0, 1j], [np.exp(0.4j), 0]], dtype=complex)
        assert phase_permutation_distance(MixingUnitary(swap)) <= 1e-12

    def test_hadamard_value(self):
        got = phase_permutation_distance(MixingUnitary(H))
        assert got == pytest.approx(np.sqrt(4.0 - 2.0 * np.sqrt(2.0)))

    @staticmethod
    def _enumerated(mat):
        # the reference: the best assignment over all n! permutations,
        # each sum taken over rows in order
        m = np.abs(mat)
        n = m.shape[0]
        best = max(
            sum(m[a, sigma[a]] for a in range(n))
            for sigma in itertools.permutations(range(n))
        )
        return math.sqrt(max(0.0, 2.0 * (n - best)))

    @staticmethod
    def _phase_permutation(n, seed):
        rng = np.random.default_rng(seed)
        mat = np.zeros((n, n), dtype=complex)
        mat[np.arange(n), rng.permutation(n)] = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        return mat

    @staticmethod
    def _held_karp(mat):
        # the second reference, for ranks enumeration cannot reach: DP over
        # column subsets, best[mask] the largest row-order sum of rows
        # 0..popcount(mask)-1 assigned to the columns in mask
        w = np.abs(mat).tolist()
        n = len(w)
        best = [0.0]
        for mask in range(1, 1 << n):
            row = w[mask.bit_count() - 1]
            best.append(
                max(best[mask & ~(1 << c)] + row[c] for c in range(n) if mask >> c & 1)
            )
        return math.sqrt(max(0.0, 2.0 * (n - best[-1])))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dp_equals_enumeration(self, n):
        # the assignment solver and the Held-Karp reference against every
        # permutation (the name is kept from the subset DP the solver replaced)
        mats = [random_unitary(n, spawn_rng(71, n, trial)) for trial in range(6)]
        # tie-heavy inputs: every assignment of the DFT matrix has the same
        # sum, and identity and phase-permutations tie at every zero entry
        dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        mats += [np.eye(n), self._phase_permutation(n, n), dft]
        for mat in mats:
            want = self._enumerated(mat)
            assert phase_permutation_distance(MixingUnitary(mat)) == want
            assert self._held_karp(mat) == want

    @pytest.mark.parametrize("n", range(9, 15))
    def test_equals_held_karp_dp(self, n):
        for trial in range(3):
            mat = random_unitary(n, spawn_rng(74, n, trial))
            assert phase_permutation_distance(MixingUnitary(mat)) == self._held_karp(mat)

    def test_rank_16_phase_permutation_is_trivial(self):
        assert phase_permutation_distance(MixingUnitary(self._phase_permutation(16, 3))) == 0.0

    def test_rank_16_block_diagonal(self):
        # zero off-diagonal blocks: the best assignment is the best of each
        # block, so the squared distances add; relabeling rows and columns
        # leaves the distance unchanged
        blocks = [random_unitary(8, spawn_rng(72, b)) for b in range(2)]
        mat = np.zeros((16, 16), dtype=complex)
        mat[:8, :8], mat[8:, 8:] = blocks
        rng = np.random.default_rng(73)
        mat = mat[rng.permutation(16)][:, rng.permutation(16)]
        want = math.hypot(*(self._enumerated(b) for b in blocks))
        assert phase_permutation_distance(MixingUnitary(mat)) == pytest.approx(want, rel=1e-12)

    def test_rank_24_block_diagonal(self):
        # as at rank 16, with three 8-blocks: a rank above 16
        blocks = [random_unitary(8, spawn_rng(76, b)) for b in range(3)]
        mat = np.zeros((24, 24), dtype=complex)
        for b, block in enumerate(blocks):
            mat[8 * b : 8 * b + 8, 8 * b : 8 * b + 8] = block
        rng = np.random.default_rng(77)
        mat = mat[rng.permutation(24)][:, rng.permutation(24)]
        want = math.hypot(*(self._enumerated(b) for b in blocks))
        assert phase_permutation_distance(MixingUnitary(mat)) == pytest.approx(want, rel=1e-12)

    def test_rank_64_phase_permutation_is_trivial(self):
        assert phase_permutation_distance(MixingUnitary(self._phase_permutation(64, 5))) == 0.0


class TestExtractMixing:
    def test_identity_case(self):
        k = random_kraus_set(2, 2, 14)
        v = extract_mixing(k, k)
        assert frobenius_distance(v.mat, np.eye(2)) <= 1e-10

    def test_hand_fixture(self):
        projectors = mix_kraus(PHASE_DAMPING, MixingUnitary(H))
        v = extract_mixing(PHASE_DAMPING, projectors)
        assert frobenius_distance(v.mat, H) <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 4), (3, 3), (4, 2), (4, 5)])
    def test_round_trip(self, d, n):
        for trial in range(30):
            k = random_kraus_set(d, n, spawn_rng(83, d, n, trial, 0))
            v0 = random_unitary(n, spawn_rng(83, d, n, trial, 1))
            l = mix_kraus(k, MixingUnitary(v0))
            got = extract_mixing(k, l)
            assert got is not None
            assert frobenius_distance(got.mat, v0) <= 1e-8

    def test_forced_dependence_returns_none(self):
        # more operators than the operator space has dimensions: the Gram
        # matrix is singular and no unique mixing exists
        k = random_kraus_set(2, 5, 91)
        l = mix_kraus(k, MixingUnitary(random_unitary(5, 92)))
        assert extract_mixing(k, l) is None

    def test_degenerate_gram_returns_none(self):
        dependent = KrausSet([S2 * I2, S2 * I2])
        rotated = mix_kraus(dependent, MixingUnitary(H))
        assert extract_mixing(dependent, rotated) is None

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 10)])
    def test_more_operators_than_operator_space(self, d, n):
        k = random_kraus_set(d, n, spawn_rng(93, d, n, 0))
        l = mix_kraus(k, MixingUnitary(random_unitary(n, spawn_rng(93, d, n, 1))))
        assert extract_mixing(k, l) is None
        assert extract_mixing(k, k) is None

    @pytest.mark.parametrize("d", [2, 4])
    def test_nearly_dependent_operators(self, d):
        # K = {A, A + delta B, C}: the smallest Gram eigenvalue falls like
        # delta^2 and crosses GRAM_MIN_EIGENVALUE inside the scanned range.
        # The cutoff applies to the pair scaled to unit size: these Ginibre
        # entries reach 2 to 3, a scale of 1/4.
        rng = spawn_rng(95, d)
        a, b, c = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(3)
        )
        v0 = random_unitary(3, spawn_rng(95, d, 1))
        declined = recovered = 0
        for delta in np.logspace(-7, -1, 25):
            k = KrausSet([a, a + delta * b, c], trace_preserving=False)
            l = mix_kraus(k, MixingUnitary(v0))
            pair = np.asarray(k.ops)[None], np.asarray(l.ops)[None]
            (unit,), _, _ = _scaled([True], *pair)
            lam_min = float(np.linalg.eigvalsh(kraus_gram(unit))[0])
            got = extract_mixing(k, l)
            if got is None:
                assert lam_min <= 1.01 * GRAM_MIN_EIGENVALUE, f"delta {delta:.1e}"
                declined += 1
                continue
            # a returned V is never wrong: unitary, and it rebuilds L
            assert lam_min >= 0.99 * GRAM_MIN_EIGENVALUE, f"delta {delta:.1e}"
            assert unitarity_defect(got.mat) <= CHANNEL_EQUALITY_TOL
            rebuilt = mix_kraus(k, got)
            for want, have in zip(l.ops, rebuilt.ops):
                assert frobenius_distance(want, have) <= k.rank * CHANNEL_EQUALITY_TOL
            assert frobenius_distance(got.mat, v0) <= 1e-8
            recovered += 1
        assert declined and recovered

    @pytest.mark.parametrize("d", [16, 32])
    def test_round_trip_at_the_top_range(self, d):
        # the README's range ends at d = 32, rank 16
        k = random_kraus_set(d, 16, spawn_rng(97, d, 0))
        f = FrameTransform(random_unitary(d, spawn_rng(97, d, 1)))
        v0 = random_unitary(16, spawn_rng(97, d, 2))
        lprime = make_noncovariant_solution(k, f, MixingUnitary(v0))
        got = extract_mixing(conjugate_kraus(k, f), lprime)
        assert got is not None
        assert frobenius_distance(got.mat, v0) <= 1e-9
        assert analyze(k, lprime, f).verdict is Verdict.NONCOVARIANT_COMPATIBLE

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            extract_mixing(PHASE_DAMPING, KrausSet([I2]))

    def test_distinct_channels_rejected(self):
        with pytest.raises(ValueError, match="different channels"):
            extract_mixing(KrausSet([I2]), KrausSet([X]))



class TestLargeSets:
    """Sets too large to square: finite distances stay finite, verdicts and V stay safe."""

    @pytest.mark.parametrize("e", [-20, -2, 2, 20, 300])
    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_covariant_distance_scales_exactly(self, d, e):
        k = random_kraus_set(d, 4, spawn_rng(53, d, 0))
        lp = random_kraus_set(d, 4, spawn_rng(53, d, 1))
        f = FrameTransform(random_unitary(d, spawn_rng(53, d, 2)))
        got = covariant_distance(times_power_of_two(k, e), times_power_of_two(lp, e), f)
        assert got == math.ldexp(covariant_distance(k, lp, f), e)

    def test_overflowing_residual_is_inf(self):
        big = KrausSet([np.full((2, 2), 1e200 + 0j)], trace_preserving=False)
        ident = KrausSet([np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(big, ident, FrameTransform(np.eye(2)))
        assert report.residual == math.inf
        assert report.covariant_distance == pytest.approx(2e200, rel=1e-15)
        assert report.verdict is Verdict.INCOMPATIBLE

    @pytest.mark.parametrize("scale", [2.0**300, 1e300, 1e307])
    def test_extract_mixing_on_huge_sets(self, scale):
        k = random_kraus_set(4, 3, spawn_rng(59, 0))
        v = MixingUnitary(random_unitary(3, spawn_rng(59, 1)))
        other = random_kraus_set(4, 3, spawn_rng(59, 2))
        big, mixed, far = (
            KrausSet([scale * op for op in ops], trace_preserving=False)
            for ops in (k.ops, mix_kraus(k, v).ops, other.ops)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a returned V is verified
            got = extract_mixing(big, big)
            assert got is None or np.allclose(got.mat, np.eye(3))
            # the pair is compared scaled to unit size, so roundoff at its
            # own size is not a difference; from 1e300 its Choi distance as
            # given is past the float range
            assert (choi_distance(big, mixed) == math.inf) is (scale >= 1e300)
            got = extract_mixing(big, mixed)
            assert np.abs(got.mat - v.mat).max() <= 1e-12
            with pytest.raises(ValueError, match="different channels"):
                extract_mixing(big, far)

    @pytest.mark.parametrize("scale", [2.0**300, 1e300])
    def test_equal_huge_sets_give_the_identity(self, scale):
        # the rebuilt operators miss by roundoff at the sets' size, far past
        # tol * rank in absolute terms; the check runs on the pair at unit size
        k = random_kraus_set(4, 3, spawn_rng(59, 0))
        big = KrausSet([scale * op for op in k.ops], trace_preserving=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extract_mixing(big, big)
        assert got is not None
        assert np.abs(got.mat - np.eye(3)).max() <= 1e-12


class TestReconstructionBound:
    """A solved V is kept while each rebuilt operator misses by at most
    ``tol * rank``, on the pair scaled to unit size."""

    @pytest.mark.parametrize("e", [-3, 0, 20])
    @pytest.mark.parametrize("within", [True, False])
    def test_bound_follows_the_sets_size(self, monkeypatch, e, within):
        # equal sets: the rebuilt operators miss by the added amount alone,
        # and _mix sees them at unit size whatever e is
        k = times_power_of_two(random_kraus_set(3, 3, spawn_rng(73, 0)), e)
        miss = np.zeros((3, 3), dtype=complex)
        miss[0, 0] = (0.9 if within else 1.1) * CHANNEL_EQUALITY_TOL * 3
        exact = covariance._mix
        monkeypatch.setattr(covariance, "_mix", lambda v, ops: exact(v, ops) + miss)
        assert (extract_mixing(k, k) is not None) is within


class TestChannelGateOnLargeSets:
    """Two sets define one channel while their Choi distance, taken on the
    pair scaled to unit size, is within ``tol``."""

    K = random_kraus_set(3, 3, spawn_rng(73, 0))
    V = MixingUnitary(random_unitary(3, spawn_rng(73, 1)))

    def test_mixed_pair_at_2_to_20_gives_v(self):
        k = times_power_of_two(self.K, 20)
        lp = times_power_of_two(mix_kraus(self.K, self.V), 20)
        # roundoff at entries near 1e6, squared by the Choi product
        assert choi_distance(k, lp) > CHANNEL_EQUALITY_TOL
        got = extract_mixing(k, lp)
        assert np.abs(got.mat - self.V.mat).max() <= 1e-12

    def test_trace_preserving_pair_at_2_to_20_gives_v(self):
        # a loose completeness_tol admits a trace-preserving set far from
        # unit size; it is scaled to unit size like any other
        k = random_kraus_set(3, 3, spawn_rng(5, 0))
        big = KrausSet([2.0**20 * op for op in k.ops], completeness_tol=1e300)
        v = MixingUnitary(random_unitary(3, spawn_rng(5, 1)))
        got = extract_mixing(big, mix_kraus(big, v))
        assert np.abs(got.mat - v.mat).max() <= 1e-12

    @pytest.mark.parametrize("e", [0, 20])
    def test_different_channels_still_raise(self, e):
        other = random_kraus_set(3, 3, spawn_rng(73, 2))
        with pytest.raises(ValueError, match="different channels"):
            extract_mixing(times_power_of_two(self.K, e), times_power_of_two(other, e))

    def test_unit_size_sets_are_held_to_tol(self):
        # entries in (0.5, 1] are at unit size already: a distance just past
        # tol is a different channel
        assert 0.5 < np.abs(np.asarray(self.K.ops).view(np.float64)).max() <= 1.0
        lp = KrausSet([op * (1 + 1e-9) for op in self.K.ops], trace_preserving=False)
        assert CHANNEL_EQUALITY_TOL < choi_distance(self.K, lp) < 10 * CHANNEL_EQUALITY_TOL
        with pytest.raises(ValueError, match="different channels"):
            extract_mixing(self.K, lp)

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_projector_of_size_one_is_held_to_tol(self, factor):
        # {|0><0|} against {c |0><0|}: a largest part of exactly 1 is unit
        # size already, so the pair is held to tol itself
        p0 = np.diag([1.0, 0.0]).astype(complex)
        c = math.sqrt(1 - factor * CHANNEL_EQUALITY_TOL)
        k = KrausSet([p0], trace_preserving=False)
        lp = KrausSet([c * p0], trace_preserving=False)
        assert (choi_distance(k, lp) <= CHANNEL_EQUALITY_TOL) is (factor < 1)
        if factor < 1:
            assert extract_mixing(k, lp).mat[0, 0] == pytest.approx(c, abs=1e-15)
        else:
            with pytest.raises(ValueError, match="different channels"):
                extract_mixing(k, lp)


class TestScaleInvariance:
    """A pair is compared at unit size, so scaling both sets by 2^e changes
    nothing while the entries stay normal."""

    K = random_kraus_set(3, 3, spawn_rng(5, 0))
    V = random_unitary(3, spawn_rng(5, 1))
    L = mix_kraus(K, MixingUnitary(V))
    OTHER = random_kraus_set(3, 3, spawn_rng(5, 9))
    EXPONENTS = [-1000, -300, -40, -17, -13, -3, 0, 3, 20, 300, 1000]

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_mixed_pair_gives_the_same_v(self, e):
        want = extract_mixing(times_power_of_two(self.K, 0), times_power_of_two(self.L, 0))
        got = extract_mixing(times_power_of_two(self.K, e), times_power_of_two(self.L, e))
        assert got.mat.tobytes() == want.mat.tobytes()

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_different_channels_raise(self, e):
        with pytest.raises(ValueError, match="different channels"):
            extract_mixing(times_power_of_two(self.K, e), times_power_of_two(self.OTHER, e))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_dependent_operators_give_none(self, e):
        k = random_kraus_set(2, 5, spawn_rng(5, 2))
        l = mix_kraus(k, MixingUnitary(random_unitary(5, spawn_rng(5, 3))))
        dependent = KrausSet([S2 * I2, S2 * I2])
        rotated = mix_kraus(dependent, MixingUnitary(H))
        for a, b in ((k, l), (dependent, rotated)):
            assert extract_mixing(times_power_of_two(a, e), times_power_of_two(b, e)) is None

    @pytest.mark.parametrize("e", [-1040, -1060])
    def test_subnormal_sets_raise_nothing_else(self, e):
        # subnormal entries keep only some bits, so the mixed pair may give
        # a V or read as different channels; nothing else, and no warning
        k = times_power_of_two(self.K, e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for other in (self.L, self.OTHER):
                try:
                    got = extract_mixing(k, times_power_of_two(other, e))
                except ValueError as err:
                    assert "different channels" in str(err)
                else:
                    assert got is None or unitarity_defect(got.mat) <= CHANNEL_EQUALITY_TOL


def test_reports_are_plain_dataclasses():
    rep = analyze(PHASE_DAMPING, PHASE_DAMPING, IDENT_FRAME)
    assert isinstance(rep, CovarianceReport)
    assert rep.tol == 1e-9
