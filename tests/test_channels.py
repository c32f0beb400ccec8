import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import matrix_to_obj, times_power_of_two
from covchan import channels, covariance
from covchan.channels import (
    CHANNEL_EQUALITY_TOL,
    STATE_TOL,
    DensityMatrix,
    KrausSet,
    _factored_chois,
    _kraus_images,
    _random_kraus_ops,
    _readonly,
    _trusted,
    apply_channel,
    apply_kraus,
    apply_to_matrix_units,
    channels_equal,
    choi_distance,
    choi_matrix,
    completeness_defect,
    matrix_units,
    random_kraus_set,
    vec,
)
from covchan.covariance import FrameTransform, MixingUnitary, conjugate_kraus, mix_kraus
from covchan.linalg import (
    _haar_unitaries,
    dagger,
    frobenius_distance,
    random_density,
    random_unitary,
    spawn_rng,
)
from covchan.scenario import Target, embed_local
from covchan.serialization import parse_kraus_set


def kraus_gram(ops) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix ``G[a, b] = Tr(K_a^dagger K_b)``."""
    w = np.stack([np.ravel(op) for op in ops], axis=1)
    return w.conj().T @ w


I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S2 = 1.0 / np.sqrt(2.0)

PHASE_DAMPING = KrausSet([S2 * I2, S2 * Z])
PROJECTIVE = KrausSet([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)])
BIT_FLIP = KrausSet([np.sqrt(0.75) * I2, np.sqrt(0.25) * X])


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=complex))


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert rho.dim == 2
        assert np.allclose(rho.mat, np.diag([0.75, 0.25]))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError) as exc:
            DensityMatrix(np.ones((2, 3)) / 6.0)
        assert str(exc.value) == "density matrix must be square, got (2, 3)"

    def test_matrix_is_frozen(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.3

    def test_from_state_vector_normalizes(self):
        rho = DensityMatrix.from_state_vector([3.0, 4.0])
        assert np.allclose(rho.mat, np.array([[9, 12], [12, 16]]) / 25.0)

    def test_from_state_vector_rejects_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            DensityMatrix.from_state_vector([0.0, 0.0])


def _reference_density_error(mat):
    """The per-matrix checks as the constructor made them before the stack check."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        return "density matrix: entries must be finite"
    herm = frobenius_distance(mat, dagger(mat))
    if herm > STATE_TOL:
        return f"density matrix is not Hermitian: defect {herm:.3e}"
    tr = np.trace(mat)
    if abs(tr - 1.0) > STATE_TOL:
        return f"density matrix trace {tr:.12g} is not 1"
    lo = float(np.linalg.eigvalsh(mat).min())
    if lo < -STATE_TOL:
        return f"density matrix has negative eigenvalue {lo:.3e}"
    return None


def _defective(mat, kind, size=1):
    """``mat`` with one defect of the given kind, scaled by ``size``."""
    mat = mat.copy()
    if kind == "herm":
        mat[0, -1] += size * 1e-6
    elif kind == "trace":
        mat *= 1 + size * 0.01
    elif kind == "negative":
        # move weight past zero along the weakest eigenvector: trace kept
        w, v = np.linalg.eigh(mat)
        shift = w[0] + size * 0.01
        mat += shift * (np.outer(v[:, -1], v[:, -1].conj()) - np.outer(v[:, 0], v[:, 0].conj()))
    else:
        mat[0, -1] = np.nan
    return mat


DEFECTS = ("herm", "trace", "negative", "nan")
DEFECT_WORDS = {
    "herm": "not Hermitian",
    "trace": "is not 1",
    "negative": "negative eigenvalue",
    "nan": "must be finite",
}


class TestDensityStack:
    """Entry checks, one constructor call per matrix of a stack, against the
    per-matrix reference; and derived states, wrapped unchecked."""

    N = 6

    def _stack(self, d, seed):
        return np.stack([random_density(d, spawn_rng(seed, d, i)) for i in range(self.N)])

    def _expect_reference_errors(self, stack):
        """Each matrix's constructor error is the reference's; returns them."""
        errors = [_reference_density_error(m) for m in stack]
        for mat, error in zip(stack, errors):
            if error is None:
                DensityMatrix(mat)
                continue
            with pytest.raises(ValueError) as single:
                DensityMatrix(mat)
            assert str(single.value) == error
        return errors

    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("kind", DEFECTS)
    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_one_defect(self, d, kind, index):
        stack = self._stack(d, 31)
        stack[index] = _defective(stack[index], kind)
        errors = self._expect_reference_errors(stack)
        assert DEFECT_WORDS[kind] in errors[index]
        assert errors.count(None) == self.N - 1

    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("first,second", itertools.product(DEFECTS, repeat=2))
    def test_two_defects_report_the_first(self, d, first, second):
        # one matrix with two defects is named by the first check it fails;
        # a NaN goes in last, since the negative defect needs an eigensolve
        order = ("nan", "herm", "trace", "negative")
        stack = self._stack(d, 32)
        for kind, size in sorted([(first, 1), (second, 5)], key=lambda ks: ks[0] == "nan"):
            stack[1] = _defective(stack[1], kind, size)
        errors = self._expect_reference_errors(stack)
        assert DEFECT_WORDS[min(first, second, key=order.index)] in errors[1]

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_hermiticity_defect_is_the_frobenius_distance(self, d):
        # a defect of ||m - m^dagger||_F just over STATE_TOL is named as that
        # distance, and one just under passes; the diagonal, and so the
        # trace, stays exactly as it was
        for i, mat in enumerate(self._stack(d, 35)):
            mat = 0.5 * (mat + dagger(mat))
            kick = random_unitary(d, spawn_rng(35, d, i)).copy()
            np.fill_diagonal(kick, 0.0)
            unit = STATE_TOL / frobenius_distance(kick, dagger(kick))
            over = mat + (1 + 1e-6) * unit * kick
            herm = frobenius_distance(over, dagger(over))
            assert herm > STATE_TOL
            with pytest.raises(ValueError) as single:
                DensityMatrix(over)
            assert str(single.value) == f"density matrix is not Hermitian: defect {herm:.3e}"
            under = mat + (1 - 1e-6) * unit * kick
            assert frobenius_distance(under, dagger(under)) <= STATE_TOL
            DensityMatrix(under)

    def test_checks_in_constructor_order(self):
        # finiteness is named before Hermiticity, Hermiticity before the trace
        mat = _defective(_defective(np.diag([0.6, 0.6]).astype(complex), "herm"), "nan")
        with pytest.raises(ValueError, match="entries must be finite"):
            DensityMatrix(mat)
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(_defective(np.diag([0.6, 0.6]).astype(complex), "herm"))

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_clean_stack_gives_read_only_views(self, d):
        stack = self._stack(d, 33)
        states = [_trusted(DensityMatrix, mat=_readonly(mat)) for mat in stack]
        for mat, state in zip(stack, states):
            assert isinstance(state, DensityMatrix)
            assert state.dim == d
            assert not state.mat.flags.writeable
            assert np.shares_memory(state.mat, stack)
            assert np.array_equal(state.mat, DensityMatrix(mat).mat)
        with pytest.raises(ValueError):
            states[0].mat[0, 0] = 0.5

    def test_derived_stack_is_not_checked(self):
        # derived states are reported as computed, whatever their defects
        stack = self._stack(4, 34)
        for i, kind in enumerate(DEFECTS):
            stack[i] = _defective(stack[i], kind)
        want = stack.copy()
        states = [_trusted(DensityMatrix, mat=_readonly(mat)) for mat in stack]
        for mat, state in zip(want, states):
            np.testing.assert_array_equal(state.mat, mat)


class TestKrausSet:
    def test_basic_properties(self):
        assert PHASE_DAMPING.dim == 2
        assert PHASE_DAMPING.rank == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausSet([])

    def test_rejects_shape_mix(self):
        with pytest.raises(ValueError, match="shape"):
            KrausSet([I2, np.eye(3)])

    def test_flagged_set_must_be_complete(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausSet([I2, I2])

    def test_unflagged_branches_allowed(self):
        branch = KrausSet([np.diag([1, 0]).astype(complex)], trace_preserving=False)
        assert branch.rank == 1


# Every way a Kraus set is made; the constructor also from real and
# Fortran-ordered operators, which it stacks as C-ordered complex128
_SET_MAKERS = {
    "constructor": lambda: KrausSet((S2 * I2, S2 * Z)),
    "constructor-real-transposed": lambda: KrausSet([S2 * np.eye(2), (S2 * Z.real).T]),
    "parse_kraus_set": lambda: parse_kraus_set(
        {"dim": 2, "ops": [matrix_to_obj(op) for op in PHASE_DAMPING.ops]}, "k"
    ),
    "conjugate_kraus": lambda: conjugate_kraus(
        PHASE_DAMPING, FrameTransform(random_unitary(2, 5))
    ),
    "mix_kraus": lambda: mix_kraus(BIT_FLIP, MixingUnitary(random_unitary(2, 6))),
    "embed_local-A": lambda: embed_local(BIT_FLIP, Target.SUBSYSTEM_A, 2, 3),
    "embed_local-B": lambda: embed_local(BIT_FLIP, Target.SUBSYSTEM_B, 3, 2),
    "random_kraus_set": lambda: random_kraus_set(3, 4, 7),
}


@pytest.mark.parametrize("how", sorted(_SET_MAKERS))
class TestOperatorStack:
    """``KrausSet.ops`` is the ``(N, d, d)`` array the kernels take, as it is."""

    def test_ops_is_one_readonly_stack(self, how):
        k = _SET_MAKERS[how]()
        assert type(k.ops) is np.ndarray
        assert k.ops.shape == (k.rank, k.dim, k.dim)
        assert k.ops.dtype == np.complex128
        assert k.ops.flags.c_contiguous
        assert not k.ops.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            k.ops[0, 0, 0] = 1.0

    def test_kernels_read_the_stack_without_a_copy(self, how, monkeypatch):
        k = _SET_MAKERS[how]()
        assert np.asarray(k.ops) is k.ops
        seen = []

        def spy(kernel, *picks):
            def wrapped(*args):
                seen.extend(args[i] for i in picks)
                return kernel(*args)

            return wrapped

        # conjugate_kraus and _kraus_images hand the stack itself to the
        # product; choi_distance hands _factored_chois views of it
        monkeypatch.setattr(covariance, "_conjugate", spy(channels._conjugate, 1))
        monkeypatch.setattr(channels, "_conjugate", spy(channels._conjugate, 0))
        monkeypatch.setattr(channels, "_factored_chois", spy(_factored_chois, 0, 1))
        conjugate_kraus(k, FrameTransform(np.eye(k.dim)))
        _kraus_images(k.ops, np.eye(k.dim))
        choi_distance(k, k)
        assert seen[0] is k.ops and seen[1] is k.ops
        assert len(seen) == 4
        assert all(np.shares_memory(x, k.ops) for x in seen[2:])


class TestCompletenessDefect:
    def test_identity(self):
        assert completeness_defect(KrausSet([I2])) == 0.0

    def test_bit_flip(self):
        assert completeness_defect(BIT_FLIP) <= 1e-12

    def test_double_identity(self):
        doubled = KrausSet([I2, I2], trace_preserving=False)
        assert completeness_defect(doubled) == pytest.approx(np.sqrt(2))


class TestApplyChannel:
    def test_identity_channel(self):
        rho = DensityMatrix(random_density(2, 3))
        out = apply_channel(KrausSet([I2]), rho)
        assert frobenius_distance(out.mat, rho.mat) <= 1e-14

    def test_bit_flip_mixes_populations(self):
        out = apply_channel(BIT_FLIP, DensityMatrix(np.diag([1.0, 0.0])))
        assert np.allclose(out.mat, np.diag([0.75, 0.25]))

    def test_permutation(self):
        out = apply_channel(KrausSet([X]), DensityMatrix(np.diag([1.0, 0.0])))
        assert np.allclose(out.mat, np.diag([0.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_channel(PHASE_DAMPING, DensityMatrix(np.eye(3) / 3.0))

    def test_rejects_branch_sets(self):
        branch = KrausSet([np.diag([1, 0]).astype(complex)], trace_preserving=False)
        with pytest.raises(ValueError, match="trace-preserving"):
            apply_channel(branch, DensityMatrix(np.diag([1.0, 0.0])))

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_linear_in_the_state(self, d):
        rng = spawn_rng(11, d)
        for trial in range(40):
            k = random_kraus_set(d, 3, spawn_rng(11, d, trial, 0))
            rho1 = random_density(d, spawn_rng(11, d, trial, 1))
            rho2 = random_density(d, spawn_rng(11, d, trial, 2))
            alpha = float(rng.uniform())
            mixed = DensityMatrix(alpha * rho1 + (1 - alpha) * rho2)
            lhs = apply_channel(k, mixed).mat
            rhs = (
                alpha * apply_channel(k, DensityMatrix(rho1)).mat
                + (1 - alpha) * apply_channel(k, DensityMatrix(rho2)).mat
            )
            assert frobenius_distance(lhs, rhs) <= 1e-10

    def test_output_valid_for_random_channels(self):
        for trial in range(50):
            k = random_kraus_set(3, 4, spawn_rng(13, trial, 0))
            rho = DensityMatrix(random_density(3, spawn_rng(13, trial, 1)))
            out = apply_channel(k, rho)
            assert abs(np.trace(out.mat) - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-9


def test_apply_kraus_hermitian_on_hermitian_input():
    rng = np.random.default_rng(5)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    rho = random_density(3, 6)
    out = apply_kraus(ops, rho)
    assert frobenius_distance(out, dagger(out)) <= 1e-12


def test_apply_kraus_faithful_on_nonhermitian_input():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    assert np.array_equal(apply_kraus([I2], e01), e01)


class TestChoiMatrix:
    def test_identity_channel_choi(self):
        choi = choi_matrix(KrausSet([I2]))
        want = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                want[i, j] = 1.0
        assert np.allclose(choi, want)

    def test_trace_is_dim_for_channels(self):
        for trial in range(20):
            k = random_kraus_set(3, 4, spawn_rng(17, trial))
            assert abs(np.trace(choi_matrix(k)) - 3.0) <= 1e-8

    def test_hermitian_psd(self):
        for trial in range(20):
            k = random_kraus_set(2, 3, spawn_rng(19, trial))
            c = choi_matrix(k)
            assert frobenius_distance(c, dagger(c)) <= 1e-12
            assert np.linalg.eigvalsh(c).min() >= -1e-12

    def test_plain_read_only_hermitian_array(self):
        c = choi_matrix(random_kraus_set(3, 2, spawn_rng(23, 0)))
        assert type(c) is np.ndarray and c.dtype == np.complex128 and c.shape == (9, 9)
        assert c.flags.c_contiguous and not c.flags.writeable
        assert np.array_equal(c, c.conj().T)

    def test_representation_invariant(self):
        assert choi_distance(PHASE_DAMPING, PROJECTIVE) <= 1e-12

    def test_global_phase_invariant(self):
        for theta in (0.3, 1.1, 2.9):
            rotated = KrausSet([np.exp(1j * theta) * op for op in PHASE_DAMPING.ops])
            assert choi_distance(PHASE_DAMPING, rotated) <= 1e-12


class TestChannelsEqual:
    def test_reflexive(self):
        k = random_kraus_set(3, 2, 21)
        assert channels_equal(k, k, 1e-10)

    def test_representation_pair(self):
        assert channels_equal(PHASE_DAMPING, PROJECTIVE, 1e-9)

    def test_identity_vs_flip(self):
        ident = KrausSet([I2])
        flip = KrausSet([X])
        assert not channels_equal(ident, flip, 1e-9)
        assert choi_distance(ident, flip) == pytest.approx(2.0 * np.sqrt(2.0))

    def test_rank_may_differ(self):
        split = KrausSet([S2 * I2, S2 * I2])
        assert channels_equal(KrausSet([I2]), split, 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            channels_equal(KrausSet([I2]), KrausSet([np.eye(3)]), 1e-9)


class TestMatrixUnitOracle:
    def test_identity_channel_fixes_units(self):
        images = apply_to_matrix_units(KrausSet([I2]))
        for image, unit in zip(images, matrix_units(2)):
            assert np.allclose(image, unit)

    def test_flip_permutes_units(self):
        images = apply_to_matrix_units(KrausSet([X]))
        e11 = np.zeros((2, 2), dtype=complex)
        e11[1, 1] = 1.0
        assert np.allclose(images[0], e11)

    def test_agrees_with_choi_oracle(self):
        from covchan.covariance import MixingUnitary, mix_kraus
        from covchan.linalg import random_unitary

        for trial in range(60):
            d = 2 + trial % 3
            n = 2 + trial % 4
            k = random_kraus_set(d, n, spawn_rng(23, trial, 0))
            if trial % 2 == 0:
                v = MixingUnitary(random_unitary(n, spawn_rng(23, trial, 1)))
                l = mix_kraus(k, v)
            else:
                l = random_kraus_set(d, n, spawn_rng(23, trial, 2))
            unit_dist = max(
                frobenius_distance(a, b)
                for a, b in zip(apply_to_matrix_units(k), apply_to_matrix_units(l))
            )
            assert channels_equal(k, l, 1e-9) == (unit_dist <= 1e-8)


def _dense_choi_distance(k, l):
    return frobenius_distance(choi_matrix(k), choi_matrix(l))


def _matrix_unit_distance(k, l):
    # With column-stacking vec, C[i + d j, k + d l] = Phi(E_jl)[i, k]: the
    # matrix-unit images are the Choi matrix's entries rearranged, so the
    # root sum of their squared distances is the Choi distance.
    images = zip(apply_to_matrix_units(k), apply_to_matrix_units(l))
    return math.sqrt(sum(frobenius_distance(a, b) ** 2 for a, b in images))


class TestFactoredOracle:
    """The factored Choi distance against the dense and matrix-unit oracles."""

    @staticmethod
    def _assert_oracles_agree(k, l):
        got = choi_distance(k, l)
        assert abs(got - _dense_choi_distance(k, l)) <= 1e-12
        assert abs(got - _matrix_unit_distance(k, l)) <= 1e-12
        return got

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_equal_and_unequal_pairs(self, d, n):
        k = random_kraus_set(d, n, spawn_rng(29, d, n, 0))
        v = MixingUnitary(random_unitary(n, spawn_rng(29, d, n, 1)))
        mixed = mix_kraus(k, v)
        other = random_kraus_set(d, n, spawn_rng(29, d, n, 2))
        assert self._assert_oracles_agree(k, mixed) <= CHANNEL_EQUALITY_TOL
        assert self._assert_oracles_agree(k, other) > CHANNEL_EQUALITY_TOL

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_mismatched_rank_pairs(self, d):
        u = random_unitary(d, spawn_rng(31, d, 0))
        single = KrausSet([u])
        split = KrausSet([0.25 * u] * 16)
        other = random_kraus_set(d, 16, spawn_rng(31, d, 1))
        assert self._assert_oracles_agree(single, split) <= CHANNEL_EQUALITY_TOL
        far = self._assert_oracles_agree(single, other)
        assert far > CHANNEL_EQUALITY_TOL
        assert abs(choi_distance(other, single) - far) <= 1e-12

    @pytest.mark.parametrize("rank_l", [3, 5])
    @pytest.mark.parametrize("d", [2, 4])
    def test_stacked_core_per_member(self, d, rank_l):
        # a member equal to its partner sits between unequal members: only
        # it may take the exact-zero shortcut
        seeds = [spawn_rng(41, d, rank_l, i) for i in range(6)]
        ks = [random_kraus_set(d, 3, seed) for seed in seeds[:3]]
        ls = [random_kraus_set(d, rank_l, seed) for seed in seeds[3:]]
        if rank_l == 3:
            ls[1] = ks[1]
        else:
            # the same channel as ks[1], as a set no shortcut can match
            ops = ks[1].ops
            ls[1] = KrausSet([*ops[:2]] + [ops[2] / math.sqrt(3)] * 3)
        distances, r = _factored_chois(
            np.stack([np.asarray(k.ops) for k in ks]),
            np.stack([np.asarray(l.ops) for l in ls]),
        )
        assert r.shape == (3, min(d * d, 3 + rank_l), 3 + rank_l)
        for k, l, got in zip(ks, ls, distances):
            assert got == choi_distance(k, l)
            assert abs(got - _dense_choi_distance(k, l)) <= 1e-12
        if rank_l == 3:
            assert distances[1] == 0.0
        assert min(distances[0], distances[2]) > CHANNEL_EQUALITY_TOL



class TestLargeSets:
    """Sets too large to square are scaled by a power of two, and their distances back."""

    @pytest.mark.parametrize("e", [-20, -2, 2, 20, 300])
    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_power_of_two_scaling_is_exact(self, d, e):
        # e = 300 takes the scaled path; the others show that it is exact
        k = random_kraus_set(d, 4, spawn_rng(43, d, 0))
        mixed = mix_kraus(k, MixingUnitary(random_unitary(4, spawn_rng(43, d, 1))))
        other = random_kraus_set(d, 4, spawn_rng(43, d, 2))
        for l in (mixed, other):
            got = choi_distance(times_power_of_two(k, e), times_power_of_two(l, e))
            assert got == math.ldexp(choi_distance(k, l), 2 * e)

    def test_overflowing_distance_is_inf(self):
        big = KrausSet([np.full((2, 2), 1e200 + 0j)], trace_preserving=False)
        ident = KrausSet([np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert choi_distance(big, ident) == math.inf
            assert choi_distance(ident, big) == math.inf

    def test_stacked_members_scale_alone(self):
        # a scaled member next to unscaled ones changes none of their bits
        ks = [random_kraus_set(4, 3, spawn_rng(47, i)) for i in range(6)]
        ks[1], ks[4] = times_power_of_two(ks[1], 300), times_power_of_two(ks[4], 300)
        distances, _ = _factored_chois(
            np.stack([np.asarray(k.ops) for k in ks[:3]]),
            np.stack([np.asarray(k.ops) for k in ks[3:]]),
        )
        assert distances == [choi_distance(k, l) for k, l in zip(ks[:3], ks[3:])]
        assert 0 < distances[1] < math.inf

class TestKrausImages:
    """The batched operator-sum kernel against the per-operator products."""

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_bitwise_per_operator_products(self, d, n):
        ops = random_kraus_set(d, n, spawn_rng(37, d, n, 0)).ops
        rng = spawn_rng(37, d, n, 1)
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        one = _kraus_images(ops, stack[0])
        assert one.shape == (n, d, d)
        for a, op in enumerate(ops):
            assert np.array_equal(one[a], op @ stack[0] @ dagger(op))
        many = _kraus_images(ops, stack)
        assert many.shape == (3, n, d, d)
        for m, mat in enumerate(stack):
            for a, op in enumerate(ops):
                assert np.array_equal(many[m, a], op @ mat @ dagger(op))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not act on dim 3"):
            apply_kraus([I2], np.eye(3))


def test_kraus_gram_values():
    gram = kraus_gram(PHASE_DAMPING.ops)
    assert np.allclose(gram, np.eye(2))
    gram2 = kraus_gram([I2, X])
    assert np.allclose(gram2, 2.0 * np.eye(2))


class TestRandomKrausSet:
    @pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (2, 4), (4, 6)])
    def test_complete_and_sized(self, d, n):
        k = random_kraus_set(d, n, 31)
        assert (k.dim, k.rank) == (d, n)
        assert completeness_defect(k) <= 1e-12

    def test_deterministic(self):
        a = random_kraus_set(3, 3, 7)
        b = random_kraus_set(3, 3, 7)
        assert all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_kraus_set(0, 2, 0)
        with pytest.raises(ValueError):
            random_kraus_set(2, 0, 0)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 32])
    def test_operators_are_the_full_unitarys_columns(self, d, n, members):
        # the sets factor only the first d columns; slicing the whole
        # n*d x n*d unitary of the same draws is the reference
        def seeds():
            return [spawn_rng(53, d, n, i) for i in range(members)]

        ops = _random_kraus_ops(d, n, seeds())
        full = _haar_unitaries(n * d, seeds())[:, :, :d].reshape(members, n, d, d)
        assert ops.shape == (members, n, d, d)
        assert np.abs(ops - full).max() <= 1e-14
        for set_ops in ops:
            KrausSet(list(set_ops))  # the completeness gate

    def test_top_of_the_range_draws_no_full_unitary(self):
        # d = 32, rank 16: the two 512 x 512 Ginibre parts take 4.2 MB; the
        # QR of the whole 512 x 512 unitary would take about 17 MB
        tracemalloc.start()
        try:
            random_kraus_set(32, 16, spawn_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
