import math

import numpy as np
import pytest

from covchan.linalg import (
    _scaled,
    as_cmatrix,
    dagger,
    frobenius_distance,
    random_density,
    random_unitary,
    spawn_rng,
    unitarity_defect,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestAsCMatrix:
    def test_copies_and_freezes(self):
        src = np.ones((2, 2))
        out = as_cmatrix(src)
        assert out.dtype == np.complex128
        with pytest.raises(ValueError):
            out[0, 0] = 5.0
        src[0, 0] = 7.0
        assert out[0, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_cmatrix([[bad, 0], [0, 1]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            as_cmatrix([1, 2, 3])


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(I2), I2)

    def test_hand_example(self):
        m = np.array([[0, 1j], [0, 0]])
        want = np.array([[0, 0], [-1j, 0]])
        assert np.array_equal(dagger(m), want)

    def test_involution_exact(self):
        rng = np.random.default_rng(2)
        m = _random_complex(rng, 5, 3)
        assert np.array_equal(dagger(dagger(m)), m)

    def test_reverses_products(self):
        rng = np.random.default_rng(3)
        a = _random_complex(rng, 4, 4)
        b = _random_complex(rng, 4, 4)
        lhs = dagger(a @ b)
        rhs = dagger(b) @ dagger(a)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestFrobeniusDistance:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(4)
        m = _random_complex(rng, 3, 3)
        assert frobenius_distance(m, m) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(I2, np.zeros((2, 2))) == pytest.approx(np.sqrt(2))

    def test_pauli_pair(self):
        assert frobenius_distance(X, Z) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            frobenius_distance(np.ones((2, 2)), np.ones((3, 3)))


class TestRandomUnitary:
    @pytest.mark.parametrize("d", list(range(1, 17)))
    def test_unitary_across_dims_and_seeds(self, d):
        for seed in range(60):
            u = random_unitary(d, seed)
            assert u.shape == (d, d)
            assert unitarity_defect(u) <= 1e-10

    def test_unit_determinant_modulus(self):
        for seed in range(50):
            u = random_unitary(5, seed)
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10

    def test_scalar_case(self):
        u = random_unitary(1, 9)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_unitary(4, 123), random_unitary(4, 123))

    def test_seeds_differ(self):
        assert not np.allclose(random_unitary(4, 0), random_unitary(4, 1))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            random_unitary(0, 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_is_the_single_matrix_formula(self, d):
        # QR of one Ginibre draw with R's diagonal phases folded into Q
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(g)
            diag = np.diagonal(r)
            assert np.array_equal(random_unitary(d, seed), q * (diag / np.abs(diag)))

    def test_output_frozen(self):
        u = random_unitary(3, 0)
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


class TestRandomDensity:
    @pytest.mark.parametrize("d", list(range(1, 17)))
    def test_valid_state_across_dims_and_seeds(self, d):
        for seed in range(60):
            rho = random_density(d, seed)
            assert np.array_equal(rho, dagger(rho))
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_eigenvalues_sum_to_one(self):
        for seed in range(30):
            rho = random_density(6, seed)
            assert abs(np.linalg.eigvalsh(rho).sum() - 1.0) <= 1e-10

    def test_scalar_case(self):
        assert np.allclose(random_density(1, 5), [[1.0]])

    def test_deterministic(self):
        assert np.array_equal(random_density(3, 77), random_density(3, 77))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            random_density(0, 0)


class TestSpawnRng:
    def test_same_path_same_stream(self):
        a = spawn_rng(5, 1, 2).standard_normal(8)
        b = spawn_rng(5, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_paths_independent_of_order(self):
        # drawing stream (0, 3) must not depend on other streams existing
        first = spawn_rng(0, 3).standard_normal(4)
        spawn_rng(0, 1).standard_normal(100)
        spawn_rng(0, 2).standard_normal(100)
        again = spawn_rng(0, 3).standard_normal(4)
        assert np.array_equal(first, again)

    def test_distinct_paths_distinct_streams(self):
        a = spawn_rng(0, 0).standard_normal(16)
        b = spawn_rng(0, 1).standard_normal(16)
        assert not np.allclose(a, b)


def test_unitarity_defect_flags_nonunitary():
    assert unitarity_defect(I2) == 0.0
    assert unitarity_defect(2 * I2) == pytest.approx(np.sqrt(2) * 3)
    with pytest.raises(ValueError) as exc:
        unitarity_defect(np.ones((2, 3)))
    assert str(exc.value) == "matrix must be square, got (2, 3)"


def test_unitarity_defect_passes_nan_through():
    # extract_mixing refuses a non-finite V through its NaN defect
    u = np.eye(2, dtype=complex)
    u[0, 1] = np.nan
    assert math.isnan(unitarity_defect(u))


@pytest.mark.parametrize(
    "big", [1.5e308 + 1.5e308j, 1.5e308 - 1e300j, 3e-320 + 1e-321j, 2.0**600, 0.5j]
)
def test_scaled_is_exact_for_every_finite_size(big):
    # the largest part goes to (0.5, 1] where the modulus overflows and
    # where 2^-e does; scaling back by 2^e restores every entry bitwise
    stack = np.array([[[big, 0.25 * big], [1e-3 * big, 0.0]], [[big, 1.0], [0.0, 0.0]]])
    with np.errstate(all="raise"):
        scaled, e = _scaled([True, False], stack)
    assert 0.5 < np.abs(scaled[0].view(np.float64)).max() <= 1.0
    assert e[1] == 0 and scaled[1].tobytes() == stack[1].tobytes()
    back = np.ldexp(scaled[0].view(np.float64), e[0]).view(np.complex128)
    assert back.tobytes() == stack[0].tobytes()
