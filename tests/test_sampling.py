import numpy as np
import pytest

from qmarginals import sampling


def test_standard_normals_deterministic_and_sane():
    z1 = sampling.standard_normals(sampling.generator(42), 20001)
    z2 = sampling.standard_normals(sampling.generator(42), 20001)
    assert np.array_equal(z1, z2)
    assert z1.shape == (20001,)
    assert abs(z1.mean()) < 0.05
    assert abs(z1.std() - 1.0) < 0.05
    assert np.isfinite(z1).all()


def test_ginibre_deterministic_per_seed():
    g1 = sampling.ginibre(sampling.generator(7), 2, 3)
    g2 = sampling.ginibre(sampling.generator(7), 2, 3)
    g3 = sampling.ginibre(sampling.generator(8), 2, 3)
    assert np.array_equal(g1, g2)
    assert np.linalg.norm(g1 - g3) > 0


def test_random_density_matrix_is_a_state():
    rho = sampling.random_density_matrix(sampling.generator(1), 4)
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_random_probability_vector():
    p = sampling.random_probability_vector(sampling.generator(3), 6)
    assert p.shape == (6,)
    assert (p > 0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_random_unitary_is_unitary(dim):
    u = sampling.random_unitary(sampling.generator(dim), dim)
    assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize(
    "seed", [None, True, np.bool_(False), 1.5, np.float64(2.0), -1, np.int64(-3), "1", [1, 2]]
)
def test_generator_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
        sampling.generator(seed)


@pytest.mark.parametrize("seed", [0, 2**70, np.int64(9), np.uint64(9)])
def test_generator_takes_any_non_negative_integer(seed):
    expected = np.random.Generator(np.random.PCG64(int(seed))).random(4)
    assert np.array_equal(sampling.generator(seed).random(4), expected)
