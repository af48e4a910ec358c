import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdrcv.errors import NearSingularMatrixError, ValidationError
from mdrcv.linalg import inv_sqrt_symmetric


def test_one_by_one_matrix():
    assert inv_sqrt_symmetric(np.array([[4.0]]))[0, 0] == pytest.approx(0.5)


def test_inv_sqrt_whitens():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    spd = b @ b.T + 0.5 * np.eye(4)
    w = inv_sqrt_symmetric(spd)
    assert np.allclose(w @ spd @ w, np.eye(4), atol=1e-9)


@given(
    b=arrays(
        np.float64,
        st.sampled_from([(2, 2), (3, 3), (5, 5)]),
        elements=st.floats(-5, 5, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_inv_sqrt_whitens_random_spd(b):
    spd = b @ b.T + np.eye(b.shape[0])
    w = inv_sqrt_symmetric(spd)
    assert np.allclose(w, w.T, atol=1e-12)
    assert np.allclose(w @ spd @ w, np.eye(b.shape[0]), atol=1e-9)


def test_near_singular_raises():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 2 and 0
    with pytest.raises(NearSingularMatrixError):
        inv_sqrt_symmetric(mat)


def test_asymmetric_input_rejected():
    with pytest.raises(ValidationError):
        inv_sqrt_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


@given(
    b=arrays(
        np.float64,
        st.sampled_from([(1, 2, 2), (4, 2, 2), (3, 3, 3), (2, 3, 4, 4)]),
        elements=st.floats(-5, 5, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_stack_matches_matrix_by_matrix(b):
    spd = b @ b.swapaxes(-1, -2) + np.eye(b.shape[-1])
    got = inv_sqrt_symmetric(spd)
    want = np.array([inv_sqrt_symmetric(m) for m in spd.reshape((-1,) + spd.shape[-2:])])
    assert np.array_equal(got, want.reshape(spd.shape))


def test_near_singular_matrix_anywhere_in_stack_raises():
    stack = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)])
    with pytest.raises(NearSingularMatrixError):
        inv_sqrt_symmetric(stack)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_non_square_input_rejected(shape):
    with pytest.raises(ValidationError, match="square"):
        inv_sqrt_symmetric(np.ones(shape))
