import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdrcv.errors import ValidationError
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
    # nothing is raised: the matrix's result is all NaN
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 2 and 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inv_sqrt_symmetric(mat)
    assert got.shape == (2, 2) and np.all(np.isnan(got))


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
    # nothing is raised: the near-singular member alone is all NaN
    stack = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)])
    got = inv_sqrt_symmetric(stack)
    assert np.all(np.isnan(got[1]))
    assert np.array_equal(got[[0, 2]], inv_sqrt_symmetric(stack[[0, 2]]))
    assert np.allclose(got[2], np.eye(2) / np.sqrt(2.0), rtol=1e-15)


@st.composite
def mixed_stacks(draw):
    """(stack, ok): symmetric (B, s, s) stacks of SPD members (``ok``) mixed
    with rank-deficient and indefinite ones."""
    s = draw(st.sampled_from([2, 3]))
    kinds = draw(st.lists(st.sampled_from(["spd", "rank1", "indefinite", "negative"]),
                          min_size=1, max_size=8))
    stack = []
    for kind in kinds:
        b = draw(arrays(np.float64, (s, s), elements=st.floats(-5, 5, allow_nan=False)))
        if kind == "spd":
            stack.append(b @ b.T + np.eye(s))
        elif kind == "rank1":  # eigenvalues |v|^2 and 0; v = 0 gives the zero matrix
            stack.append(np.outer(b[0], b[0]))
        elif kind == "indefinite":  # [[0, 1], [1, 0]] (eigenvalues 1 and -1), scaled
            m = np.eye(s)
            m[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
            stack.append((1.0 + abs(b[0, 0])) * m)
        else:
            stack.append(-(b @ b.T + np.eye(s)))
    return np.array(stack), np.array([k == "spd" for k in kinds])


@given(case=mixed_stacks())
@settings(max_examples=60, deadline=None)
def test_near_singular_members_are_nan_and_the_others_unchanged(case):
    stack, ok = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no sqrt of a small or negative eigenvalue
        got = inv_sqrt_symmetric(stack)
        want = inv_sqrt_symmetric(stack[ok])
    assert np.all(np.isnan(got[~ok]))
    assert np.array_equal(got[ok], want)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_non_square_input_rejected(shape):
    with pytest.raises(ValidationError, match="square"):
        inv_sqrt_symmetric(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_entry_rejected(bad):
    with pytest.raises(ValidationError, match="^matrix contains non-finite entries$"):
        inv_sqrt_symmetric(np.array([[1.0, bad], [bad, 1.0]]))
