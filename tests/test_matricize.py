import numpy as np
import pytest

from einverse import (
    FlatMatrix,
    NumericError,
    ShapeError,
    TensorShape,
    conj_transpose,
    einstein_product,
    flatten,
    frobenius_distance,
    kronecker,
    matrix_pinv,
    penrose_check,
    pinv,
    transpose,
    unflatten,
    unit_tensor,
)
from conftest import rt
from golden_data import MP_A, MP_B, MP_B_PINV


def test_flatten_unit_is_identity_matrix():
    m = flatten(unit_tensor([2, 2]))
    assert m.rows == m.cols == 4
    assert np.array_equal(m.data, np.eye(4))


def test_flatten_golden_homomorphism():
    fa = flatten(MP_A).data
    fb = flatten(MP_B).data
    ab = einstein_product(MP_A, MP_B, 2)
    assert np.abs(fa @ fb - flatten(ab).data).max() == 0.0


def test_round_trip_exact():
    t = rt([2, 3], [2, 2], seed=7)
    back = unflatten(flatten(t), t.shape)
    assert np.array_equal(back.data, t.data)
    assert back.split == t.split


def test_unflatten_transposed_partition_is_transpose():
    t = rt([2, 3], [2, 2], seed=8)
    m = flatten(t)
    back = unflatten(m.data.T, t.shape.swapped())
    assert frobenius_distance(back, transpose(t)) == 0.0


def test_unflatten_dimension_mismatch():
    with pytest.raises(ShapeError):
        unflatten(np.zeros((2, 3)), TensorShape((2, 2), 1))


def test_flatmatrix_provenance_consistency():
    with pytest.raises(ShapeError):
        FlatMatrix(np.zeros((2, 3)), TensorShape((2, 2), 1))


def test_matrix_pinv_identity_and_zero():
    eye = FlatMatrix(np.eye(3), TensorShape((3, 3), 1))
    assert np.abs(matrix_pinv(eye).data - np.eye(3)).max() <= 1e-14
    z = matrix_pinv(np.zeros((2, 4)))
    assert z.shape == (4, 2)
    assert np.all(z == 0)


def test_matrix_pinv_golden_block():
    got = matrix_pinv(flatten(MP_B))
    assert got.provenance == MP_B.shape.swapped()
    want = flatten(MP_B_PINV).data
    assert np.abs(got.data - want).max() <= 1e-10
    # spot-check the fractional block: rows (i,j), fixed column pair (2,1)
    y = unflatten(got, MP_B.shape.swapped())
    assert y.data[:, :, 1, 0] == pytest.approx(np.array([[0, -0.5], [0, 0.5]]))


def test_matrix_pinv_defining_equations():
    m = rt([2, 2], [3], seed=13).as_matrix()
    p = matrix_pinv(m)
    assert np.linalg.norm(m @ p @ m - m) / (1 + np.linalg.norm(m)) <= 1e-10
    assert np.linalg.norm(p @ m @ p - p) / (1 + np.linalg.norm(p)) <= 1e-10
    assert np.linalg.norm((m @ p).conj().T - m @ p) <= 1e-10
    assert np.linalg.norm((p @ m).conj().T - p @ m) <= 1e-10


def test_matrix_pinv_rank_tol_truncates():
    m = np.diag([1.0, 1e-5])
    sharp = matrix_pinv(m, rank_tol=1e-8)
    blunt = matrix_pinv(m, rank_tol=1e-3)
    assert sharp[1, 1] == pytest.approx(1e5)
    assert blunt[1, 1] == 0.0


@pytest.mark.parametrize("seed", range(1, 101))
def test_homomorphism_oracle(seed):
    a = rt([2, 3], [3, 2], seed=seed)
    b = rt([3, 2], [2, 2], seed=1000 + seed)
    lhs = flatten(einstein_product(a, b, 2)).data
    rhs = flatten(a).data @ flatten(b).data
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_flatten_commutes_with_conj_transpose():
    t = rt([2, 3], [2, 2], seed=17)
    assert np.array_equal(flatten(conj_transpose(t)).data, flatten(t).data.conj().T)


def test_flatten_commutes_with_kronecker():
    a = rt([2, 2], [3, 2], seed=18)
    b = rt([2], [3], seed=19)
    lhs = flatten(kronecker(a, b)).data
    rhs = np.kron(flatten(a).data, flatten(b).data)
    assert np.array_equal(lhs, rhs)


def _svd_not_converging(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_failed_svd_is_retried_with_gesvd(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _svd_not_converging)
    a = rt([2, 3], [2, 2], seed=31)
    assert penrose_check(a, pinv(a)).all_satisfied


def test_svd_failing_in_both_drivers_raises_numeric_error(monkeypatch):
    import scipy.linalg

    monkeypatch.setattr(np.linalg, "svd", _svd_not_converging)
    monkeypatch.setattr(scipy.linalg, "svd", _svd_not_converging)
    with pytest.raises(NumericError, match="SVD failed: SVD did not converge"):
        matrix_pinv(np.eye(3))


def test_non_finite_input_raises_numeric_error():
    with pytest.raises(NumericError):
        matrix_pinv(np.full((3, 3), np.nan))
