import numpy as np
import pytest

from einverse import (
    NumericError,
    Tensor,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    kronecker,
    matrix_pinv,
    penrose_check,
    pinv,
    svd,
    transpose,
    unit_tensor,
)
from conftest import rdist, rt
from golden_data import MP_A, MP_B, MP_B_PINV


def test_flatten_unit_is_identity_matrix():
    m = unit_tensor([2, 2]).as_matrix()
    assert m.shape == (4, 4)
    assert np.array_equal(m, np.eye(4))


def test_flatten_golden_homomorphism():
    ab = einstein_product(MP_A, MP_B, 2)
    assert np.abs(MP_A.as_matrix() @ MP_B.as_matrix() - ab.as_matrix()).max() == 0.0


def test_unflatten_transposed_partition_is_transpose():
    t = rt([2, 3], [2, 2], seed=8)
    swapped = t.shape.swapped()
    back = Tensor(t.as_matrix().T.reshape(swapped.extents), swapped.split)
    assert frobenius_distance(back, transpose(t)) == 0.0


def test_matrix_pinv_identity_and_zero():
    assert np.abs(matrix_pinv(np.eye(3)) - np.eye(3)).max() <= 1e-14
    z = matrix_pinv(np.zeros((2, 4)))
    assert z.shape == (4, 2)
    assert np.all(z == 0)


def test_matrix_pinv_golden_block():
    got = matrix_pinv(MP_B.as_matrix())
    assert got.shape == (MP_B.col_count, MP_B.row_count)
    assert np.abs(got - MP_B_PINV.as_matrix()).max() <= 1e-10
    # spot-check the fractional block: rows (i,j), fixed column pair (2,1)
    y = got.reshape(MP_B.shape.swapped().extents)
    assert y[:, :, 1, 0] == pytest.approx(np.array([[0, -0.5], [0, 0.5]]))


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
    # 0 keeps every non-zero singular value, and 1 or more keeps none
    singular = np.diag([1.0, 0.0])
    assert np.array_equal(matrix_pinv(singular, rank_tol=0.0), singular)
    for rank_tol in (1.0, 2.0, float("inf")):
        assert not matrix_pinv(m, rank_tol=rank_tol).any()
    # a zero sigma_max gives the cutoff 0, not inf * 0: NaN, with numpy's invalid-value warning
    for zero in (np.zeros((2, 2)), np.zeros((2, 3))):
        got = matrix_pinv(zero, rank_tol=float("inf"))
        assert got.shape == zero.T.shape and not got.any()


@pytest.mark.parametrize("rank_tol", [float("nan"), -1.0, -0.5e-16])
def test_matrix_pinv_refuses_nan_or_negative_rank_tol_before_the_svd(rank_tol, svd_calls):
    # NaN would drop every singular value, and a negative one divide by a zero one
    with pytest.raises(ValueError, match=f"^rank_tol must be >= 0, not {rank_tol}$"):
        matrix_pinv(np.diag([1.0, 0.0]), rank_tol=rank_tol)
    assert svd_calls == []


@pytest.mark.parametrize("seed", range(1, 101))
def test_homomorphism_oracle(seed):
    a = rt([2, 3], [3, 2], seed=seed)
    b = rt([3, 2], [2, 2], seed=1000 + seed)
    lhs = einstein_product(a, b, 2).as_matrix()
    rhs = a.as_matrix() @ b.as_matrix()
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_flatten_commutes_with_conj_transpose():
    t = rt([2, 3], [2, 2], seed=17)
    assert np.array_equal(conj_transpose(t).as_matrix(), t.as_matrix().conj().T)


def test_flatten_commutes_with_kronecker():
    a = rt([2, 2], [3, 2], seed=18)
    b = rt([2], [3], seed=19)
    lhs = kronecker(a, b).as_matrix()
    rhs = np.kron(a.as_matrix(), b.as_matrix())
    assert np.array_equal(lhs, rhs)


def _svd_not_converging(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_failed_svd_is_retried_with_gesvd(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _svd_not_converging)
    a = rt([2, 3], [2, 2], seed=31)
    assert penrose_check(a, pinv(a)).all_satisfied


def test_tensor_svd_is_retried_with_gesvd(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _svd_not_converging)
    a = rt([2, 3], [3, 2], seed=32)
    assert rdist(svd(a).reconstruct(), a) <= 1e-12


def test_svd_failing_in_both_drivers_raises_numeric_error(monkeypatch):
    import scipy.linalg

    monkeypatch.setattr(np.linalg, "svd", _svd_not_converging)
    monkeypatch.setattr(scipy.linalg, "svd", _svd_not_converging)
    with pytest.raises(NumericError, match="SVD failed: SVD did not converge"):
        matrix_pinv(np.eye(3))


def test_non_finite_input_raises_numeric_error():
    with pytest.raises(NumericError):
        matrix_pinv(np.full((3, 3), np.nan))


NEAR_MAX = Tensor(np.array([[1.7e308, 1.6e308], [1.5e308, 1.4e308]]), 1)


@pytest.mark.parametrize("gesvd", [False, True], ids=["gesdd", "gesvd"])
@pytest.mark.parametrize("compute", [pinv, lambda t: matrix_pinv(t.as_matrix()), svd],
                         ids=["pinv", "matrix_pinv", "svd"])
def test_singular_value_beyond_the_double_range_raises_numeric_error(compute, gesvd, monkeypatch):
    # sigma is (inf, 6.4e305): a cutoff of inf would drop every singular value and
    # make the inverse zero without a word, with either driver
    if gesvd:
        monkeypatch.setattr(np.linalg, "svd", _svd_not_converging)
    with pytest.raises(NumericError, match="a singular value is beyond the double range"):
        compute(NEAR_MAX)


@pytest.mark.parametrize("m, rank_tol", [
    (np.array([[1.0, 0.0], [0.0, 1e-320]]), 0.0),
    (np.diag([1e-310, 1e-310]), None),
], ids=["kept-1e-320", "diagonal-1e-310"])
def test_inverse_beyond_the_double_range_raises_numeric_error(m, rank_tol):
    # 1 / sigma overflows: refused as one error, not returned as NaN entries with warnings
    with pytest.raises(NumericError, match="^pseudoinverse failed: an entry is beyond the "
                                           r"double range \(smallest kept singular value "):
        matrix_pinv(m, rank_tol=rank_tol)
