import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einverse import (
    ShapeError,
    Tensor,
    TensorShape,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    is_hermitian,
    is_idempotent,
    is_unitary,
    pinv,
    transpose,
    unit_tensor,
    zeros,
)
from conftest import rt
from golden_data import MP_A, MP_B, ROL14_T


def test_from_flat_zero_tensor():
    o = Tensor.from_flat((2, 2, 2, 2), 2, [0.0] * 16)
    assert np.all(o.data == 0)
    assert o.row_count == o.col_count == 4


def test_from_flat_identity_entries():
    t = Tensor.from_flat((2, 2), 1, [1, 0, 0, 1])
    assert frobenius_distance(t, unit_tensor([2])) == 0.0


def test_from_flat_length_mismatch():
    with pytest.raises(ShapeError):
        Tensor.from_flat((2, 2), 1, [1, 0, 0])


def test_golden_entry_placement():
    # one-based multi-index (2,2,1,1) carries the value 1
    assert MP_A.data[1, 1, 0, 0] == 1.0
    assert MP_A.data[0, 0, 1, 0] == 1.0  # block (2,1), row 1, col 1


def test_shape_validation():
    with pytest.raises(ShapeError):
        TensorShape((2, 0, 2), 1)
    with pytest.raises(ShapeError):
        TensorShape((2, 2), 3)
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2)), -1)


def test_conj_transpose_identity():
    i = unit_tensor([2, 2])
    assert frobenius_distance(conj_transpose(i), i) == 0.0


def test_conj_transpose_golden_entry():
    at = conj_transpose(MP_A)
    assert at.data[0, 0, 1, 1] == 1.0  # conj of entry (2,2,1,1)


def test_conj_transpose_involution_exact():
    t = rt([2, 3], [2, 2], seed=11)
    back = conj_transpose(conj_transpose(t))
    assert np.array_equal(back.data, t.data)
    assert back.split == t.split


def test_transpose_does_not_conjugate():
    t = rt([2], [3], seed=5)
    assert np.array_equal(transpose(t).data, t.data.T)
    assert np.array_equal(conj_transpose(t).data, t.data.T.conj())


@settings(max_examples=60, deadline=None)
@given(
    extents=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    data=st.data(),
)
def test_linearization_bijectivity(extents, data):
    split = data.draw(st.integers(0, len(extents)))
    n = math.prod(extents)
    t = Tensor.from_flat(extents, split, np.arange(n))
    seen = sorted(int(t.data[idx].real) for idx in np.ndindex(*extents))
    assert seen == list(range(n))


def test_linearization_order_matches_t_formula():
    # t = i_N + sum (i_K - 1) * prod I_L, one-based; C order realizes it.
    extents = (2, 3, 2)
    t = Tensor.from_flat(extents, 1, np.arange(12))
    for i1 in range(2):
        for i2 in range(3):
            for i3 in range(2):
                lin = i3 + 2 * (i2 + 3 * i1)
                assert t.data[i1, i2, i3] == lin


def test_unit_tensor_small():
    assert np.array_equal(unit_tensor([2]).data, np.eye(2))
    u = unit_tensor([2, 2])
    assert u.data.sum() == 4.0
    assert u.data[0, 1, 0, 1] == 1.0
    assert u.data[0, 1, 1, 0] == 0.0


def test_unit_tensor_empty_extents_rejected():
    with pytest.raises(ShapeError):
        unit_tensor([])


def test_unit_tensor_structural_predicates_at_tol_zero():
    u = unit_tensor([2, 2])
    assert is_hermitian(u, tol=0.0)
    assert is_unitary(u, tol=0.0)
    assert is_idempotent(u, tol=0.0)


def test_published_witness_tensor_is_not_hermitian():
    assert not is_hermitian(ROL14_T)
    assert frobenius_distance(conj_transpose(ROL14_T), ROL14_T) > 1.0


def test_symmetrization_is_hermitian():
    a = rt([2, 2], [2, 2], seed=3)
    assert is_hermitian(a + conj_transpose(a))


def test_predicates_require_square():
    t = rt([2, 3], [2, 2], seed=1)
    for pred in (is_hermitian, is_unitary, is_idempotent):
        with pytest.raises(ShapeError):
            pred(t)


def test_frobenius_distance_basics():
    a = rt([2, 2], [2], seed=9)
    assert frobenius_distance(a, a) == 0.0
    o = zeros((2, 2), 1)
    assert frobenius_distance(o, unit_tensor([2])) == pytest.approx(math.sqrt(2))
    with pytest.raises(ShapeError):
        frobenius_distance(a, rt([2], [2, 2], seed=9))


def test_frobenius_distance_golden_pair_direct_summation():
    total = sum(abs(x) ** 2 for x in (MP_A.data - MP_B.data).ravel())
    assert frobenius_distance(MP_A, MP_B) == pytest.approx(math.sqrt(total.real))
    assert frobenius_distance(MP_A, MP_B) == pytest.approx(math.sqrt(15.0))


def test_json_round_trip_value_exact():
    values = [0.1, -1.0 / 3.0, 2.0**-1074, -(2.0**1023), 0.0, -0.0, 1e301]
    t = Tensor.from_flat((7,), 1, [complex(v, -v) for v in values])
    doc = json.loads(json.dumps(t.to_json_dict()))
    back = Tensor.from_json_dict(doc)
    assert np.array_equal(back.data, t.data)
    assert back.split == t.split


def test_json_omits_im_for_real_tensors():
    doc = MP_A.to_json_dict()
    assert "im" not in doc
    assert Tensor.from_json_dict(doc).split == 2
    doc_c = rt([2], [2], seed=4).to_json_dict()
    assert "im" in doc_c


def test_json_rejects_malformed_documents():
    with pytest.raises(ShapeError):
        Tensor.from_json_dict({"extents": [2, 2], "split": 1, "re": [1.0]})
    with pytest.raises(ShapeError):
        Tensor.from_json_dict({"split": 1, "re": [1.0]})
    with pytest.raises(ShapeError):
        Tensor.from_json_dict(
            {"extents": [2], "split": 1, "re": [1.0, 2.0], "im": [0.0]}
        )
    for doc in (
        {"extents": [2, 2], "split": 1, "re": ["x", 1.0, 2.0, 3.0]},
        {"extents": [-2, 2], "split": 1, "re": [1.0, 2.0, 3.0, 4.0]},
        {"extents": [2, 2], "split": 3, "re": [1.0, 2.0, 3.0, 4.0]},
        {"extents": [2], "split": 1, "re": [1.0, 10**400]},
        {"extents": [2], "split": 1, "re": [1.0, 2.0], "im": [{}, 0.0]},
        [2, 1, [1.0, 2.0]],
        # JSON types outside the schema, which conversion alone would accept
        {"extents": "22", "split": 1, "re": [1.0, 2.0, 3.0, 4.0]},
        {"extents": [2.5, 2], "split": 1, "re": [1.0, 2.0, 3.0, 4.0]},
        {"extents": [2, 2], "split": True, "re": [1.0, 2.0, 3.0, 4.0]},
        {"extents": [2, 2], "split": 1.0, "re": [1.0, 2.0, 3.0, 4.0]},
        {"extents": [2, 2], "split": 1, "re": ["1", 2.0, 3.0, 4.0]},
        {"extents": [2, 2], "split": 1, "re": [True, 2.0, 3.0, 4.0]},
        {"extents": [2, 2], "split": 1, "re": [[1.0, 2.0], [3.0, 4.0]]},
        {"extents": [2], "split": 1, "re": [1.0, 2.0], "im": [0.0, False]},
        {"extents": [], "split": 0, "re": [1.0]},
    ):
        with pytest.raises(ShapeError, match="malformed tensor document"):
            Tensor.from_json_dict(doc)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ShapeError, match="'re' has non-finite values"):
            Tensor.from_json_dict({"extents": [2], "split": 1, "re": [1.0, bad]})
        with pytest.raises(ShapeError, match="'im' has non-finite values"):
            Tensor.from_json_dict({"extents": [1], "split": 1, "re": [0.0], "im": [bad]})


def test_tensor_is_immutable():
    t = rt([2], [2], seed=8)
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0
    with pytest.raises(AttributeError):
        t.split = 0


SYMMETRIC = [[2.0, 1.0], [1.0, 3.0]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Tensor(np.array(SYMMETRIC), 1),
        lambda: einstein_product(unit_tensor([2]), Tensor(np.array(SYMMETRIC), 1), 1),
        lambda: Tensor.from_json_dict({"extents": [2, 2], "split": 1, "re": [2, 1, 1, 3]}),
    ],
    ids=["array", "product", "json"],
)
def test_data_cannot_be_made_writable(build):
    t = build()
    x = pinv(t)
    with pytest.raises(ValueError):
        t.data.setflags(write=True)
    assert t.data[0, 0] == 2.0
    assert pinv(t) is x


def test_read_only_view_of_writable_array_is_copied():
    m = np.zeros((2, 2), dtype=np.complex128)
    v = m.view()
    v.setflags(write=False)
    t = Tensor(v, 1)
    m[0, 0] = 1
    assert t.data[0, 0] == 0


def test_views_of_tensors_are_adopted_without_copy():
    t = rt([2, 3], [2, 2], seed=12)
    assert np.shares_memory(Tensor(t.as_matrix(), 1).data, t.data)
