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
    chain,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    frobenius_norm,
    is_hermitian,
    is_idempotent,
    is_unitary,
    pinv,
    random_tensor,
    solve_axb,
    transpose,
    unit_tensor,
    unvec,
    vec,
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
    with pytest.raises(ShapeError, match="extents must all be >= 1"):
        Tensor(np.zeros((2, 0)), 1)


@pytest.mark.parametrize(
    "build",
    [lambda: zeros((-1,), 0), lambda: Tensor.from_flat((-1,), 0, []), lambda: unit_tensor([-1])],
    ids=["zeros", "from_flat", "unit_tensor"],
)
def test_constructors_refuse_negative_extents_as_shape_errors(build):
    with pytest.raises(ShapeError, match=r"extents must all be >= 1, got \(-1,\)"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: zeros((2,), 2), "split 2 out of range for 1 extents"),
        (lambda: Tensor.from_flat((2,), 2, [1, 2]), "split 2 out of range for 1 extents"),
        (lambda: Tensor(np.zeros((2, 2)), 1.5), "split must be an integer, got 1.5"),
        (lambda: zeros((2, 2), 1.0), "split must be an integer, got 1.0"),
        (lambda: random_tensor((2, 2), 1.7, 0), "split must be an integer, got 1.7"),
        (lambda: TensorShape((2, 2), 1.5), "split must be an integer, got 1.5"),
    ],
    ids=["zeros", "from_flat", "tensor-float", "zeros-float", "random-float", "shape-float"],
)
def test_constructors_refuse_a_bad_split_as_tensor_shape_does(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


@pytest.mark.parametrize(
    "build, got",
    [
        (lambda: TensorShape((2.5, 2), 1), r"\(2\.5, 2\)"),
        (lambda: TensorShape(("3", 2), 1), r"\('3', 2\)"),
        (lambda: zeros((2.5, 2), 1), r"\(2\.5, 2\)"),
        (lambda: random_tensor((2.9, 2), 1, 0), r"\(2\.9, 2\)"),
        (lambda: unit_tensor((2.7,)), r"\(2\.7,\)"),
        (lambda: Tensor.from_flat((2.5, 2), 1, np.zeros(4)), r"\(2\.5, 2\)"),
    ],
    ids=["shape-float", "shape-str", "zeros", "random", "unit_tensor", "from_flat"],
)
def test_constructors_refuse_a_non_integer_extent_as_tensor_shape_does(build, got):
    with pytest.raises(ShapeError, match=f"^extents must be integers, got {got}$"):
        build()


def test_integer_extents_of_any_index_type_are_stored_as_int():
    extents = (np.int64(2), np.int32(3))
    stored = TensorShape(extents, 1).extents
    assert stored == (2, 3) and all(type(e) is int for e in stored)
    assert unit_tensor(extents).extents == (2, 3, 2, 3)


def test_an_integer_split_of_any_index_type_is_stored_as_int():
    for split in (np.int64(1), np.int32(1)):
        t = Tensor(np.zeros((2, 2)), split)
        assert type(t.split) is int and t.split == 1
        assert type(TensorShape((2, 2), split).split) is int


def test_a_scalar_is_the_order_zero_tensor():
    t = Tensor(2.5, 0)
    assert (t.extents, t.split, t.row_count, t.col_count) == ((), 0, 1, 1)
    assert t.as_matrix().tolist() == [[2.5]]
    with pytest.raises(ShapeError, match="split 1 out of range for 0 extents"):
        Tensor(2.5, 1)


@pytest.mark.parametrize(
    "extents, split, text",
    [((3,), 1, "Tensor(3 | ())"), ((3, 1), 1, "Tensor(3 | 1)"), ((2, 3), 0, "Tensor(() | 2x3)"),
     ((), 0, "Tensor(() | ())")],
)
def test_repr_prints_an_empty_index_group_as_empty_parentheses(extents, split, text):
    assert repr(zeros(extents, split)) == text


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


def test_unit_tensor_of_no_extents_is_order_zero():
    u = unit_tensor([])
    assert (u.extents, u.split) == ((), 0)
    assert u.data[()] == 1.0


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


def test_explicit_tol_bounds_the_relative_residual():
    a = rt([2, 2], [2, 2], seed=3)
    e = rt([2, 2], [2, 2], seed=4)
    e = e * (1e-9 / frobenius_norm(e))
    near = 1e3 * (a + conj_transpose(a)) + e
    # the distance to a* exceeds the tolerance; relative to ||near||_F it is far below
    assert frobenius_distance(conj_transpose(near), near) > 1e-10
    assert is_hermitian(near, tol=1e-10)


def test_hermitian_distance_is_the_frobenius_norm():
    # every entry of a - a* is 1e-11, within the default tolerance; their norm is not
    a = Tensor(1e-11 * np.triu(np.ones((16, 16)), 1).reshape(4, 4, 4, 4), 2)
    assert np.abs(a.data - conj_transpose(a).data).max() <= 1e-10
    assert frobenius_distance(conj_transpose(a), a) > 1e-10 * (1.0 + frobenius_norm(a))
    assert not is_hermitian(a)


def test_predicates_require_square():
    t = rt([2, 3], [2, 2], seed=1)
    for pred in (is_hermitian, is_unitary, is_idempotent):
        with pytest.raises(ShapeError):
            pred(t)


def test_frobenius_distance_basics():
    a = rt([2, 2], [2], seed=9)
    assert frobenius_distance(a, a) == 0.0
    assert frobenius_distance(a, -a) == 2 * frobenius_norm(a)
    o = zeros((2, 2), 1)
    assert frobenius_distance(o, unit_tensor([2])) == pytest.approx(math.sqrt(2))
    with pytest.raises(ShapeError):
        frobenius_distance(a, rt([2], [2, 2], seed=9))


@pytest.mark.parametrize(
    "entries, norm",
    [([1e200, 2e200, 3e200, 4e200], math.sqrt(30) * 1e200),
     ([1e300 + 1e300j, 1e300j], math.sqrt(3) * 1e300),
     ([1e308, -1e308], math.sqrt(2) * 1e308),
     ([1.7e308, 1.7e308], math.inf)],
)
def test_frobenius_norm_rescales_only_where_the_squares_overflow(entries, norm):
    # the suite turns numpy's overflow warnings into errors, so the rescue must not warn
    a = Tensor(np.array(entries), 1)
    assert frobenius_norm(a) == pytest.approx(norm, rel=1e-15)
    assert frobenius_distance(a, zeros(a.extents, a.split)) == frobenius_norm(a)


def test_frobenius_distance_golden_pair_direct_summation():
    total = sum(abs(x) ** 2 for x in (MP_A.data - MP_B.data).ravel())
    assert frobenius_distance(MP_A, MP_B) == pytest.approx(math.sqrt(total.real))
    assert frobenius_distance(MP_A, MP_B) == pytest.approx(math.sqrt(15.0))


def test_json_round_trip_value_exact():
    values = [0.1, -1.0 / 3.0, 2.0**-1074, -(2.0**1023), 0.0, -0.0, 1e301]
    for entries, imag in (([complex(v, -v) for v in values], True), (values, False)):
        t = Tensor.from_flat((7,), 1, entries)
        doc = json.loads(json.dumps(t.to_json_dict()))
        assert ("im" in doc) is imag
        back = Tensor.from_json_dict(doc)
        # bit for bit: the signs of the zeros in both parts included
        assert back.data.tobytes() == t.data.tobytes()
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(back.data)), np.signbit(part(t.data)))
        assert back.split == t.split


def test_json_round_trips_an_order_zero_tensor():
    doc = {"extents": [], "split": 0, "re": [2.0]}
    t = Tensor.from_json_dict(doc)
    assert (t.extents, t.split, t.data[()]) == ((), 0, 2.0)
    assert t.to_json_dict() == doc


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
        lambda: chain(unit_tensor([2]), unit_tensor([2]), Tensor(np.array(SYMMETRIC), 1)),
        lambda: Tensor(np.array(SYMMETRIC), 1) + zeros((2, 2), 1),
        lambda: solve_axb(
            unit_tensor([2]), unit_tensor([2]), Tensor(np.array(SYMMETRIC), 1),
            g_a=unit_tensor([2]), g_b=unit_tensor([2]),
        ).generator(zeros((2, 2), 1)),
        lambda: vec(Tensor(np.array(SYMMETRIC), 1)),
        lambda: unvec(vec(Tensor(np.array(SYMMETRIC), 1)), TensorShape((2, 2), 1)),
        lambda: Tensor(Tensor(np.array(SYMMETRIC), 1).as_matrix(), 1),
    ],
    ids=["array", "product", "json", "chain", "sum", "generator", "vec", "unvec", "view"],
)
def test_data_cannot_be_made_writable(build):
    t = build()
    x = pinv(t)
    with pytest.raises(ValueError):
        t.data.setflags(write=True)
    # nor can any array reached through .base: the entries live in a bytes object
    owner = t.data.base
    while isinstance(owner, np.ndarray):
        with pytest.raises(ValueError):
            owner.setflags(write=True)
        owner = owner.base
    assert isinstance(owner, bytes)
    assert t.data[0, 0] == 2.0
    assert pinv(t) is x


def test_array_frozen_by_its_caller_is_copied():
    m = np.array(SYMMETRIC, dtype=np.complex128)
    m.setflags(write=False)
    t = Tensor(m, 1)
    x = pinv(t)
    m.setflags(write=True)
    m[0, 0] = 5
    assert t.data[0, 0] == 2.0
    assert pinv(t) is x


def test_read_only_view_of_writable_array_is_copied():
    m = np.zeros((2, 2), dtype=np.complex128)
    v = m.view()
    v.setflags(write=False)
    t = Tensor(v, 1)
    m[0, 0] = 1
    assert t.data[0, 0] == 0


def test_views_of_tensors_are_copied():
    t = rt([2, 3], [2, 2], seed=12)
    v = vec(t)  # split at the end, so its transpose permutes no axis
    for built, source in ((Tensor(t.as_matrix(), 1), t), (v, t), (unvec(v, t.shape), v),
                          (transpose(v), v)):
        assert not np.shares_memory(built.data, source.data)
