import tracemalloc

import numpy as np
import pytest

from einverse import (
    ShapeError,
    Tensor,
    TensorShape,
    block2x2,
    chain,
    column_block,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    kronecker,
    row_block,
    transpose,
    unit_tensor,
    unvec,
    vec,
    zeros,
    zeros_like,
)
from conftest import rdist, rt
from golden_data import MP_A, ROL14_A, ROL14_B, ROL14_C


def naive_einstein(a: Tensor, b: Tensor, n: int) -> Tensor:
    """Triple-loop contraction oracle, independent of the matmul kernel."""
    free_a = a.extents[: a.order - n]
    free_b = b.extents[n:]
    contracted = b.extents[:n]
    out = np.zeros(free_a + free_b, dtype=complex)
    for ia in np.ndindex(*free_a):
        for ib in np.ndindex(*free_b):
            acc = 0.0 + 0.0j
            for k in np.ndindex(*contracted):
                acc += a.data[ia + k] * b.data[k + ib]
            out[ia + ib] = acc
    return Tensor(out, len(free_a))


def test_chain_of_one_factor_is_the_factor():
    a = rt([2, 2], [3], seed=40)
    assert chain(a) is a


def test_chain_matches_nested_products_bit_for_bit():
    a = rt([2, 2], [3, 2], seed=41)
    b = rt([3, 2], [2], seed=42)
    c = rt([2], [3, 2], seed=43)
    nested = einstein_product(einstein_product(a, b, 2), c, 1)
    got = chain(a, b, c)
    assert got.shape == nested.shape
    assert np.array_equal(got.data, nested.data)


def nested_chain(*factors: Tensor) -> Tensor:
    """The chain as one ``einstein_product`` per step, each contracting the column group so far."""
    acc = factors[0]
    for f in factors[1:]:
        acc = einstein_product(acc, f, acc.order - acc.split)
    return acc


def test_full_contraction_is_order_zero():
    a = rt([], [2, 3], seed=44)
    b = rt([2, 3], [], seed=45)
    for t in (einstein_product(a, b, 2), chain(a, b)):
        assert (t.extents, t.split) == ((), 0)
        assert abs(t.data[()] - np.sum(a.data * b.data)) <= 1e-14
    # a chain goes on from the order-0 product exactly as nested products do
    c = rt([], [1, 2], seed=46)
    got, nested = chain(a, b, c), nested_chain(a, b, c)
    assert got.shape == nested.shape == TensorShape((1, 2), 0)
    assert np.array_equal(got.data, nested.data)


@pytest.mark.parametrize(
    "factors",
    [
        lambda: (rt([2], [], seed=47), rt([2], [3], seed=48)),
        lambda: (rt([2], [3], seed=47), rt([3], [], seed=48), rt([2], [2], seed=49)),
        lambda: (rt([], [3], seed=47), rt([3], [], seed=48), rt([], [2], seed=49)),
    ],
    ids=["nothing-to-contract", "empty-column-group-midway", "through-order-zero"],
)
def test_chain_agrees_with_nested_products_through_an_empty_column_group(factors):
    fs = factors()
    got, nested = chain(*fs), nested_chain(*fs)
    assert got.shape == nested.shape
    assert np.array_equal(got.data, nested.data)


@pytest.mark.parametrize(
    "factors",
    [
        lambda: (rt([2], [3], seed=47), rt([4], [2], seed=48)),
        lambda: (rt([2], [3], seed=47), rt([3], [4, 5], seed=48), rt([4, 6], [2], seed=49)),
        lambda: (rt([2], [3], seed=47), rt([3], [4, 5], seed=48), rt([4], [], seed=49)),
    ],
    ids=["first-step-differs", "later-step-differs", "too-few-axes"],
)
def test_chain_raises_the_nested_products_messages(factors):
    fs = factors()
    with pytest.raises(ShapeError) as want:
        nested_chain(*fs)
    with pytest.raises(ShapeError) as got:
        chain(*fs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "b, n",
    [
        (rt([512], [2], seed=3), 3),
        (Tensor(np.ones(512), 1), 2),
        (rt([3], [2], seed=4), 1),
    ],
    ids=["n-beyond-a", "n-beyond-b", "extents-differ"],
)
def test_non_conformable_product_names_both_operands_without_copying_them(b, n):
    a = Tensor(np.ones((512, 512), dtype=complex), 1)  # 4 MiB of entries
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError) as exc:
            einstein_product(a, b, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"cannot contract the last {n} axes of extents (512, 512) with {b!r}"
    assert peak < 256 * 1024


def test_identity_contraction():
    i = unit_tensor([2, 2])
    assert frobenius_distance(einstein_product(i, MP_A, 2), MP_A) == 0.0
    assert frobenius_distance(einstein_product(i, ROL14_A, 2), ROL14_A) == 0.0


def test_golden_product_entries():
    c = einstein_product(ROL14_A, ROL14_B, 2)
    assert frobenius_distance(c, ROL14_C) == 0.0


def test_matches_naive_loop_oracle():
    a = rt([2, 3], [2, 2], seed=21)
    b = rt([2, 2], [3], seed=22)
    got = einstein_product(a, b, 2)
    want = naive_einstein(a, b, 2)
    assert got.split == want.split
    assert np.abs(got.data - want.data).max() <= 1e-13


def test_contraction_shape_errors():
    a = rt([2], [3], seed=1)
    b = rt([2], [2], seed=2)
    with pytest.raises(ShapeError):
        einstein_product(a, b, 1)
    with pytest.raises(ShapeError, match="n >= 0"):
        einstein_product(a, b, -1)
    with pytest.raises(ShapeError):
        einstein_product(a, b, 3)
    # no axes contracted is the outer product, never a shape error
    outer = einstein_product(a, b, 0)
    assert outer.shape == TensorShape((2, 3, 2, 2), 2)
    assert np.abs(outer.as_matrix() - np.outer(a.data, b.data)).max() <= 1e-15


def test_associativity():
    a = rt([2, 3], [3, 2], seed=31)
    b = rt([3, 2], [2, 2], seed=32)
    c = rt([2, 2], [3], seed=33)
    left = einstein_product(einstein_product(a, b, 2), c, 2)
    right = einstein_product(a, einstein_product(b, c, 2), 2)
    assert rdist(left, right) <= 1e-12


def test_kronecker_with_scalar_like_unit():
    one = unit_tensor([1])
    k = kronecker(MP_A, one)
    assert k.extents == (4, 1, 4, 1)
    assert np.array_equal(k.data.reshape(4, 4), MP_A.as_matrix())


def test_kronecker_mixed_product_law():
    a = rt([2, 2], [3, 2], seed=41)
    b = rt([2], [3], seed=42)
    c = rt([3, 2], [2, 2], seed=43)
    d = rt([3], [2], seed=44)
    lhs = einstein_product(kronecker(a, b), kronecker(c, d), 2)
    rhs = kronecker(einstein_product(a, c, 2), einstein_product(b, d, 1))
    assert rdist(lhs, rhs) <= 1e-12


def test_kronecker_conj_transpose_law():
    a = rt([2, 2], [3, 2], seed=45)
    b = rt([2], [3], seed=46)
    lhs = conj_transpose(kronecker(a, b))
    rhs = kronecker(conj_transpose(a), conj_transpose(b))
    assert frobenius_distance(lhs, rhs) == 0.0


def test_kronecker_bilinearity():
    a = rt([2], [2], seed=47)
    b = rt([3], [2], seed=48)
    c = rt([3], [2], seed=49)
    assert rdist(kronecker(a, b + c), kronecker(a, b) + kronecker(a, c)) <= 1e-13
    assert rdist(kronecker(b + c, a), kronecker(b, a) + kronecker(c, a)) <= 1e-13


def test_kronecker_associativity():
    a = rt([2], [2], seed=50)
    b = rt([3], [2], seed=51)
    c = rt([2], [3], seed=52)
    lhs = kronecker(a, kronecker(b, c))
    rhs = kronecker(kronecker(a, b), c)
    assert np.abs(lhs.as_matrix() - rhs.as_matrix()).max() <= 1e-13


def test_kronecker_not_commutative():
    a = rt([2], [2], seed=53)
    b = rt([2], [2], seed=54)
    assert frobenius_distance(kronecker(a, b), kronecker(b, a)) > 0.1


def test_vec_of_unit():
    v = vec(unit_tensor([2]))
    assert v.extents == (2, 2)
    assert v.split == 2
    assert np.array_equal(v.data.ravel(), [1, 0, 0, 1])


def test_vec_golden_first_subblock():
    v = vec(MP_A)
    assert v.extents == (4, 2, 2)
    # subblock for row multi-index (1,1) in canonical column order
    assert np.array_equal(v.data[0].ravel(), [0, 0, 1, 1])


def test_vec_kronecker_identity():
    a = rt([2, 2], [3, 2], seed=61)
    b = rt([2], [3], seed=62)
    d = rt([3, 2], [3], seed=63)
    lhs = einstein_product(kronecker(a, b), vec(d), 2)
    rhs = vec(
        einstein_product(einstein_product(a, d, 2), transpose(b), 1)
    )
    assert rdist(lhs, rhs) <= 1e-12


def test_unvec_round_trip():
    a = rt([2, 3], [2, 2], seed=64)
    assert frobenius_distance(unvec(vec(a), a.shape), a) == 0.0
    with pytest.raises(ShapeError) as exc:
        unvec(vec(a), TensorShape((5, 5), 1))
    assert str(exc.value) == (
        "cannot reshape Tensor(6x2x2 | ()) into TensorShape(extents=(5, 5), split=1)"
    )


def test_row_block_zero_padding_layout():
    a = rt([2], [2, 2], seed=71)
    b = rt([2], [3, 2], seed=72)
    rb = row_block(a, b)
    assert rb.extents == (2, 5, 4)
    assert np.array_equal(rb.data[:, :2, :2], a.data)
    assert np.array_equal(rb.data[:, 2:, 2:], b.data)
    assert np.all(rb.data[:, :2, 2:] == 0)
    assert np.all(rb.data[:, 2:, :2] == 0)


def test_row_block_padding_recovers_operand():
    a = rt([2, 2], [2, 2], seed=73)
    o = zeros_like(a)
    i = unit_tensor([2, 2])
    oi = zeros((2, 2, 2, 2), 2)
    picked = einstein_product(row_block(a, o), column_block(i, oi), 2)
    assert rdist(picked, a) <= 1e-13


def test_column_block_is_transpose_composition():
    c = rt([3, 2], [2, 2], seed=74)
    d = rt([2, 2], [2, 2], seed=75)
    direct = column_block(c, d)
    composed = transpose(row_block(transpose(c), transpose(d)))
    assert frobenius_distance(direct, composed) == 0.0


def test_block_shape_errors():
    with pytest.raises(ShapeError):
        row_block(rt([2], [2], seed=1), rt([3], [2], seed=2))
    with pytest.raises(ShapeError) as exc:
        row_block(rt([2], [2], seed=1), rt([2], [2, 2], seed=2))
    assert str(exc.value) == "column group ranks differ: Tensor(2 | 2) vs Tensor(2 | 2x2)"
    with pytest.raises(ShapeError):
        column_block(rt([2], [2], seed=1), rt([2], [3], seed=2))


@pytest.mark.parametrize("seed", range(1, 6))
def test_block_product_laws(seed):
    i_ext, l_ext, j_ext, k_ext, s_ext = [2, 2], [2, 3], [3, 2], [2, 2], [2, 2]
    a1 = rt(i_ext, j_ext, seed=100 + seed)
    b1 = rt(i_ext, k_ext, seed=200 + seed)
    a2 = rt(l_ext, j_ext, seed=300 + seed)
    b2 = rt(l_ext, k_ext, seed=400 + seed)
    c = rt(j_ext, i_ext, seed=500 + seed)
    d = rt(k_ext, i_ext, seed=600 + seed)
    f = rt(i_ext, i_ext, seed=700 + seed)
    g = rt(s_ext, i_ext, seed=800 + seed)
    h = rt(s_ext, l_ext, seed=900 + seed)
    ab = row_block(a1, b1)
    cd = column_block(c, d)
    two = block2x2(a1, b1, a2, b2)

    e = lambda x, y: einstein_product(x, y, 2)
    # (a) row blocks distribute over a left factor
    assert rdist(e(f, ab), row_block(e(f, a1), e(f, b1))) <= 1e-12
    # (b) column blocks distribute over a right factor
    assert rdist(e(cd, f), column_block(e(c, f), e(d, f))) <= 1e-12
    # (c) row times column contracts to a sum
    assert rdist(e(ab, cd), e(a1, c) + e(b1, d)) <= 1e-12
    # (d) column times row fills a 2x2 arrangement
    want = block2x2(e(c, a1), e(c, b1), e(d, a1), e(d, b1))
    assert rdist(e(cd, ab), want) <= 1e-12
    # (e) 2x2 times column
    want = column_block(e(a1, c) + e(b1, d), e(a2, c) + e(b2, d))
    assert rdist(e(two, cd), want) <= 1e-12
    # (f) row times 2x2
    want = row_block(e(g, a1) + e(h, a2), e(g, b1) + e(h, b2))
    assert rdist(e(row_block(g, h), two), want) <= 1e-12
