import math

import numpy as np
import pytest

from einverse import (
    LambdaKind,
    PreconditionError,
    ShapeError,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    is_hermitian,
    is_unitary,
    kronecker,
    mp_from_13_14,
    one_four_family,
    one_inverse_family,
    one_three_family,
    penrose_check,
    pinv,
    pinv_kronecker,
    reflexive_from_two,
    reverse_order_diagnose,
    svd,
    unit_tensor,
    zeros,
    zeros_like,
)
from conftest import rank_deficient, rdist, rt
from golden_data import (
    MP_A,
    MP_A_PINV,
    MP_B,
    MP_B_PINV,
    MP_C,
    MP_D,
    ROL13_A,
    ROL13_B,
    ROL13_X,
    ROL13_Y,
    ROL14_A,
    ROL14_B,
    ROL14_T,
    ROL14_X,
    ROL14_Y,
)


def e(a, b):
    return einstein_product(a, b, a.order - a.split)


class TestSvd:
    def test_unit_tensor(self):
        triple = svd(unit_tensor([2, 2]))
        assert rdist(triple.reconstruct(), unit_tensor([2, 2])) <= 1e-12

    def test_golden_reconstruction(self):
        triple = svd(MP_A)
        assert rdist(triple.reconstruct(), MP_A) <= 1e-10
        assert is_unitary(triple.u, tol=1e-12)
        assert is_unitary(triple.v, tol=1e-12)

    def test_zero_tensor_core(self):
        triple = svd(zeros((2, 2, 2, 2), 2))
        assert np.all(triple.core.data == 0)

    def test_core_is_quasi_diagonal_and_ordered(self):
        a = rt([2, 3], [3, 2], seed=23)
        triple = svd(a)
        core = triple.core.as_matrix()
        off = core - np.diag(np.diag(core))
        assert np.abs(off).max() == 0.0
        s = np.diag(core).real
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-15)
        # equal per-axis extents: zero whenever the multi-indices differ
        b = svd(rt([2, 3], [2, 3], seed=24)).core
        for idx in np.ndindex(*b.extents):
            if idx[:2] != idx[2:]:
                assert b.data[idx] == 0.0

    def test_rejects_mismatched_group_lengths(self):
        with pytest.raises(ShapeError):
            svd(rt([2, 2], [4], seed=25))


class TestPinv:
    def test_golden_values(self):
        assert np.abs(pinv(MP_A).data - MP_A_PINV.data).max() <= 1e-10
        assert np.abs(pinv(MP_B).data - MP_B_PINV.data).max() <= 1e-10

    def test_double_application(self):
        a = rt([2, 2], [3, 2], seed=26)
        assert rdist(pinv(pinv(a)), a) <= 1e-9

    def test_all_four_equations(self):
        a = rt([3, 2], [2, 2], seed=27)
        assert penrose_check(a, pinv(a)).all_satisfied

    def test_default_inverse_is_kept_on_the_tensor(self, svd_calls):
        a = rt([2, 2], [3], seed=28)
        x = pinv(a)
        assert pinv(a) is x
        assert len(svd_calls) == 1

    def test_explicit_rank_tol_always_recomputes(self, svd_calls):
        a = rt([2, 2], [3], seed=29)
        x = pinv(a)
        eps_tol = max(a.row_count, a.col_count) * np.finfo(np.float64).eps
        recomputed = [pinv(a, rank_tol=eps_tol) for _ in range(2)]
        assert len(svd_calls) == 3
        assert all(y is not x and np.array_equal(y.data, x.data) for y in recomputed)
        assert pinv(a) is x


class TestPenroseCheck:
    def test_pinv_passes(self):
        report = penrose_check(MP_A, pinv(MP_A))
        assert report.all_satisfied
        assert max(report.residuals) <= 1e-10

    def test_zero_candidate_fails_first_equation(self):
        report = penrose_check(MP_A, zeros_like(conj_transpose(MP_A)))
        assert not report.satisfied[0]

    def test_golden_counterexample_reports(self):
        ab = e(MP_A, MP_B)
        # the published product of the two inverses fails at least one equation
        wrong = penrose_check(ab, MP_D)
        assert not wrong.all_satisfied
        # while the true inverse passes all four
        right = penrose_check(ab, MP_C)
        assert right.all_satisfied

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            penrose_check(MP_A, rt([2, 2], [3, 2], seed=1))
        with pytest.raises(ShapeError):
            penrose_check(rt([2], [3], seed=2), rt([2], [3], seed=3))

    def test_report_invariant(self):
        report = penrose_check(MP_A, pinv(MP_A), tol=1e-10)
        for r, s in zip(report.residuals, report.satisfied):
            assert s == (r <= report.tolerance)


class TestFamilies:
    def test_one_inverse_fixed_points(self):
        g = pinv(MP_A)
        assert frobenius_distance(one_inverse_family(MP_A, g, g), g) <= 1e-12
        assert rdist(one_inverse_family(MP_A, g, zeros_like(g)), g) <= 1e-12

    def test_one_inverse_random_members(self):
        a = rt([2, 2], [3], seed=30)
        g = pinv(a)
        for seed in range(5):
            y = rt([3], [2, 2], seed=600 + seed)
            member = one_inverse_family(a, g, y)
            assert penrose_check(a, member).satisfied[0]

    def test_one_inverse_rejects_bad_seed_inverse(self):
        with pytest.raises(PreconditionError):
            one_inverse_family(MP_A, zeros_like(pinv(MP_A)), pinv(MP_A))

    def test_reflexive_fixed_point(self):
        g = pinv(MP_A)
        assert rdist(reflexive_from_two(MP_A, g, g), g) <= 1e-12

    def test_reflexive_from_distinct_members(self):
        a = rt([2, 2], [3], seed=31)
        g = pinv(a)
        y = one_inverse_family(a, g, rt([3], [2, 2], seed=41))
        z = one_inverse_family(a, g, rt([3], [2, 2], seed=42))
        got = penrose_check(a, reflexive_from_two(a, y, z))
        assert got.satisfied[0] and got.satisfied[1]

    def test_reflexive_repairs_nonreflexive_input(self):
        a = rank_deficient([2, 2], [3], seed=32, rank=2)
        g = pinv(a)
        # inflate a {1}-inverse until it fails the reflexivity equation
        bad = one_inverse_family(a, g, 5.0 * rt([3], [2, 2], seed=43))
        report = penrose_check(a, bad)
        assert report.satisfied[0] and not report.satisfied[1]
        repaired = penrose_check(a, reflexive_from_two(a, bad, bad))
        assert repaired.satisfied[0] and repaired.satisfied[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_one_three_members(self, seed):
        a = rank_deficient([2, 3], [2, 2], seed=33, rank=2)
        g = pinv(a)
        y = rt([2, 2], [2, 3], seed=700 + seed)
        member = one_three_family(a, g, y)
        report = penrose_check(a, member)
        assert report.satisfied[0] and report.satisfied[2]
        # the class shares one value of a x
        assert rdist(e(a, member), e(a, g)) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_one_four_members(self, seed):
        a = rank_deficient([2, 3], [2, 2], seed=34, rank=2)
        g = pinv(a)
        y = rt([2, 2], [2, 3], seed=800 + seed)
        member = one_four_family(a, g, y)
        report = penrose_check(a, member)
        assert report.satisfied[0] and report.satisfied[3]
        assert rdist(e(member, a), e(g, a)) <= 1e-9

    def test_family_zero_fixed_points(self):
        a = rt([2, 3], [2, 2], seed=35)
        g = pinv(a)
        z = zeros_like(g)
        assert frobenius_distance(one_three_family(a, g, z), g) == 0.0
        assert frobenius_distance(one_four_family(a, g, z), g) == 0.0


class TestMpFrom1314:
    def test_fixed_point(self):
        g = pinv(MP_A)
        assert rdist(mp_from_13_14(MP_A, g, g), g) <= 1e-12

    def test_golden_14_inverse_recovers_mp(self):
        got = mp_from_13_14(ROL14_A, ROL14_X, pinv(ROL14_A))
        assert rdist(got, pinv(ROL14_A)) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_random_family_members(self, seed):
        a = rank_deficient([2, 2], [3], seed=36, rank=2)
        g = pinv(a)
        g14 = one_four_family(a, g, rt([3], [2, 2], seed=900 + seed))
        g13 = one_three_family(a, g, rt([3], [2, 2], seed=950 + seed))
        assert rdist(mp_from_13_14(a, g14, g13), g) <= 1e-9

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionError):
            mp_from_13_14(MP_A, MP_D, pinv(MP_A))


class TestPinvKronecker:
    def test_unit_factors(self):
        i = unit_tensor([2])
        got = pinv_kronecker(i, i)
        assert rdist(got, kronecker(i, i)) <= 1e-12

    def test_golden_pair_cross_check(self):
        got = pinv_kronecker(MP_A, MP_B)
        assert rdist(got, kronecker(MP_A_PINV, MP_B_PINV)) <= 1e-9
        assert rdist(got, pinv(kronecker(MP_A, MP_B))) <= 1e-9

    def test_zero_factor(self):
        z = zeros((2, 2), 1)
        got = pinv_kronecker(z, rt([2], [2], seed=37))
        assert np.all(got.data == 0)


class TestReverseOrderDiagnose:
    def test_mp_golden_counterexample(self):
        diag = reverse_order_diagnose(MP_A, MP_B, LambdaKind.parse("mp"))
        assert not diag.candidate_is_inverse
        assert diag.reverse_order_holds is False
        assert diag.mp_distance > 0.5
        assert rdist(diag.candidate, MP_D) <= 1e-9
        assert not diag.sufficient_condition_holds

    def test_mp_reverse_order_holds_for_conj_transpose(self):
        a = rt([2, 2], [3], seed=38)
        diag = reverse_order_diagnose(a, conj_transpose(a), LambdaKind.parse("mp"))
        assert diag.sufficient_condition_holds
        assert diag.reverse_order_holds is True
        assert diag.candidate_is_inverse

    def test_14_example_with_published_inverses(self):
        diag = reverse_order_diagnose(
            ROL14_A, ROL14_B, LambdaKind.parse("1,4"), ga=ROL14_X, gb=ROL14_Y
        )
        assert diag.ga_is_lambda_inverse and diag.gb_is_lambda_inverse
        # both hermitian conditions fail on this pair...
        assert not diag.sufficient_condition_holds
        assert not any(c.holds for c in diag.conditions)
        # ...and the published variant quantity matches the stored witness:
        # it is visibly non-hermitian
        assert not is_hermitian(ROL14_T)
        # the product candidate is a {1}-inverse but fails equation (4)
        assert diag.candidate_report.satisfied[0]
        assert not diag.candidate_report.satisfied[3]
        assert not diag.candidate_is_inverse

    def test_13_example_with_published_inverses(self):
        diag = reverse_order_diagnose(
            ROL13_A, ROL13_B, LambdaKind.parse("1,3"), ga=ROL13_X, gb=ROL13_Y
        )
        assert diag.ga_is_lambda_inverse and diag.gb_is_lambda_inverse
        # converse-failure witness: candidate passes although the condition fails
        assert not diag.sufficient_condition_holds
        assert diag.candidate_is_inverse

    def test_one_inverse_kind_idempotency_condition(self):
        a = rt([2, 2], [2, 2], seed=39)
        diag = reverse_order_diagnose(a, pinv(a), LambdaKind.parse("1"))
        assert diag.sufficient_condition_holds
        assert diag.candidate_is_inverse

    def test_non_conformable_mp_conditions_are_nan_and_fail(self):
        a, b = rt([2], [3], seed=3), rt([3], [4], seed=4)
        diag = reverse_order_diagnose(a, b, LambdaKind.parse("mp"))
        checks = {c.name: c for c in diag.conditions}
        # b is 3x4, while a* and pinv(a) are 3x2: neither comparison is defined
        for name in ("b_equals_a_conj_transpose", "b_equals_mp_inverse_of_a"):
            assert math.isnan(checks[name].residual)
            assert checks[name].holds is False
        for name in ("a_conj_transpose_a_is_unit", "b_b_conj_transpose_is_unit"):
            assert math.isfinite(checks[name].residual)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            reverse_order_diagnose(MP_A, MP_B, LambdaKind.parse("1,2"))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reverse_order_diagnose(
                rt([2], [3], seed=1), rt([2], [2], seed=2), LambdaKind.parse("mp")
            )


class TestLambdaKind:
    def test_parse_variants(self):
        assert LambdaKind.parse("1,3").flags == {1, 3}
        assert LambdaKind.parse("mp").is_mp
        assert str(LambdaKind.parse("1, 4")) == "1,4"
        assert str(LambdaKind.parse("1,2,3,4")) == "mp"

    def test_rejects_bad_flags(self):
        with pytest.raises(ValueError):
            LambdaKind.parse("")
        with pytest.raises(ValueError):
            LambdaKind.parse("5")
        with pytest.raises(ValueError):
            LambdaKind.parse("one")
