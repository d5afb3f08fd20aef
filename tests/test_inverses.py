import math
from unittest import mock

import numpy as np
import pytest

from einverse import (
    LambdaKind,
    PreconditionError,
    ShapeError,
    Tensor,
    chain,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    frobenius_norm,
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
from einverse.tensor import _relative_residual
from conftest import conditioned, rank_deficient, rdist, rt
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
        # relative to 1 + ||I||_F = 3 on the 4x4 flattening: 1e-12 in distance, as before
        assert is_unitary(triple.u, tol=1e-12 / 3)
        assert is_unitary(triple.v, tol=1e-12 / 3)

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

    @pytest.mark.parametrize("row, col", [([2, 3], [6]), ([6], [2, 3]), ([4], [3])])
    @pytest.mark.parametrize("candidate", ["pinv", "random", "family"])
    def test_residuals_are_the_tensor_definition_bit_for_bit(self, row, col, candidate):
        a = rank_deficient(row, col, seed=70, rank=2)
        y = rt(col, row, seed=71)
        x = {"pinv": pinv(a), "random": y, "family": one_inverse_family(a, pinv(a), y)}[candidate]

        def residual(p, q):
            return frobenius_distance(p, q) / (1.0 + frobenius_norm(q))

        ax, xa = chain(a, x), chain(x, a)
        expected = (
            residual(chain(ax, a), a),
            residual(chain(xa, x), x),
            residual(conj_transpose(ax), ax),
            residual(conj_transpose(xa), xa),
        )
        assert penrose_check(a, x).residuals == expected

    @pytest.mark.parametrize("split", [0, 1], ids=["no-row-group", "no-column-group"])
    def test_grades_a_tensor_with_an_empty_index_group(self, split):
        # the equations are taken on the flattenings, a 1x3 or 3x1 matrix here
        a = Tensor(np.array([1.0, 2.0, 3.0]), split)
        assert penrose_check(a, pinv(a)).all_satisfied
        assert not penrose_check(a, zeros_like(pinv(a))).satisfied[0]

    def test_relative_residual_refuses_arrays_of_different_shapes(self):
        for got, want in ((np.zeros((2, 3)), np.zeros((3, 2))), (np.zeros(6), np.zeros((2, 3)))):
            with pytest.raises(ShapeError):
                _relative_residual(got, want)


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

    @pytest.mark.parametrize("build", [
        one_inverse_family,
        one_three_family,
        one_four_family,
        lambda a, g, y: reflexive_from_two(a, g, g),
        lambda a, g, y: mp_from_13_14(a, g, g),
    ], ids=["1", "1,3", "1,4", "1,2", "mp"])
    def test_kept_pinv_is_taken_without_grading(self, build):
        # the library's own inverse is in every class by construction; at this
        # conditioning it fails the fixed-tolerance check only by rounding
        a = conditioned([8, 8], [8, 8], 1e8, seed=0)
        y = rt([8, 8], [8, 8], seed=44)
        g = pinv(a)
        assert not penrose_check(a, g).satisfied[0]
        with mock.patch("einverse.inverses.penrose_check", wraps=penrose_check) as spy:
            build(a, g, y)
        assert spy.call_count == 0
        # an equal copy is a caller's tensor like any other, and is graded
        with pytest.raises(PreconditionError):
            build(a, Tensor(g.data, g.split), y)

    def test_grading_computes_no_inverse_of_its_own(self, svd_calls):
        a = rt([2, 2], [3], seed=33)
        g = pinv(a, rank_tol=1e-12)  # recomputed, not kept on a
        svd_calls.clear()
        with mock.patch("einverse.inverses.penrose_check", wraps=penrose_check) as spy:
            one_inverse_family(a, g, rt([3], [2, 2], seed=44))
        assert spy.call_count == 1
        assert svd_calls == []

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
        # the candidate's relative distance from the product's inverse, in plain numpy
        m_a, m_b = MP_A.as_matrix(), MP_B.as_matrix()
        want = np.linalg.pinv(m_a @ m_b)
        gap = np.linalg.norm(np.linalg.pinv(m_b) @ np.linalg.pinv(m_a) - want)
        assert diag.mp_distance == pytest.approx(gap / (1.0 + np.linalg.norm(want)), rel=1e-6)
        assert diag.mp_distance > 1e6 * diag.candidate_report.tolerance
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

    @pytest.mark.parametrize("text", ["1", "1,3", "1,4", "mp"])
    def test_kept_inverses_are_taken_without_grading(self, text):
        # at this conditioning pinv(a) fails the fixed-tolerance check only by rounding
        a = conditioned([4, 4], [4, 4], 1e8, seed=1)
        b = conditioned([4, 4], [4, 4], 10.0, seed=2)
        kind = LambdaKind.parse(text)
        with mock.patch("einverse.inverses.penrose_check", wraps=penrose_check) as spy:
            diag = reverse_order_diagnose(a, b, kind)
        assert diag.ga_is_lambda_inverse and diag.gb_is_lambda_inverse
        assert spy.call_count == 1  # the candidate alone
        # inverses a caller passes are graded, an equal copy of the kept one included
        ga = pinv(a)
        with mock.patch("einverse.inverses.penrose_check", wraps=penrose_check) as spy:
            diag = reverse_order_diagnose(a, b, kind, ga=Tensor(ga.data, ga.split), gb=pinv(b))
        assert spy.call_count == 2
        assert not diag.ga_is_lambda_inverse and diag.gb_is_lambda_inverse

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

    def test_unsupported_kind(self, svd_calls):
        with pytest.raises(ValueError):
            reverse_order_diagnose(MP_A, MP_B, LambdaKind.parse("1,2"))
        a, b = rt([2], [3], seed=5), rt([3], [2], seed=6)
        for text in ("2", "1,2", "2,3", "1,2,3"):
            with pytest.raises(ValueError) as exc:
                reverse_order_diagnose(a, b, LambdaKind.parse(text))
            assert str(exc.value) == f"unsupported kind {text} for reverse-order diagnosis"
        assert svd_calls == []  # refused before either operand is factored

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
