import gc
from itertools import product
from unittest import mock

import numpy as np
import pytest

from einverse import (
    LambdaKind,
    PreconditionError,
    ShapeError,
    Tensor,
    algebra,
    block2x2,
    chain,
    column_block,
    conj_transpose as ct,
    common_solution,
    frobenius_distance,
    frobenius_norm,
    mp_from_13_14,
    one_four_family,
    one_inverse_family,
    one_three_family,
    penrose_check,
    pinv,
    reverse_order_diagnose,
    row_block,
    solve_ax,
    solve_axb,
    unit_tensor,
    verify_unique_triple,
    zeros,
    zeros_like,
)
from einverse import inverses
from einverse.solver import SOLVE_TOL
from conftest import rank_deficient, rdist, rt
from identity_checks import kronecker_oracle


def equation_residual(a, x, b, d):
    return rdist(chain(a, x, b), d)


class TestSolveAxb:
    def test_identity_coefficients(self):
        d = rt([2, 2], [2, 2], seed=1)
        i = unit_tensor([2, 2])
        outcome = solve_axb(i, i, d)
        assert outcome.consistent
        assert rdist(outcome.particular, d) <= 1e-12
        # the generator is constant in z when both coefficients are invertible
        z = rt([2, 2], [2, 2], seed=2)
        assert rdist(outcome.generator(z), d) <= 1e-12

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_planted_solution(self, seed):
        a = rank_deficient([2, 2], [3], seed, rank=2)
        b = rank_deficient([2], [2, 2], 100 + seed, rank=1)
        xhat = rt([3], [2], 200 + seed)
        d = chain(a, xhat, b)
        outcome = solve_axb(a, b, d)
        assert outcome.consistent
        assert outcome.residual <= 1e-9
        # the zero free tensor reproduces the particular solution
        zero_image = outcome.generator(zeros((3, 2), 1))
        assert frobenius_distance(zero_image, outcome.particular) <= 1e-12
        for zseed in range(5):
            z = rt([3], [2], 300 + zseed)
            assert equation_residual(a, outcome.generator(z), b, d) <= 1e-9

    def test_inconsistent_system(self):
        a = rank_deficient([2, 2], [3], seed=7, rank=2)
        b = rank_deficient([2], [2, 2], seed=8, rank=1)
        d = rt([2, 2], [2, 2], seed=9)
        outcome = solve_axb(a, b, d)
        # witness: the projection of d misses it by a wide margin
        assert outcome.residual > 0.1
        assert not outcome.consistent

    def test_generator_rejects_misshaped_free_tensor(self):
        i = unit_tensor([2])
        outcome = solve_axb(i, i, rt([2], [2], seed=3))
        with pytest.raises(ShapeError):
            outcome.generator(rt([2], [3], seed=4))

    def test_shape_mismatch(self):
        i = unit_tensor([2])
        with pytest.raises(ShapeError):
            solve_axb(i, i, rt([3], [2], seed=5))


class TestSolveAx:
    def test_identity_coefficient(self):
        b = rt([2, 2], [3], seed=11)
        outcome = solve_ax(unit_tensor([2, 2]), b)
        assert outcome.consistent
        assert rdist(outcome.particular, b) <= 1e-12
        assert rdist(outcome.generator(rt([2, 2], [3], seed=12)), b) <= 1e-12

    def test_planted_solution(self):
        a = rank_deficient([2, 2], [2, 2], seed=13, rank=2)
        xhat = rt([2, 2], [2], seed=14)
        b = chain(a, xhat)
        outcome = solve_ax(a, b)
        assert outcome.consistent
        for yseed in range(3):
            y = rt([2, 2], [2], seed=500 + yseed)
            x = outcome.generator(y)
            assert rdist(chain(a, x), b) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError) as exc:
            solve_ax(rt([2], [3], seed=17), rt([3], [2], seed=18))
        assert str(exc.value) == "right-hand side Tensor(3 | 2) does not fit Tensor(2 | 3)"

    def test_rhs_outside_range(self):
        a = rank_deficient([2, 2], [2, 2], seed=15, rank=2)
        w = rt([2, 2], [2], seed=16)
        # push the right-hand side into the cokernel of a
        proj = unit_tensor([2, 2]) - chain(a, pinv(a))
        b = chain(proj, w)
        assert frobenius_norm(b) > 0.01
        outcome = solve_ax(a, b)
        assert not outcome.consistent
        assert outcome.residual > 0.1


class TestCommonSolution:
    def test_identity_pair(self):
        b = rt([2, 2], [2, 2], seed=21)
        i = unit_tensor([2, 2])
        outcome = common_solution(i, b, i, b)
        assert outcome.consistent
        assert rdist(outcome.particular, b) <= 1e-12

    def test_shape_mismatch(self):
        a, b = rt([2], [3], seed=22), rt([2], [4], seed=23)
        d, f = rt([4], [5], seed=24), rt([3], [5], seed=25)
        misfit = rt([3], [4], seed=26)
        for args, message in (
            ((a, misfit, d, f), "Tensor(3 | 4) does not fit Tensor(2 | 3) on the left equation"),
            ((a, b, d, misfit), "Tensor(3 | 4) does not fit Tensor(4 | 5) on the right equation"),
            ((a, b, rt([2], [5], seed=27), f), "equations do not share an unknown of one shape"),
        ):
            with pytest.raises(ShapeError) as exc:
                common_solution(*args)
            assert str(exc.value) == message

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_planted_common_solution(self, seed):
        a = rank_deficient([2, 2], [2, 2], 600 + seed, rank=2)
        d = rank_deficient([3], [3], 700 + seed, rank=2)
        xhat = rt([2, 2], [3], 800 + seed)
        b = chain(a, xhat)
        f = chain(xhat, d)
        outcome = common_solution(a, b, d, f)
        assert outcome.consistent
        x = outcome.particular
        assert rdist(chain(a, x), b) <= 1e-9
        assert rdist(chain(x, d), f) <= 1e-9
        z = rt([2, 2], [3], 900 + seed)
        xz = outcome.generator(z)
        assert rdist(chain(a, xz), b) <= 1e-9
        assert rdist(chain(xz, d), f) <= 1e-9

    def test_individually_solvable_but_incompatible(self):
        a = rank_deficient([2, 2], [2, 2], seed=22, rank=2)
        d = rank_deficient([3], [3], seed=23, rank=2)
        xhat = rt([2, 2], [3], seed=24)
        other = rt([2, 2], [3], seed=25)
        b = chain(a, xhat)
        f = chain(other, d)  # solvable on its own, breaks the coupling
        assert rdist(chain(a, f), chain(b, d)) > 1e-3
        outcome = common_solution(a, b, d, f)
        assert not outcome.consistent

    def test_verdict_is_the_particular_solutions_residual(self):
        # a x = b, x d = f and the coupling a f = b d each hold within tol, but
        # no x solves both: a x = b needs x = diag(1, 1.001), x d = f the identity
        a = Tensor.from_flat((2, 2), 1, [1, 0, 0, 1e-6])
        b = Tensor.from_flat((2, 2), 1, [1, 0, 0, 1e-6 + 1e-9])
        d = f = unit_tensor([2])
        outcome = common_solution(a, b, d, f)
        assert outcome.residual > 1e4 * SOLVE_TOL
        assert rdist(chain(outcome.particular, d), f) == pytest.approx(outcome.residual)
        assert not outcome.consistent


def conditioned(rng, kappa, rank, scale=1.0):
    """A (3x3 | 3x3) tensor whose 9x9 flattening has ``rank`` singular values
    spaced evenly in log scale from ``scale`` down to ``scale / kappa``."""

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        return q

    s = np.zeros(9)
    s[:rank] = scale * np.logspace(0, -np.log10(kappa), rank)
    return Tensor(((unitary() * s) @ unitary()).reshape(3, 3, 3, 3), 2)


def verdict_battery(seed):
    """Every solver on one seeded draw: planted and perturbed, at unit and rescaled size.

    The operands have condition numbers up to 1e8 and ranks 6 to 9; every odd
    seed takes ``d = a*``.  The rescaled systems multiply ``a`` and ``d`` by up
    to 1e4 or 1e-4, and the perturbed ones add noise of 1e-3 relative size to
    the planted ``a x d`` or ``a x``.
    """
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** rng.uniform(0, 8)
    rank = int(rng.integers(6, 10))
    x, noise = conditioned(rng, 1.0, 9), conditioned(rng, 1.0, 9)
    for scales in ((1.0, 1.0), 10.0 ** rng.uniform(-4, 4, 2)):
        a = conditioned(rng, kappa, rank, scales[0])
        d = ct(a) if seed % 2 else conditioned(rng, kappa, rank, scales[1])
        for eps in (0.0, 1e-3):

            def rhs(t):
                return t + noise * (eps * frobenius_norm(t) / frobenius_norm(noise))

            yield solve_axb(a, d, rhs(chain(a, x, d)))
            yield solve_ax(a, rhs(chain(a, x)))
            yield common_solution(a, rhs(chain(a, x)), d, chain(x, d))


def test_every_verdict_is_its_witness_residual_against_tol():
    outcomes = [o for seed in range(100) for o in verdict_battery(seed)]
    wrong = [
        (i, o.residual) for i, o in enumerate(outcomes) if o.consistent != (o.residual <= SOLVE_TOL)
    ]
    assert wrong == []
    # the battery holds both verdicts
    assert {o.consistent for o in outcomes} == {True, False}


class TestVerifyUniqueTriple:
    def test_same_tensor(self):
        a = rt([2, 2], [3], seed=31)
        x = pinv(a)
        b = chain(a, x)
        d = chain(x, a)
        assert verify_unique_triple(a, b, d, x, x)

    def test_independent_constructions_agree(self):
        a = rank_deficient([2, 2], [3], seed=32, rank=2)
        g = pinv(a)
        b = chain(a, g)
        d = chain(g, a)
        g14 = one_four_family(a, g, rt([3], [2, 2], seed=33))
        g13 = one_three_family(a, g, rt([3], [2, 2], seed=34))
        x = mp_from_13_14(a, g14, g13)
        y = mp_from_13_14(
            a,
            one_four_family(a, g, rt([3], [2, 2], seed=35)),
            one_three_family(a, g, rt([3], [2, 2], seed=36)),
        )
        assert frobenius_distance(x, y) <= 1e-8
        assert verify_unique_triple(a, b, d, x, y)

    def test_precondition_violation_is_distinct(self):
        a = rt([2, 2], [3], seed=37)
        x = pinv(a)
        b = chain(a, x)
        d = chain(x, a)
        with pytest.raises(PreconditionError):
            verify_unique_triple(a, b, d, x, 2.0 * x)

    def test_right_hand_sides_split_otherwise_are_refused(self):
        a = rt([2, 2], [3], seed=38)
        x = pinv(a)
        b, d = chain(a, x), chain(x, a)
        for args in (
            (Tensor(b.data, 1), d, x, x),
            (b, Tensor(d.data, 2), x, x),
            (b, d, x, Tensor(x.data, 2)),
        ):
            with pytest.raises(ShapeError):
                verify_unique_triple(a, *args)


class TestKroneckerRoute:
    """``solve_axb`` against the vec identity's oracle, which takes its own SVD of the lift."""

    def test_identity_coefficients(self):
        d = rt([2, 2], [2, 2], seed=41)
        i = unit_tensor([2, 2])
        x, residual = kronecker_oracle(i, i, d)
        assert residual <= SOLVE_TOL
        assert rdist(x, d) <= 1e-12

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_planted_solution_complex_data(self, seed):
        a = rank_deficient([2, 2], [3], 1000 + seed, rank=2)
        b = rank_deficient([2], [2, 2], 1100 + seed, rank=1)
        xhat = rt([3], [2], 1200 + seed)
        d = chain(a, xhat, b)
        direct = solve_axb(a, b, d)
        x, residual = kronecker_oracle(a, b, d)
        assert direct.consistent and residual <= SOLVE_TOL
        assert direct.residual <= 1e-9 and residual <= 1e-9
        # both particular solutions solve the same equation
        assert equation_residual(a, x, b, d) <= 1e-9
        z = rt([3], [2], 1300 + seed)
        assert equation_residual(a, direct.generator(z), b, d) <= 1e-9

    def test_routes_agree_on_inconsistent_systems(self):
        a = rank_deficient([2, 2], [3], seed=42, rank=2)
        b = rank_deficient([2], [2, 2], seed=43, rank=1)
        d = rt([2, 2], [2, 2], seed=44)
        direct = solve_axb(a, b, d)
        _, residual = kronecker_oracle(a, b, d)
        assert direct.consistent == (residual <= SOLVE_TOL) is False
        assert abs(direct.residual - residual) <= 1e-9


def _free_tensor_entry_points():
    """Each entry point that takes a free tensor, as a call on a wrong-shaped one.

    Every free tensor it takes is shaped like ``Tensor(3 | 2)``.
    """
    a = rank_deficient([2, 2], [3], seed=48, rank=2)
    c = rank_deficient([2], [3], seed=54, rank=1)
    g = pinv(c)
    b, d2, f = rt([2], [2], seed=49), rt([2], [2], seed=50), rt([3], [2], seed=51)
    d = chain(a, rt([3], [2], seed=52), b)
    return {
        "one_inverse_family": lambda y: one_inverse_family(c, g, y),
        "one_three_family": lambda y: one_three_family(c, g, y),
        "one_four_family": lambda y: one_four_family(c, g, y),
        "solve_axb": solve_axb(a, b, d).generator,
        "solve_ax": solve_ax(a, chain(a, f)).generator,
        "common_solution": common_solution(a, chain(a, f), d2, chain(f, d2)).generator,
    }


_ENTRY_POINTS = (
    "one_inverse_family",
    "one_three_family",
    "one_four_family",
    "solve_axb",
    "solve_ax",
    "common_solution",
)


@pytest.mark.parametrize(
    "entry, expected",
    [
        (name, "free tensor Tensor(2 | 2) must be shaped like Tensor(3 | 2)")
        for name in _ENTRY_POINTS
    ],
)
def test_free_tensor_of_wrong_shape_is_refused_with_its_message(entry, expected):
    call = _free_tensor_entry_points()[entry]
    with mock.patch("einverse.algebra._contract", wraps=algebra._contract) as steps:
        with pytest.raises(ShapeError) as exc:
            call(rt([2], [2], seed=53))
    assert str(exc.value) == expected
    assert steps.call_count == 0  # refused before any projector is formed


def _generator_cases():
    """Each solver's outcome, a free tensor, and that solver's own formula for its generator."""
    a = rank_deficient([2, 2], [3, 2], seed=3100, rank=3)
    b, d = rt([3, 2], [2], seed=3101), rt([2, 2], [2], seed=3102)
    z = rt([3, 2], [3, 2], seed=3103)
    rhs, y = rt([2, 2], [3], seed=3104), rt([3, 2], [3], seed=3105)
    d2, f2 = rt([3], [4], seed=3106), rt([3, 2], [4], seed=3107)

    def left():  # the kept projector's arithmetic
        return chain(pinv(a), a)

    def axb(out):
        return out.particular + z - chain(left(), z, chain(b, pinv(b)))

    def ax(out):
        return out.particular + y - chain(left(), y)

    def common(out):
        w = y - chain(left(), y)
        return out.particular + w - chain(w, chain(d2, pinv(d2)))

    return {
        "solve_axb": (solve_axb(a, b, d), z, axb),
        "solve_ax": (solve_ax(a, rhs), y, ax),
        "common_solution": (common_solution(a, rhs, d2, f2), y, common),
    }


@pytest.mark.parametrize("solver", ["solve_axb", "solve_ax", "common_solution"])
def test_generator_follows_its_formula_bit_for_bit(solver):
    outcome, z, formula = _generator_cases()[solver]
    got = outcome.generator(z)
    want = formula(outcome)
    assert got.shape == want.shape
    assert np.array_equal(got.data, want.data)


_OPERANDS = {
    "complex": lambda: rt([2, 2], [2, 2], seed=3300),
    "rank-deficient": lambda: rank_deficient([2, 2], [2, 2], seed=3301, rank=2),
    "wide": lambda: rt([2, 3], [4, 5], seed=3302),
    "tall": lambda: rt([4, 5], [2, 3], seed=3303),
    "real": lambda: chain(  # real entries, rank 3
        rt([2, 2], [3], seed=3304, complex_entries=False),
        rt([3], [2, 2], seed=3305, complex_entries=False),
    ),
}


def _identity_forms(a):
    """Per entry point: its result on ``a``, its formula written out, and a grade.

    Where a formula has a factor ``I - P``, as in ``g + (I - g a) y``, the written form
    builds the unit tensor ``I``. A family member is graded by its Penrose flags, a
    generated solution by whether it solves its equations within ``SOLVE_TOL``.
    """
    def like_a(row, col, seed):  # real when a is
        return rt(row, col, seed, complex_entries=bool(a.data.imag.any()))

    g, b, e = pinv(a), ct(a), like_a([3], [2], seed=3310)
    ga, ag = chain(g, a), chain(a, g)
    free_col, free_row = unit_tensor(a.col_extents) - ga, unit_tensor(a.row_extents) - ag
    y = like_a(a.col_extents, a.row_extents, seed=3311)
    z = like_a(a.col_extents, a.col_extents, seed=3312)
    w = like_a(a.col_extents, [3], seed=3313)
    x = like_a(a.col_extents, [3], seed=3314)
    d, rhs, f = chain(a, z, b), chain(a, x), chain(x, e)
    free_e = unit_tensor([3]) - chain(e, pinv(e))

    def flags(member):
        return penrose_check(a, member).satisfied

    def solves(*equations):
        return max(rdist(chain(*lhs), want) for *lhs, want in equations) <= SOLVE_TOL

    axb, ax = solve_axb(a, b, d), solve_ax(a, rhs)
    common = common_solution(a, rhs, e, f)
    return {
        "one_inverse_family": (one_inverse_family(a, g, y), g + y - chain(g, a, y, a, g), flags),
        "one_three_family": (one_three_family(a, g, y), g + chain(free_col, y), flags),
        "one_four_family": (one_four_family(a, g, y), g + chain(y, free_row), flags),
        "solve_axb": (
            axb.generator(z),
            axb.particular + z - chain(ga, z, chain(b, pinv(b))),
            lambda sol: solves((a, sol, b, d)),
        ),
        "solve_ax": (
            ax.generator(w), ax.particular + chain(free_col, w), lambda sol: solves((a, sol, rhs))
        ),
        "common_solution": (
            common.generator(w),
            common.particular + chain(free_col, w, free_e),
            lambda sol: solves((a, sol, rhs), (sol, e, f)),
        ),
    }


@pytest.mark.parametrize("operand", _OPERANDS)
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_member_agrees_with_its_identity_form(operand, entry):
    got, want, grade = _identity_forms(_OPERANDS[operand]())[entry]
    assert got.shape == want.shape
    assert rdist(got, want) <= 1e-12
    assert grade(got) == grade(want)


def test_common_solution_forms_f_g_d_once():
    a = rank_deficient([2, 2], [3, 2], seed=3200, rank=3)
    x = rt([3, 2], [3], seed=3201)
    d = rt([3], [4], seed=3202)
    b, f = chain(a, x), chain(x, d)
    with mock.patch("einverse.algebra._contract", wraps=algebra._contract) as steps:
        outcome = common_solution(a, b, d, f)
    # g_a b, f g_d, g_a a, (g_a a)(f g_d), and the residuals' a x0 and x0 d
    assert steps.call_count == 6
    g_a, g_d = pinv(a), pinv(d)
    fg = chain(f, g_d)
    assert np.array_equal(
        outcome.particular.data, (chain(g_a, b) + fg - chain(chain(g_a, a), fg)).data
    )
    # the former association ((g_a a) f) g_d differs only by rounding
    former = chain(g_a, b) + fg - chain(g_a, a, f, g_d)
    assert rdist(outcome.particular, former) <= 1e-12
    assert outcome.consistent


def lattice_tensors():
    values = [-1.0, 0.0, 1.0]
    for entries in product(values, repeat=4):
        yield Tensor.from_flat((2, 2), 1, entries)


class TestCompletenessAtDeskScale:
    def test_generator_reproduces_every_lattice_solution(self):
        a = Tensor.from_flat((2, 2), 1, [1, 0, 1, 0])
        b = Tensor.from_flat((2, 2), 1, [0, 1, 0, -1])
        xhat = Tensor.from_flat((2, 2), 1, [1, -1, 0, 1])
        d = chain(a, xhat, b)
        outcome = solve_axb(a, b, d)
        assert outcome.consistent
        solutions = [
            x
            for x in lattice_tensors()
            if frobenius_distance(chain(a, x, b), d) == 0.0
        ]
        assert len(solutions) > 1  # singular coefficients leave freedom
        for s in solutions:
            assert frobenius_distance(outcome.generator(s), s) <= 1e-12
        # and generator outputs never leave the solution set
        for z in lattice_tensors():
            assert equation_residual(a, outcome.generator(z), b, d) <= 1e-12


class TestSylvesterReduction:
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_block_identity(self, seed):
        a = rt([2, 2], [2, 2], 1400 + seed)
        x = rt([2, 2], [3], 1500 + seed)
        b = rt([3], [3], 1600 + seed)
        i1 = unit_tensor([2, 2])
        i2 = unit_tensor([3])
        middle = block2x2(x, zeros_like(x), zeros_like(x), x)
        lhs = chain(row_block(a, i1), middle, column_block(i2, b))
        rhs = chain(a, x) + chain(x, b)
        assert rdist(lhs, rhs) <= 1e-12


class TestChoiceOfOneInverse:
    """The solvability verdict should not depend on which {1}-inverses are
    used; verified on a batch and reported, with the default verdict pinned
    to the planted truth."""

    def test_verdicts_agree_across_choices(self):
        disagreements = []
        for seed in range(1, 11):
            a = rank_deficient([2, 2], [3], 1700 + seed, rank=2)
            b = rank_deficient([2], [2, 2], 1800 + seed, rank=1)
            if seed % 2:
                d = chain(a, rt([3], [2], 1900 + seed), b)  # consistent
                truth = True
            else:
                d = rt([2, 2], [2, 2], 2000 + seed)  # generic: inconsistent
                truth = False
            verdicts = [solve_axb(a, b, d).consistent]
            for gseed in (1, 2):
                g_a = one_inverse_family(
                    a, pinv(a), rt([3], [2, 2], 2100 + 10 * seed + gseed)
                )
                g_b = one_inverse_family(
                    b, pinv(b), rt([2, 2], [2], 2200 + 10 * seed + gseed)
                )
                verdicts.append(solve_axb(a, b, d, g_a=g_a, g_b=g_b).consistent)
            assert verdicts[0] == truth
            if len(set(verdicts)) > 1:
                disagreements.append((seed, verdicts))
        if disagreements:  # pragma: no cover - not expected, reported not asserted
            print(f"verdict disagreements across {{1}}-inverse choices: {disagreements}")


    def test_an_inverse_that_is_not_a_one_inverse_is_refused(self):
        # the solvability test holds only for {1}-inverses: 2 pinv(a) fails equation (1)
        a, b = rt([2], [3], 1), rt([3], [2], 2)
        d = chain(a, rt([3], [3], 3), b)  # consistent by construction
        bad_a, bad_b = 2 * pinv(a), 2 * pinv(b)
        for solve, who in (
            (lambda: solve_axb(a, b, d, g_a=bad_a), "g_a"),
            (lambda: solve_axb(a, b, d, g_b=bad_b), "g_b"),
            (lambda: solve_ax(a, chain(a, rt([3], [2], 4)), g=bad_a), "g"),
        ):
            pattern = rf"^{who} is not a \{{1\}}-inverse: equations \[1\] fail"
            with pytest.raises(PreconditionError, match=pattern):
                solve()
        with pytest.raises(PreconditionError, match="^g13 is not a"):
            one_three_family(a, bad_a, rt([3], [2], 5))
        assert solve_axb(a, b, d).consistent

    def test_only_a_given_inverse_is_graded(self):
        a, b = rt([2], [3], 6), rt([3], [2], 7)
        d = chain(a, rt([3], [3], 8), b)
        g_a = one_inverse_family(a, pinv(a), rt([3], [2], 9))
        with mock.patch.object(inverses, "penrose_check", wraps=inverses.penrose_check) as grade:
            assert solve_axb(a, b, d).consistent
            assert solve_ax(a, chain(a, rt([3], [2], 10))).consistent
            assert solve_axb(a, b, d, g_a=pinv(a)).consistent  # the kept inverse
            assert grade.call_count == 0
            assert solve_axb(a, b, d, g_a=g_a).consistent
            assert grade.call_count == 1


def unmemoized_pinv(t):
    """``pinv(t)`` by a fresh SVD: an explicit ``rank_tol`` bypasses the kept inverse."""
    return pinv(t, rank_tol=max(t.row_count, t.col_count) * np.finfo(np.float64).eps)


def free_tensor(a, b, seed):
    """A random tensor shaped like the unknown of ``a x b = d``."""
    return rt(a.col_extents, b.row_extents, seed)


class TestFactorReuse:
    """Default inverses and projectors are computed once per operand tensor."""

    def test_repeated_solves_factor_the_operator_once(self, svd_calls):
        a = rt([2, 3], [3, 2], seed=2300)
        b = ct(a)
        ds = [chain(a, free_tensor(a, b, 2400 + j), b) for j in range(32)]
        zs = [zeros((3, 2, 3, 2), 2)] + [free_tensor(a, b, 2500 + k) for k in range(3)]
        for d in ds:
            outcome = solve_axb(a, b, d)
            assert outcome.consistent
            for z in zs:
                outcome.generator(z)
        assert svd_calls == [(6, 6)]

    def test_three_solvers_share_one_factorization(self, svd_calls):
        a = rank_deficient([2, 2], [3, 2], seed=2600, rank=3)
        x = rt([3, 2], [3, 2], seed=2601)
        del svd_calls[:]  # rank_deficient's own SVD
        # two separate conjugate-transpose tensors: each is recognized
        axb = solve_axb(a, ct(a), chain(a, x, ct(a)))
        ax = solve_ax(a, chain(a, x))
        pair = common_solution(a, chain(a, x), ct(a), chain(x, ct(a)))
        for outcome in (axb, ax, pair):
            assert outcome.consistent
            outcome.generator(rt([3, 2], [3, 2], seed=2602))
        assert svd_calls == [(4, 6)]

    def test_only_an_exact_conjugate_transpose_reuses_the_factorization(self, svd_calls):
        a = rt([2, 2], [3], seed=2650)
        near = ct(a) + rt([3], [2, 2], seed=2651) * 1e-12
        solve_axb(a, near, rt([2, 2], [2, 2], seed=2652))
        assert len(svd_calls) == 2

    @pytest.mark.parametrize("adjoint", [True, False])
    def test_generator_of_zero_is_the_particular_solution(self, adjoint):
        a = rank_deficient([2, 2], [3, 2], seed=2700, rank=3)
        b = ct(a) if adjoint else rt([3, 2], [2], seed=2701)
        d = rt(a.row_extents, b.col_extents, seed=2702)
        outcomes = [
            solve_axb(a, b, d),
            solve_axb(a, b, d, g_a=unmemoized_pinv(a), g_b=unmemoized_pinv(b)),
            solve_ax(a, d),
            solve_ax(a, d, g=unmemoized_pinv(a)),
        ]
        if adjoint:
            lhs, rhs = rt([2, 2], [3, 2], seed=2703), rt([3, 2], [2, 2], seed=2704)
            outcomes.append(common_solution(a, lhs, b, rhs))
        for outcome in outcomes:
            zero = zeros_like(outcome.particular)
            assert np.array_equal(outcome.generator(zero).data, outcome.particular.data)

    @pytest.mark.parametrize("adjoint", [True, False])
    def test_results_match_unmemoized_formulas(self, adjoint):
        a = rank_deficient([2, 2], [3, 2], seed=2800, rank=3)
        b = ct(a) if adjoint else rt([3, 2], [2], seed=2801)
        d = chain(a, free_tensor(a, b, 2802), b)
        z = free_tensor(a, b, 2803)
        ga, gb = unmemoized_pinv(a), unmemoized_pinv(b)
        x0 = chain(ga, d, gb)
        outcome = solve_axb(a, b, d)
        for _ in range(2):  # the second call reads the kept projectors
            assert rdist(outcome.particular, x0) <= SOLVE_TOL
            assert rdist(outcome.generator(z), x0 + z - chain(ga, a, z, b, gb)) <= SOLVE_TOL
            outcome = solve_axb(a, b, d)
        if not adjoint:  # b's own SVD: the same arithmetic as without a memo
            assert np.array_equal(outcome.particular.data, x0.data)

        rhs = chain(a, z)
        y = rt([3, 2], z.col_extents, seed=2804)
        outcome = solve_ax(a, rhs)
        assert rdist(outcome.particular, chain(ga, rhs)) <= SOLVE_TOL
        assert rdist(outcome.generator(y), chain(ga, rhs) + y - chain(ga, a, y)) <= SOLVE_TOL

        if adjoint:
            b3, f3 = chain(a, z), chain(z, b)
            outcome = common_solution(a, b3, b, f3)
            x0 = chain(ga, b3) + chain(f3, gb) - chain(ga, a, f3, gb)
            proj = unit_tensor(a.col_extents) - chain(ga, a)
            coproj = unit_tensor(b.row_extents) - chain(b, gb)
            assert rdist(outcome.particular, x0) <= SOLVE_TOL
            assert rdist(outcome.generator(y), x0 + chain(proj, y, coproj)) <= SOLVE_TOL

    def test_explicit_inverses_are_not_kept_on_the_operands(self):
        a = rank_deficient([2, 2], [2, 2], seed=2900, rank=2)
        b = rank_deficient([2, 2], [2, 2], seed=2901, rank=2)
        d = chain(a, rt([2, 2], [2, 2], seed=2902), b)
        g_a = one_inverse_family(a, pinv(a), rt([2, 2], [2, 2], seed=2903))
        g_b = one_inverse_family(b, pinv(b), rt([2, 2], [2, 2], seed=2904))
        z = rt([2, 2], [2, 2], seed=2905)
        # the explicit inverses' projectors are built first
        custom = solve_axb(a, b, d, g_a=g_a, g_b=g_b).generator(z)
        default = solve_axb(a, b, d).generator(z)
        ga, gb = pinv(a), pinv(b)
        assert rdist(custom, chain(g_a, d, g_b) + z - chain(g_a, a, z, b, g_b)) <= SOLVE_TOL
        assert rdist(default, chain(ga, d, gb) + z - chain(ga, a, z, b, gb)) <= SOLVE_TOL
        assert rdist(custom, default) > 1e-6

    @pytest.mark.parametrize(
        "run, svds",
        [
            (lambda h, z: solve_axb(h, h, chain(h, z, h)).generator(z), 1),
            # the given g_a's own SVD, then h's: b = h is not compared with a = h
            (lambda h, z: solve_axb(h, h, chain(h, z, h), g_a=unmemoized_pinv(h)).generator(z), 2),
            (lambda h, z: common_solution(h, chain(h, z), h, chain(z, h)).generator(z), 1),
            (lambda h, z: reverse_order_diagnose(h, h, LambdaKind.parse("1")), 1),
            (lambda h, z: reverse_order_diagnose(h, h, LambdaKind.parse("1,3")), 1),
            (lambda h, z: reverse_order_diagnose(h, h, LambdaKind.parse("1,4")), 1),
            (lambda h, z: reverse_order_diagnose(h, h, LambdaKind.parse("mp")), 2),
        ],
        ids=["solve_axb", "solve_axb-given-g_a", "common_solution",
             "rol-1", "rol-13", "rol-14", "rol-mp"],
    )
    def test_one_tensor_as_both_operands_keeps_one_inverse(self, run, svds, svd_calls):
        # h equals h* exactly, yet as the same object it is one operand with one inverse
        m = rt([2, 3], [2, 3], seed=3050)
        h, z = m + ct(m), rt([2, 3], [2, 3], seed=3051)
        assert "pinv" not in h._memo
        first = run(h, z)
        assert len(svd_calls) == svds  # rol-mp's second SVD is its reference pinv(h h)
        kept = h._memo["pinv"]
        assert np.array_equal(kept.data, unmemoized_pinv(h).data)  # h's own, not its adjoint's
        later = run(h, z)
        assert pinv(h) is kept and h._memo["pinv"] is kept
        if isinstance(first, inverses.ReverseOrderDiagnosis):
            for diag in (first, later):
                assert np.array_equal(diag.candidate.data, chain(kept, kept).data)

    def test_kept_factors_are_freed_with_their_tensor(self):
        def live_tensors():
            return sum(isinstance(o, Tensor) for o in gc.get_objects())

        gc.collect()
        gc.disable()  # whatever a cycle would keep alive stays visible
        try:
            before = live_tensors()
            a = rt([2, 2], [3, 2], seed=3000)
            x = rt([3, 2], [3, 2], seed=3001)
            outcomes = [
                solve_axb(a, ct(a), chain(a, x, ct(a))),
                solve_ax(a, chain(a, x)),
                common_solution(a, chain(a, x), ct(a), chain(x, ct(a))),
            ]
            for outcome in outcomes:
                outcome.generator(x)
            del a, x, outcome, outcomes
            after = live_tensors()
        finally:
            gc.enable()
        assert after == before
