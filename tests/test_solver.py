import gc
from itertools import product

import numpy as np
import pytest

from einverse import (
    PreconditionError,
    ShapeError,
    Tensor,
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
    pinv,
    row_block,
    solve_ax,
    solve_axb,
    solve_axb_via_kronecker,
    unit_tensor,
    verify_unique_triple,
    zeros,
    zeros_like,
)
from einverse.solver import SOLVE_TOL
from conftest import rank_deficient, rdist, rt


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


class TestKroneckerRoute:
    def test_identity_coefficients(self):
        d = rt([2, 2], [2, 2], seed=41)
        i = unit_tensor([2, 2])
        outcome = solve_axb_via_kronecker(i, i, d)
        assert outcome.consistent
        assert rdist(outcome.particular, d) <= 1e-12

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_planted_solution_complex_data(self, seed):
        a = rank_deficient([2, 2], [3], 1000 + seed, rank=2)
        b = rank_deficient([2], [2, 2], 1100 + seed, rank=1)
        xhat = rt([3], [2], 1200 + seed)
        d = chain(a, xhat, b)
        direct = solve_axb(a, b, d)
        lifted = solve_axb_via_kronecker(a, b, d)
        assert direct.consistent and lifted.consistent
        assert direct.residual <= 1e-9 and lifted.residual <= 1e-9
        # both particular solutions solve the same equation
        assert equation_residual(a, lifted.particular, b, d) <= 1e-9
        # a shared free tensor produces a solution through either route
        z = rt([3], [2], 1300 + seed)
        assert equation_residual(a, direct.generator(z), b, d) <= 1e-9
        assert equation_residual(a, lifted.generator(z), b, d) <= 1e-9

    def test_routes_agree_on_inconsistent_systems(self):
        a = rank_deficient([2, 2], [3], seed=42, rank=2)
        b = rank_deficient([2], [2, 2], seed=43, rank=1)
        d = rt([2, 2], [2, 2], seed=44)
        direct = solve_axb(a, b, d)
        lifted = solve_axb_via_kronecker(a, b, d)
        assert direct.consistent == lifted.consistent is False
        assert abs(direct.residual - lifted.residual) <= 1e-9

    def test_inverts_the_factors_not_the_lift(self, svd_calls):
        a = rank_deficient([2, 2], [3], seed=45, rank=2)
        b = rank_deficient([2], [2, 2], seed=46, rank=1)
        d = chain(a, rt([3], [2], seed=47), b)
        svd_calls.clear()  # the operands were built with SVDs of their own
        assert solve_axb_via_kronecker(a, b, d).consistent
        # one SVD per factor's flattening (4x3 and 2x4), none of the 16x6 lift
        assert sorted(svd_calls) == [(2, 4), (4, 3)]


def _free_tensor_entry_points():
    """Each entry point that takes a free tensor, as a call on a wrong-shaped one."""
    a = rank_deficient([2, 2], [3], seed=48, rank=2)
    g = pinv(a)
    b, d2, f = rt([2], [2], seed=49), rt([2], [2], seed=50), rt([3], [2], seed=51)
    d = chain(a, rt([3], [2], seed=52), b)
    return {
        "one_inverse_family": lambda y: one_inverse_family(a, g, y),
        "one_three_family": lambda y: one_three_family(a, g, y),
        "one_four_family": lambda y: one_four_family(a, g, y),
        "solve_axb": solve_axb(a, b, d).generator,
        "solve_ax": solve_ax(a, chain(a, f)).generator,
        "common_solution": common_solution(a, chain(a, f), d2, chain(f, d2)).generator,
        "solve_axb_via_kronecker": solve_axb_via_kronecker(a, b, d).generator,
    }


@pytest.mark.parametrize(
    "entry, expected",
    [
        (name, "free tensor Tensor(2 | 2) must be shaped like Tensor(3 | 2x2)")
        for name in ("one_inverse_family", "one_three_family", "one_four_family")
    ]
    + [
        (name, "free tensor Tensor(2 | 2) must be shaped like TensorShape(extents=(3, 2), split=1)")
        for name in ("solve_axb", "solve_ax", "common_solution", "solve_axb_via_kronecker")
    ],
)
def test_free_tensor_of_wrong_shape_is_refused_with_its_message(entry, expected):
    with pytest.raises(ShapeError) as exc:
        _free_tensor_entry_points()[entry](rt([2], [2], seed=53))
    assert str(exc.value) == expected


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
