"""Acceptance gate: golden values plus property batteries, one line per criterion.

Criterion 3 is split.  C3a checks the factor inverses and witness of the
{1,4} reverse-order example.  C3b reproduces the published product d = y x
and checks its published claim that d is a {1,4}-inverse of a b.  The claim
is false, and C3b asserts that it is: equations (1) and (3) hold and (4)
fails (relative residual ~0.39), graded by ``penrose_check`` and proved
exactly on the integer flattenings, where 12 d ab is not symmetric (see
README).
"""

import json

import numpy as np

from einverse import (
    SOLVE_TOL,
    Tensor,
    chain,
    conj_transpose,
    einstein_product,
    frobenius_distance,
    kronecker,
    penrose_check,
    pinv,
    pinv_kronecker,
    solve_axb,
)
from einverse.cli import main
from conftest import ACCEPTANCE_LINES, rank_deficient, rdist, rt
from identity_checks import ALL_CHECKS, kronecker_oracle
from golden_data import (
    MP_A,
    MP_A_PINV,
    MP_B,
    MP_B_PINV,
    MP_C,
    MP_D,
    ROL13_A,
    ROL13_B,
    ROL13_D,
    ROL13_T,
    ROL13_X,
    ROL13_Y,
    ROL14_A,
    ROL14_B,
    ROL14_C,
    ROL14_D,
    ROL14_T,
    ROL14_X,
    ROL14_Y,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    # printed after the run by conftest's terminal-summary hook, which
    # pytest's output capture does not hold back
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: {status}{suffix}")
    return ok


def max_abs(a: Tensor, b: Tensor) -> float:
    return float(np.abs(a.data - b.data).max())


def test_c1_golden_pseudoinverses():
    err = max(max_abs(pinv(MP_A), MP_A_PINV), max_abs(pinv(MP_B), MP_B_PINV))
    assert report("C1 golden pseudoinverse values", err <= 1e-10, f"max err {err:.2e}")


def test_c2_reverse_order_counterexample():
    ab = einstein_product(MP_A, MP_B, 2)
    err_c = max_abs(pinv(ab), MP_C)
    err_d = max_abs(chain(MP_B_PINV, MP_A_PINV), MP_D)
    gap = frobenius_distance(pinv(ab), chain(pinv(MP_B), pinv(MP_A)))
    ok = err_c <= 1e-10 and err_d <= 1e-10 and gap >= 0.5
    assert report(
        "C2 product-inverse counterexample",
        ok,
        f"errs {err_c:.2e}/{err_d:.2e}, gap {gap:.3f}",
    )


def _flags_residual(a, x, flags):
    r = penrose_check(a, x)
    return max(r.residuals[i - 1] for i in flags)


def test_c3_one_four_example_factors_and_witness():
    rx = _flags_residual(ROL14_A, ROL14_X, (1, 4))
    ry = _flags_residual(ROL14_B, ROL14_Y, (1, 4))
    witness = frobenius_distance(conj_transpose(ROL14_T), ROL14_T)
    ok = rx <= 1e-9 and ry <= 1e-9 and witness >= 1.0
    assert report(
        "C3a {1,4} example: factor inverses + non-hermitian witness",
        ok,
        f"residuals {rx:.2e}/{ry:.2e}, witness norm {witness:.3f}",
    )


def _exact_integers(t: Tensor, scale: int) -> np.ndarray:
    """Flattening of ``scale * t`` as int64; all zeros unless it is exactly integral."""
    m = scale * t.as_matrix()
    if m.imag.any() or not np.array_equal(m.real, np.rint(m.real)):
        return np.zeros(m.shape, dtype=np.int64)
    return m.real.astype(np.int64)


def test_c3_one_four_example_product_claim():
    # (a) the published product d = y x and the golden a b are reproduced
    ab = einstein_product(ROL14_A, ROL14_B, 2)
    prod_err = max_abs(chain(ROL14_Y, ROL14_X), ROL14_D)
    c_err = max_abs(ab, ROL14_C)
    # (b) the library grades d as a {1,3}- but not a {1,4}-inverse of a b
    r = penrose_check(ab, ROL14_D)
    r1, r3, r4 = r.residuals[0], r.residuals[2], r.residuals[3]
    graded = r.satisfies((1, 3)) and not r.satisfied[3] and r4 >= 0.1
    # (c) exact oracle on the integer flattenings 12 d and a b: equation (4)
    # asks (d ab)* = d ab, equation (3) (ab d)* = ab d, equation (1) ab d ab = ab
    ab_int = _exact_integers(ROL14_A, 1) @ _exact_integers(ROL14_B, 1)
    d12 = _exact_integers(ROL14_D, 12)
    d_ab, ab_d = d12 @ ab_int, ab_int @ d12
    asym = int((d_ab != d_ab.T).sum())
    exact = (
        np.array_equal(ab_int, _exact_integers(ROL14_C, 1))
        and ab_int.any()
        and asym > 0
        and np.array_equal(ab_d, ab_d.T)
        and np.array_equal(ab_d @ ab_int, 12 * ab_int)
    )
    ok = prod_err <= 1e-10 and c_err <= 1e-10 and graded and exact
    assert report(
        "C3b {1,4} example: golden product reproduced; published {1,4} claim "
        "refuted (eq. 4 fails, eqs. 1 and 3 hold)",
        ok,
        f"product err {prod_err:.2e}/{c_err:.2e}, residuals eq1 {r1:.2e} "
        f"eq3 {r3:.2e} eq4 {r4:.3e}, (12d ab) asymmetric entries {asym}",
    )


def test_c4_one_three_example():
    ab = einstein_product(ROL13_A, ROL13_B, 2)
    rx = _flags_residual(ROL13_A, ROL13_X, (1, 3))
    ry = _flags_residual(ROL13_B, ROL13_Y, (1, 3))
    prod_err = max_abs(chain(ROL13_Y, ROL13_X), ROL13_D)
    rd = _flags_residual(ab, ROL13_D, (1, 3))
    witness = frobenius_distance(conj_transpose(ROL13_T), ROL13_T)
    ok = max(rx, ry, rd) <= 1e-9 and prod_err <= 1e-10 and witness >= 1.0
    assert report(
        "C4 {1,3} example reproduction",
        ok,
        f"residuals {rx:.2e}/{ry:.2e}/{rd:.2e}, witness norm {witness:.3f}",
    )


def test_c5_identity_suite():
    worst_name, worst = "", 0.0
    for name, check in ALL_CHECKS.items():
        for seed in range(1, 21):
            res = check(seed)
            if res > worst:
                worst_name, worst = f"{name}@{seed}", res
    ok = worst <= 1e-9
    assert report(
        "C5 identity suite (12 laws x 20 seeds)", ok, f"worst {worst:.2e} at {worst_name}"
    )


def test_c6_solver_suite():
    failures = []
    agree = True
    for seed in range(1, 51):
        a = rank_deficient([2, 2], [3], 3000 + seed, rank=2)
        b = rank_deficient([2], [2, 2], 3100 + seed, rank=1)
        d = chain(a, rt([3], [2], 3200 + seed), b)
        direct = solve_axb(a, b, d)
        agree &= direct.consistent == (kronecker_oracle(a, b, d)[1] <= SOLVE_TOL)
        if not direct.consistent:
            failures.append(("verdict", seed))
            continue
        for zseed in range(5):
            z = rt([3], [2], 3300 + 10 * seed + zseed)
            if rdist(chain(a, direct.generator(z), b), d) > 1e-9:
                failures.append(("generated", seed, zseed))
    for seed in range(1, 21):
        a = rank_deficient([2, 2], [3], 3400 + seed, rank=2)
        b = rank_deficient([2], [2, 2], 3500 + seed, rank=1)
        d = rt([2, 2], [2, 2], 3600 + seed)
        direct = solve_axb(a, b, d)
        agree &= direct.consistent == (kronecker_oracle(a, b, d)[1] <= SOLVE_TOL)
        if direct.consistent:
            failures.append(("false-consistent", seed))
    ok = not failures and agree
    assert report(
        "C6 solver suite (50 planted + 20 inconsistent, route agreement)",
        ok,
        f"failures {failures[:3]}, routes agree {agree}",
    )


def test_c7_homomorphism_oracle():
    worst = 0.0
    for seed in range(1, 101):
        a = rt([2, 3], [3, 2], 4000 + seed)
        b = rt([3, 2], [2, 2], 4100 + seed)
        lhs = einstein_product(a, b, 2).as_matrix()
        rhs = a.as_matrix() @ b.as_matrix()
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-13
    assert report("C7 flattening homomorphism oracle (100 pairs)", ok, f"worst {worst:.2e}")


def test_c8_kronecker_inverse_theorem():
    worst = 0.0
    for seed in range(1, 21):
        a = rt([2], [3], 4200 + seed)
        b = rt([2, 2], [2], 4300 + seed)
        got = pinv_kronecker(a, b)
        want = pinv(kronecker(a, b))
        worst = max(worst, rdist(got, want))
    ok = worst <= 1e-9
    assert report("C8 factorwise Kronecker inverse (20 pairs)", ok, f"worst {worst:.2e}")


def test_c9_cli_determinism_and_round_trip(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(MP_A.to_json_dict()))
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["pinv", str(a_path), "--out", str(out1)]) == 0
    assert main(["pinv", str(a_path), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    assert main(["verify", str(a_path), str(out1)]) == 0
    doc = json.loads(capsys.readouterr().out)
    flags_ok = all(doc["report"]["satisfied"])
    assert report("C9 CLI determinism + verify round trip", identical and flags_ok)
