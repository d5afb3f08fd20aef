import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from functools import reduce
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einverse
from einverse import (
    LambdaKind,
    Tensor,
    chain,
    common_solution,
    conj_transpose,
    frobenius_distance,
    frobenius_norm,
    penrose_check,
    random_tensor,
    reverse_order_diagnose,
    solve_ax,
    solve_axb,
    unit_tensor,
)
from einverse import algebra, cli, inverses
from einverse.cli import main
from conftest import conditioned, rank_deficient, rt
from golden_data import MP_A, MP_A_PINV, MP_B, ROL14_A, ROL14_B, ROL14_X, ROL14_Y


@pytest.fixture
def write_tensor(tmp_path):
    def _write(name, tensor):
        path = tmp_path / name
        path.write_text(json.dumps(tensor.to_json_dict()))
        return str(path)

    return _write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_pinv_golden(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    code, doc = run_json(capsys, ["pinv", a_path])
    assert code == 0
    got = Tensor.from_json_dict(doc)
    assert np.abs(got.data - MP_A_PINV.data).max() <= 1e-10
    assert all(doc["report"]["satisfied"])
    assert max(doc["report"]["residuals"]) <= 1e-10


def test_pinv_byte_identical_runs(write_tensor, tmp_path):
    a_path = write_tensor("a.json", rt([2, 2], [3], seed=5))
    out1, out2 = str(tmp_path / "o1.json"), str(tmp_path / "o2.json")
    assert main(["pinv", a_path, "--out", out1]) == 0
    assert main(["pinv", a_path, "--out", out2]) == 0
    b1 = (tmp_path / "o1.json").read_bytes()
    assert b1 == (tmp_path / "o2.json").read_bytes()
    assert len(b1) > 0


def test_verify_round_trip_of_pinv_output(write_tensor, tmp_path, capsys):
    a_path = write_tensor("a.json", MP_A)
    x_path = str(tmp_path / "x.json")
    assert main(["pinv", a_path, "--out", x_path]) == 0
    pinv_doc = json.loads((tmp_path / "x.json").read_text())
    code, doc = run_json(capsys, ["verify", a_path, x_path])
    assert code == 0
    assert all(doc["report"]["satisfied"])
    for r_new, r_old in zip(doc["report"]["residuals"], pinv_doc["report"]["residuals"]):
        assert abs(r_new - r_old) <= 1e-15


def test_solve_identity(write_tensor, capsys):
    i_path = write_tensor("i.json", unit_tensor([2, 2]))
    d = rt([2, 2], [2, 2], seed=6)
    d_path = write_tensor("d.json", d)
    code, doc = run_json(capsys, ["solve", i_path, i_path, d_path])
    assert code == 0
    assert doc["consistent"] is True
    got = Tensor.from_json_dict(doc["particular"])
    assert np.abs(got.data - d.data).max() <= 1e-12


def test_solve_generator_flag(write_tensor, capsys):
    i_path = write_tensor("i.json", unit_tensor([2]))
    d_path = write_tensor("d.json", rt([2], [2], seed=7))
    z_path = write_tensor("z.json", rt([2], [2], seed=8))
    code, doc = run_json(capsys, ["solve", i_path, i_path, d_path, "--z", z_path])
    assert code == 0
    assert "generated_solution" in doc


def test_solve_require_consistent_exit_code(write_tensor, capsys):
    a = Tensor.from_flat((2, 2), 1, [1, 0, 0, 0])
    a_path = write_tensor("a.json", a)
    d_path = write_tensor("d.json", rt([2], [2], seed=9))
    code = main(["solve", a_path, a_path, d_path, "--require-consistent"])
    captured = capsys.readouterr()
    assert code == 4
    assert "error: inconsistent:" in captured.err
    # without the flag the same system reports code 0 and consistent=false
    code, doc = run_json(capsys, ["solve", a_path, a_path, d_path])
    assert code == 0
    assert doc["consistent"] is False


def test_solve_ax_mp_variant(write_tensor, capsys):
    a_path = write_tensor("a.json", rt([2, 2], [2, 2], seed=10))
    b_path = write_tensor("b.json", rt([2, 2], [3], seed=11))
    code, doc = run_json(capsys, ["solve-ax", a_path, b_path])
    assert code == 0
    assert doc["consistent"] is True  # generic square a is invertible
    # --mp changed nothing and is gone
    assert main(["solve-ax", a_path, b_path, "--mp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument: unrecognized arguments: --mp\n"


def solve_verb_operands(verb, consistent):
    """The library solver behind ``verb``, its operands (with a rank-2 ``a``) and a free tensor."""
    a = rank_deficient([2, 2], [3], seed=50, rank=2)
    xhat, other = rt([3], [2], seed=51), rt([3], [2], seed=52)
    g = rt([2], [2], seed=53)
    off_range = rt([2, 2], [2], seed=54)  # generically outside the range of a
    if verb == "solve":
        d = chain(a, xhat, g) if consistent else off_range
        return solve_axb, [a, g, d], other
    if verb == "solve-ax":
        return solve_ax, [a, chain(a, xhat) if consistent else off_range], other
    # a x = b and x g = f; another f breaks the coupling a f = b g
    f = chain(xhat if consistent else other, g)
    return common_solution, [a, chain(a, xhat), g, f], other


SOLVE_VERBS = ("solve", "solve-ax", "common")


@pytest.mark.parametrize("verb", SOLVE_VERBS)
def test_solve_verbs_generator_matches_library(verb, write_tensor, capsys):
    solver, operands, z = solve_verb_operands(verb, consistent=True)
    paths = [write_tensor(f"op{i}.json", t) for i, t in enumerate(operands)]
    code, doc = run_json(capsys, [verb, *paths, "--z", write_tensor("z.json", z)])
    assert code == 0
    assert doc["consistent"] is True
    want = solver(*operands).generator(z).to_json_dict()
    assert doc["generated_solution"] == want


@pytest.mark.parametrize("verb", SOLVE_VERBS)
def test_solve_verbs_require_consistent(verb, write_tensor, capsys):
    _, operands, _ = solve_verb_operands(verb, consistent=False)
    paths = [write_tensor(f"op{i}.json", t) for i, t in enumerate(operands)]
    code = main([verb, *paths, "--require-consistent"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["consistent"] is False
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: inconsistent:")


@pytest.mark.parametrize("verb", SOLVE_VERBS)
def test_solve_verbs_table_format(verb, write_tensor, capsys):
    _, operands, _ = solve_verb_operands(verb, consistent=True)
    paths = [write_tensor(f"op{i}.json", t) for i, t in enumerate(operands)]
    code = main([verb, *paths, "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "consistent: True" in out
    assert "residual: " in out
    assert "particular:\n  extents: " in out


@pytest.mark.parametrize("verb, solver", [
    ("solve", "solve_axb"), ("solve-ax", "solve_ax"), ("common", "common_solution"),
])
def test_solve_verbs_call_the_solver_the_module_names(verb, solver, write_tensor, capsys):
    # a wrapper set on cli's attribute (as a tracer or a mock does) sees every call
    path = write_tensor("a.json", MP_A)
    operands = [path] * len(cli._VERBS[verb][1])
    with mock.patch.object(cli, solver, wraps=getattr(cli, solver)) as wrapped:
        assert main([verb, *operands]) == 0
    assert wrapped.call_count == 1
    capsys.readouterr()


def test_common_verb(write_tensor, capsys):
    i_path = write_tensor("i.json", unit_tensor([2]))
    b_path = write_tensor("b.json", rt([2], [2], seed=12))
    code, doc = run_json(capsys, ["common", i_path, b_path, i_path, b_path])
    assert code == 0
    assert doc["consistent"] is True


def test_common_verdict_is_the_particular_solutions_residual(write_tensor, capsys):
    # a x = b and x d = f each hold within tol, and so does a f = b d, but no
    # x solves both: a x = b needs x = diag(1, 1.001), x d = f the identity
    a = Tensor.from_flat((2, 2), 1, [1, 0, 0, 1e-6])
    b = Tensor.from_flat((2, 2), 1, [1, 0, 0, 1e-6 + 1e-9])
    i_path = write_tensor("i.json", unit_tensor([2]))
    paths = [write_tensor("a.json", a), write_tensor("b.json", b), i_path, i_path]
    code = main(["common", *paths, "--require-consistent"])
    captured = capsys.readouterr()
    assert code == 4
    doc = json.loads(captured.out)
    assert doc["consistent"] is False and doc["residual"] > 1e4 * cli.SOLVE_TOL
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: inconsistent:")


def test_ginv_seeded_and_reported(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    code, doc = run_json(capsys, ["ginv", a_path, "--lambda", "1,3", "--seed", "7"])
    assert code == 0
    assert doc["lambda"] == [1, 3]
    assert doc["report"]["satisfied"][0] and doc["report"]["satisfied"][2]
    # same seed reproduces the same member
    code2, doc2 = run_json(capsys, ["ginv", a_path, "--lambda", "1,3", "--seed", "7"])
    assert doc2["re"] == doc["re"]
    code3, doc3 = run_json(capsys, ["ginv", a_path, "--lambda", "1", "--seed", "8"])
    assert doc3["report"]["satisfied"][0]


def test_ginv_reflexive_and_mp_kinds(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    code, doc = run_json(capsys, ["ginv", a_path, "--lambda", "1,2", "--seed", "3"])
    assert code == 0
    assert doc["report"]["satisfied"][0] and doc["report"]["satisfied"][1]
    code, doc = run_json(capsys, ["ginv", a_path, "--lambda", "mp"])
    assert code == 0
    assert all(doc["report"]["satisfied"])


@pytest.mark.parametrize("lam", ["1", "1,2", "1,3", "1,4", "mp"])
def test_ginv_accepts_an_ill_conditioned_full_rank_input(lam, write_tensor, capsys):
    # pinv(a) fails the fixed tolerance here by rounding alone; ginv reports that
    # in its one grade, as pinv does, instead of refusing the input
    a = conditioned([8, 8], [8, 8], 1e8, seed=0)
    code = main(["ginv", write_tensor("a.json", a), "--lambda", lam, "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "error: precondition:" not in captured.err
    report = json.loads(captured.out)["report"]
    assert report["tolerance"] == cli.DEFAULT_TOL
    assert report["satisfied"] == [r <= cli.DEFAULT_TOL for r in report["residuals"]]


@pytest.mark.parametrize("lam, draws", [("1", 1), ("1,2", 2), ("1,3", 1), ("1,4", 1), ("mp", 0)])
def test_ginv_grades_once_and_draws_only_the_free_tensors_it_uses(lam, draws, write_tensor, capsys):
    a_path = write_tensor("a.json", rt([2, 2], [3], seed=34))
    with mock.patch("einverse.inverses.penrose_check", wraps=penrose_check) as in_lib, \
            mock.patch.object(cli, "penrose_check", wraps=penrose_check) as in_cli, \
            mock.patch.object(cli, "random_tensor", wraps=random_tensor) as sample:
        assert main(["ginv", a_path, "--lambda", lam, "--seed", "5"]) == 0
    capsys.readouterr()
    assert in_lib.call_count + in_cli.call_count == 1
    assert [c.args[2] for c in sample.call_args_list] == [5, 6][:draws]


def test_reflexive_ginv_forms_the_projector_once():
    # pinv(a) a once, kept on a, and two steps for y a z. A wide a keeps a pinv(a) too, so
    # each {1}-member takes two more steps; a tall a's would outgrow pinv(a) a, so three
    for a, count in ((rt([3], [2, 2], seed=35), 8), (rt([2, 2], [3], seed=35), 9)):
        with mock.patch("einverse.algebra._contract", wraps=algebra._contract) as steps:
            cli._GINV["1,2"](a, 5)
        assert steps.call_count == count


def test_check_rol_passes_the_given_inverses(write_tensor, capsys):
    paths = [write_tensor(f"{n}.json", t) for n, t in
             (("a", ROL14_A), ("b", ROL14_B), ("x", ROL14_X), ("y", ROL14_Y))]
    argv = ["check-rol", *paths[:2], "--lambda", "1,4"]
    code, doc = run_json(capsys, argv + ["--ga", paths[2], "--gb", paths[3]])
    assert code == 0
    want = reverse_order_diagnose(ROL14_A, ROL14_B, LambdaKind.parse("1,4"),
                                  ga=ROL14_X, gb=ROL14_Y)
    assert doc["candidate"] == want.candidate.to_json_dict()
    assert doc["report"] == want.candidate_report.to_json_dict()
    assert [(c["name"], c["residual"], c["holds"]) for c in doc["conditions"]] == [
        (c.name, c.residual, c.holds) for c in want.conditions
    ]
    assert doc["ga_is_lambda_inverse"] and doc["gb_is_lambda_inverse"]
    assert doc["candidate_is_inverse"] is want.candidate_is_inverse
    # without them the Moore-Penrose inverses are used, and the candidate differs
    code, default = run_json(capsys, argv)
    assert code == 0 and default["candidate"] != doc["candidate"]


def test_tol_reaches_the_report_and_the_verdict(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    for argv in (["pinv", a_path], ["ginv", a_path, "--lambda", "1,3"]):
        code, doc = run_json(capsys, argv + ["--tol", "1e-3"])
        assert code == 0 and doc["report"]["tolerance"] == 1e-3
    # a x a = d misses d only in the entry a cannot reach, by 1e-6
    a = Tensor.from_flat((2, 2), 1, [1, 0, 0, 0])
    d = Tensor.from_flat((2, 2), 1, [1, 0, 0, 1e-6])
    argv = ["solve", write_tensor("a1.json", a), write_tensor("a2.json", a),
            write_tensor("d.json", d)]
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["consistent"] is False
    assert cli.SOLVE_TOL < doc["residual"] < 1e-5
    code, loose = run_json(capsys, argv + ["--tol", "1e-5"])
    assert code == 0 and loose["consistent"] is True
    assert loose["residual"] == doc["residual"]


def test_check_rol_mp_golden_counterexample(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    b_path = write_tensor("b.json", MP_B)
    code, doc = run_json(capsys, ["check-rol", a_path, b_path, "--lambda", "mp"])
    assert code == 0
    assert doc["verdict"] == "candidate fails"
    assert doc["reverse_order_holds"] is False
    # the candidate fails the third defining equation for the product
    assert doc["report"]["satisfied"][2] is False
    _, (distance, holds) = numpy_conditions(MP_A, MP_B, "mp")
    assert doc["mp_distance"] == pytest.approx(distance, rel=1e-6) and holds is False
    assert doc["mp_distance"] > 1e6 * doc["report"]["tolerance"]


@pytest.mark.parametrize("given", ["ga", "gb"])
def test_check_rol_names_a_given_inverse_of_the_wrong_shape(given, write_tensor, capsys):
    a, b = rt([2], [3], seed=15), rt([3], [4], seed=16)
    # the given inverse is the other operand, not shaped like its own operand swapped
    owner, wrong = (a, b) if given == "ga" else (b, a)
    argv = ["check-rol", write_tensor("a.json", a), write_tensor("b.json", b), "--lambda", "1"]
    code = main(argv + [f"--{given}", write_tensor("g.json", wrong)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        f"error: shape: {given} {wrong!r} does not match {owner!r} with groups swapped\n"
    )


def test_check_rol_with_lambda_14(write_tensor, capsys):
    a_path = write_tensor("a.json", rt([2, 2], [3], seed=13))
    code, doc = run_json(
        capsys,
        ["check-rol", a_path, write_tensor("b.json", rt([3], [2], seed=14)), "--lambda", "1,4"],
    )
    assert code == 0
    assert [c["name"] for c in doc["conditions"]] == ["ga_a_b_bstar_hermitian"]


def test_info(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    code, doc = run_json(capsys, ["info", a_path])
    assert code == 0
    assert doc["extents"] == [2, 2, 2, 2]
    assert doc["split"] == 2
    assert doc["rows"] == doc["cols"] == 4
    assert doc["frobenius_norm"] == pytest.approx(6.0**0.5)


def test_table_format(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    code = main(["info", a_path, "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "extents: [2, 2, 2, 2]" in out
    assert "frobenius_norm:" in out
    # a list of records: one indented block per record, "  -" between two
    code = main(["check-rol", a_path, write_tensor("b.json", MP_B), "--lambda", "mp",
                 "--format", "table"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    start = lines.index("conditions:")
    block = lines[start + 1 : start + 16]  # four conditions of three fields each
    assert block[3::4] == ["  -"] * 3
    del block[3::4]
    assert [line.partition(":")[0] for line in block] == ["  name", "  residual", "  holds"] * 4
    assert lines[start + 16].startswith("sufficient_condition_holds: ")


def test_argument_error_exit_code(capsys):
    for argv in (["pinv"], ["frobnicate"]):  # missing file operand, unknown verb
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: argument: "), captured.err


def test_usage_error_names_the_argument_once(capsys):
    assert main(["info", "a.json", "--tol", "abc"]) == 2
    assert capsys.readouterr().err == "error: argument: --tol: invalid float value: 'abc'\n"
    assert main(["frobnicate", "a.json"]) == 2
    line = capsys.readouterr().err
    # argparse renders the choices with repr up to some versions and with str after
    assert line in {
        f"error: argument: verb: invalid choice: 'frobnicate' (choose from {choices})\n"
        for choices in (", ".join(map(repr, cli._VERBS)), ", ".join(cli._VERBS))
    }


def usage_errors():
    """Argument lists the parser refuses: each verb with one usage slip, then bad verbs."""
    cases = []
    for verb, (_, operands, *_) in cli._VERBS.items():
        lam = ["--lambda", "1"] if verb in ("ginv", "check-rol") else []
        full = [verb, *["a.json"] * len(operands), *lam]
        cases += [
            [verb, *["a.json"] * (len(operands) - 1), *lam],  # an operand missing
            full + ["--bogus"],
            full + ["--tol", "abc"],
            full + ["--tol", "-1e-3"],  # an option to argparse, or a --tol below 0
            full + ["--format", "xml"],
        ]
    return cases + [["ginv", "a.json"], [], ["frobnicate", "a.json"]]


@pytest.mark.parametrize("argv", usage_errors(), ids=lambda argv: " ".join(argv) or "no verb")
def test_usage_error_is_one_argument_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument: "), captured.err


@pytest.mark.parametrize("argv, line", [
    (["ginv", "--lambda", "9"], "the following arguments are required: tensor"),
    (["check-rol", "a.json", "--lambda", "9"], "the following arguments are required: b"),
    (["ginv", "a.json", "--lambda", "9", "--seed", "q"], "--seed: invalid int value: 'q'"),
    (["ginv", "a.json", "--seed", "q", "--lambda", "9"], "--seed: invalid int value: 'q'"),
])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_parser_error_wins_over_a_bad_lambda(argv, line, fmt, capsys):
    # --lambda is read after the parser returns, so the parser's own error is the one reported
    assert main([*argv, "--format", fmt]) == 2
    assert capsys.readouterr() == ("", f"error: argument: {line}\n")


def test_unreadable_file_exit_code(tmp_path, capsys):
    code = main(["pinv", "/nonexistent/a.json"])
    assert code == 2
    assert "error: input:" in capsys.readouterr().err
    # every verb reads its operand files in order before computing: the first is named
    for verb, (_, names, *_) in cli._VERBS.items():
        operands = [str(tmp_path / f"{name}.json") for name in names]
        lam = ["--lambda", "1"] if verb in cli._KINDS else []
        assert main([verb, *operands, *lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: input: cannot read {operands[0]}: "), verb
        assert captured.err.count("\n") == 1


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pinv", str(bad)]) == 2
    assert "error: input:" in capsys.readouterr().err


def test_shape_error_exit_code(write_tensor, capsys):
    a_path = write_tensor("a.json", rt([2], [3], seed=15))
    b_path = write_tensor("b.json", rt([2], [2], seed=16))
    code = main(["check-rol", a_path, b_path, "--lambda", "mp"])
    assert code == 3
    assert "error: shape:" in capsys.readouterr().err


def test_bad_lambda_exit_code(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    code = main(["ginv", a_path, "--lambda", "9"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, lam",
    [("ginv", lam) for lam in ("2", "2,3", "1,2,3", "7", "x", "1 3")]
    + [("check-rol", lam) for lam in ("2", "1,2", "1,2,3", "7", "x", "1 3")],
)
@pytest.mark.parametrize("files", ["present", "missing"])
def test_unsupported_lambda_is_an_argument_error(verb, lam, files, write_tensor, tmp_path, capsys):
    # rejected before any operand file is read, so a missing one is never reported
    path = write_tensor("a.json", MP_A) if files == "present" else str(tmp_path / "none.json")
    out = tmp_path / "out.json"
    operands = [path] * (2 if verb == "check-rol" else 1)
    code = main([verb, *operands, "--lambda", lam, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument: "), captured.err


#: Every non-empty subset of the four equation labels as a --lambda text, and the long alias.
_EVERY_KIND = [",".join(map(str, flags)) for size in range(1, 5)
               for flags in itertools.combinations(range(1, 5), size)] + ["moore-penrose"]


@pytest.mark.parametrize("text", _EVERY_KIND)
def test_check_rol_takes_exactly_the_kinds_of_the_condition_table(text, svd_calls, tmp_path):
    kind = LambdaKind.parse(text)
    supported = str(kind) in inverses._ROL_CONDITIONS
    a, b = rt([2], [3], seed=5), rt([3], [2], seed=6)
    if supported:
        assert [c.name for c in reverse_order_diagnose(a, b, kind).conditions] == list(
            inverses._ROL_CONDITIONS[str(kind)]
        )
    else:
        with pytest.raises(ValueError, match=f"^unsupported kind {kind} for reverse-order"):
            reverse_order_diagnose(a, b, kind)
        assert svd_calls == []  # refused before either operand is factored
    # the kind is refused before any file is read; a supported one reaches the missing file
    missing = str(tmp_path / "none.json")
    code, out, err = run_main(["check-rol", missing, missing, "--lambda", text])
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: input: " if supported else "error: argument: "), err


def test_space_inside_a_lambda_list_is_an_argument_error(write_tensor, capsys):
    path = write_tensor("a.json", MP_A)
    assert main(["check-rol", path, path, "--lambda", "1 3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument: cannot parse lambda flags from '1 3'\n"


@pytest.mark.parametrize("verb", list(cli._VERBS))
@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
@pytest.mark.parametrize("files", ["present", "missing"])
def test_invalid_tol_is_an_argument_error(verb, tol, files, write_tensor, tmp_path, capsys):
    # rejected before any operand file is read, so a missing one is never reported
    path = write_tensor("a.json", MP_A) if files == "present" else str(tmp_path / "none.json")
    out = tmp_path / "out.json"
    operands = [path] * len(cli._VERBS[verb][1])
    lam = ["--lambda", "1"] if verb in ("ginv", "check-rol") else []
    code = main([verb, *operands, *lam, f"--tol={tol}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not out.exists()
    lines = captured.err.splitlines()
    assert lines == [f"error: argument: --tol must be finite and >= 0, not {float(tol)}"]


def test_zero_tol_is_legal(write_tensor, capsys):
    path = write_tensor("a.json", MP_A)
    code, doc = run_json(capsys, ["solve-ax", path, path, "--tol", "0"])
    assert code == 0
    assert doc["consistent"] is (doc["residual"] == 0.0)


def strict_json(text):
    """Parse ``text`` as strict JSON: the NaN and Infinity tokens are refused."""

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def every_verb(write_tensor):
    """One argument list per verb (and per check-rol kind), on well-formed files."""
    a = rank_deficient([2, 2], [3], seed=60, rank=2)
    path = {
        name: write_tensor(f"{name}.json", t)
        for name, t in {
            "a": a, "g": rt([2], [2], seed=61), "d": rt([2, 2], [2], seed=62),
            "f": rt([3], [2], seed=63), "z": rt([3], [2], seed=64),
            "x": rt([3], [2, 2], seed=67), "n23": rt([2], [3], seed=65),
            "n34": rt([3], [4], seed=66), "astar": conj_transpose(a),
        }.items()
    }
    argvs = [
        ["pinv", path["a"]],
        ["solve", path["a"], path["g"], path["d"], "--z", path["z"]],
        ["solve-ax", path["a"], path["d"], "--z", path["z"]],
        ["common", path["a"], path["d"], path["g"], path["f"], "--z", path["z"]],
        ["verify", path["a"], path["x"]],
        ["info", path["a"]],
    ]
    for lam in cli._GINV:
        argvs.append(["ginv", path["a"], "--lambda", lam, "--seed", "3"])
    for lam in ("1", "1,3", "1,4", "mp"):
        argvs.append(["check-rol", path["a"], path["f"], "--lambda", lam])
        # operands on which mp's b = a* and b = pinv(a) are not conformable
        argvs.append(["check-rol", path["n23"], path["n34"], "--lambda", lam])
        # b exactly a*, whose inverse is taken from a's
        argvs.append(["check-rol", path["a"], path["astar"], "--lambda", lam])
    return argvs


def test_every_verb_writes_strict_json(write_tensor, capsys):
    for argv in every_verb(write_tensor):
        assert main(argv) == 0, argv
        strict_json(capsys.readouterr().out)


LARGE = Tensor(np.array([[1e200, 2e200], [3e200, 4e200]]), 1)
NEAR_MAX = Tensor(np.array([[1.7e308, 1.6e308], [1.5e308, 1.4e308]]), 1)


def test_finite_norm_of_entries_whose_squares_overflow(write_tensor):
    path = write_tensor("large.json", LARGE)
    code, out, err = run_main(["pinv", path])
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert report["satisfied"] == [True] * 4 and max(report["residuals"]) <= 1e-14
    code, out, err = run_main(["info", path])
    assert (code, err) == (0, "")
    assert json.loads(out)["frobenius_norm"] == pytest.approx(30**0.5 * 1e200, rel=1e-15)


@pytest.mark.parametrize("verb", ["pinv", "verify", "info"])
@pytest.mark.parametrize("to_file", [False, True])
def test_non_finite_output_is_a_numeric_error(verb, to_file, write_tensor, tmp_path, capsys):
    # the near-max entries' largest singular value and norm leave the double range;
    # so does the product a g a of the 1e200 entries that verify forms with g = a
    path = write_tensor("huge.json", LARGE if verb == "verify" else NEAR_MAX)
    out = tmp_path / "out.json"
    argv = [verb, path] + ([path] if verb == "verify" else []) + (["--out", str(out)] * to_file)
    for fmt in ("json", "table"):
        code = main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert code == 1, fmt
        assert captured.out == ""
        assert not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: numeric: ")


def test_documents_agree_to_rounding_across_blas_thread_counts(write_tensor):
    # byte identity holds for one numpy/BLAS build and thread count; across thread
    # counts the SVD's last bits differ, so compare verdicts and entries (n = 128)
    a = rt([8, 16], [8, 16], seed=90)
    path = {name: write_tensor(f"{name}.json", t) for name, t in
            {"a": a, "astar": conj_transpose(a), "d": rt([8, 16], [8, 16], seed=91)}.items()}
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(einverse.__file__))}
    bound = 100 * a.row_count * np.finfo(np.float64).eps
    for argv, verdict, entries in (
        (["pinv", path["a"]], lambda doc: doc["report"]["satisfied"], lambda doc: doc),
        (["solve", path["a"], path["astar"], path["d"]], lambda doc: doc["consistent"],
         lambda doc: doc["particular"]),
    ):
        runs = [
            subprocess.run([sys.executable, "-m", "einverse.cli", *argv], capture_output=True,
                           text=True, env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
                           timeout=120)
            for threads in (1, 2)
        ]
        assert [done.returncode for done in runs] == [0, 0], [done.stderr for done in runs]
        one, two = (json.loads(done.stdout) for done in runs)
        assert verdict(one) == verdict(two), argv
        x1, x2 = (Tensor.from_json_dict(entries(doc)) for doc in (one, two))
        assert frobenius_distance(x1, x2) <= bound * frobenius_norm(x1), argv


TINY = Tensor(np.array([[1e-310, 0.0], [0.0, 1e-310]]), 1)


@pytest.mark.parametrize("tensor", [NEAR_MAX, TINY], ids=["1.7e308", "diagonal-1e-310"])
def test_numeric_failure_prints_one_stderr_line(tensor, write_tensor):
    # results leave the double range (numpy warns on 1/sigma of the second); only the
    # error line may show
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(einverse.__file__))}
    argv = [sys.executable, "-m", "einverse.cli", "pinv", write_tensor("t.json", tensor)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numeric: "), done.stderr


@pytest.mark.parametrize("argv", [["pinv"]] + [["ginv", "--lambda", lam] for lam in cli._GINV],
                         ids=["pinv"] + [f"ginv-{lam}" for lam in cli._GINV])
def test_overflowing_singular_value_is_a_numeric_error(argv, write_tensor):
    # sigma_max is inf: the inverse is refused, not written as zeros
    path = write_tensor("t.json", NEAR_MAX)
    for fmt in ("json", "table"):
        code, out, err = run_main([argv[0], path, *argv[1:], "--format", fmt])
        assert (code, out) == (1, ""), fmt
        reason = "SVD failed: a singular value is beyond the double range (inf)"
        assert err == f"error: numeric: {reason}\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_overflowing_inverse_is_a_numeric_error(fmt, write_tensor):
    # 1 / 1e-310 is beyond the double range: the inverse is refused, not written as NaN
    code, out, err = run_main(["pinv", write_tensor("t.json", TINY), "--format", fmt])
    reason = ("pseudoinverse failed: an entry is beyond the double range "
              "(smallest kept singular value 1e-310)")
    assert (code, out, err) == (1, "", f"error: numeric: {reason}\n")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_memory_failure_is_one_memory_line(fmt, write_tensor):
    failure = MemoryError("Unable to allocate 23.8 GiB for an array")
    with mock.patch.object(cli, "penrose_check", side_effect=failure):
        code, out, err = run_main(["pinv", write_tensor("a.json", MP_A), "--format", fmt])
    assert (code, out, err) == (1, "", f"error: memory: {failure}\n")


@pytest.mark.skipif(sys.platform == "win32", reason="no address-space limit")
@pytest.mark.parametrize("argv", [["pinv"], ["ginv", "--lambda", "1,3"]], ids=["pinv", "ginv"])
def test_memory_failure_in_a_limited_process_is_one_memory_line(argv, tmp_path):
    import resource

    # grading this 1 x 40000 operator forms a 40000 x 40000 complex product (24 GiB), so
    # the file only ever runs in a child whose address space is limited to 2 GiB
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"extents": [1, 40000], "split": 1, "re": [1.0] * 40000}))
    limit = 2 * 1024**3
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(einverse.__file__)),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "einverse.cli", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: memory: "), done.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="no address-space limit")
@pytest.mark.parametrize("verb", ["solve-ax", "common"])
def test_generator_on_a_wide_operator_runs_in_a_limited_process(verb, tmp_path):
    import resource

    # the projector pinv(a) a of this 1 x 5000 operator takes 400 MB, and the generator forms
    # nothing else of its size, so the run fits in an address space limited to 1 GiB
    n = 5000
    docs = {
        "a": {"extents": [1, n], "split": 1, "re": [1.0] * n},
        "one": {"extents": [1, 1], "split": 1, "re": [1.0]},
        "col": {"extents": [n, 1], "split": 1, "re": [0.5] * n},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    a, one, col = (str(tmp_path / f"{name}.json") for name in docs)
    operands = {"solve-ax": [a, one], "common": [a, one, one, col]}[verb]
    limit = 1024**3
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(einverse.__file__)),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "einverse.cli", verb, *operands, "--z", col],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["generated_solution"]["extents"] == [n, 1]


def cli_process(argv, unbuffered, **kwargs):
    """Start the CLI in a child process, with stdout unbuffered or not."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(einverse.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "einverse.cli", *argv], env=env, **kwargs)


def assert_one_stdout_error(code, err):
    assert code == 2
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output: cannot write stdout: "), err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_one_output_line(unbuffered, write_tensor):
    # more output than a pipe holds, so the write meets the closed end
    path = write_tensor("a.json", random_tensor((8, 8, 8, 8), split=2, seed=3))
    with cli_process(["pinv", path], unbuffered, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE) as proc:
        assert len(os.read(proc.stdout.fileno(), 1)) == 1
        proc.stdout.close()
        err = proc.stderr.read()
    assert_one_stdout_error(proc.returncode, err)


def test_stdout_closed_at_start_up_is_one_output_line(write_tensor):
    # with descriptor 1 closed before the interpreter starts, sys.stdout is None
    path = write_tensor("a.json", MP_A)
    with cli_process(["info", path], False, stderr=subprocess.PIPE,
                     preexec_fn=lambda: os.close(1)) as proc:
        err = proc.stderr.read()
    assert_one_stdout_error(proc.returncode, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_is_one_output_line(unbuffered, write_tensor):
    path = write_tensor("a.json", MP_A)
    with open("/dev/full", "wb") as full, cli_process(
        ["info", path], unbuffered, stdout=full, stderr=subprocess.PIPE
    ) as proc:
        err = proc.stderr.read()
    assert_one_stdout_error(proc.returncode, err)


def test_failing_in_memory_stdout_is_one_output_line(write_tensor, monkeypatch, capsys):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(["info", write_tensor("a.json", MP_A)]) == 2
    assert capsys.readouterr().err == (
        "error: output: cannot write stdout: [Errno 28] No space left on device\n"
    )


def as_lists(value):
    """``value`` with every numpy array in it replaced by its list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(child) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(child) for child in value]
    return value


def reference_text(doc):
    """What the JSON writer must produce: the pure-Python indenting encoder's bytes.

    Arrays are rendered as their lists.
    """
    return json.dumps(as_lists(doc), indent=2, allow_nan=False) + "\n"


def test_every_verb_writes_the_reference_encoder_bytes(write_tensor, tmp_path, capsys):
    out = tmp_path / "out.json"
    for argv in every_verb(write_tensor):
        assert main(argv) == 0, argv
        text = capsys.readouterr().out
        assert text == reference_text(json.loads(text)), argv
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert out.read_text(encoding="utf-8") == text, argv


def test_each_handler_returns_the_document_main_writes(write_tensor, capsys):
    for argv in every_verb(write_tensor):
        args = cli.build_parser().parse_args(argv)
        if args.verb in cli._KINDS:
            args.lam = LambdaKind.parse(args.lam)
        operands = []
        for name in cli._VERBS[args.verb][1]:
            with open(getattr(args, name), encoding="utf-8") as fh:
                operands.append(Tensor.from_json_dict(json.load(fh)))
        doc = args.func(args, *operands)
        assert main(argv) == 0, argv
        assert "".join(cli._json_text(doc)) == capsys.readouterr().out, argv


@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
def test_unwritable_out_is_an_output_error(target, write_tensor, tmp_path, capsys):
    out = {"missing-directory": tmp_path / "none" / "out.json", "directory": tmp_path,
           "empty": ""}[target]
    for argv in every_verb(write_tensor):
        for fmt in ("json", "table"):
            code = main(argv + ["--out", str(out), "--format", fmt])
            captured = capsys.readouterr()
            assert code == 2, (argv, fmt)
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith(f"error: output: cannot write {out}: "), captured.err


_EDGE_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e22, 1.0, -2.5e-308,
    # either side of where the writer hands a float to repr instead of orjson
    1e-4, -1e-4, 9.999999999999999e-05, 0.00010000000000000002, 9999999999999998.0, 1e15, -1e16,
])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
# keys and strings also hold NUL, quotes, backslashes, "run", "~" and "null"
_TEXT = st.one_of(
    st.text(max_size=4),
    st.lists(st.sampled_from(["\x00", "run", "~", "null", '"', "\\", "\n", " "]), max_size=4)
    .map("".join),
)
# runs as the CLI holds them: float views of complex entries
_RUNS = st.lists(_FLOATS, min_size=1, max_size=9).map(lambda v: np.array(v, dtype=complex).real)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT, _FLOATS,
              st.lists(_FLOATS, max_size=9), _RUNS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON, chunk=st.integers(1, 4))
@example(doc={'"run': np.array([0.5, 1.0]), "run": ["run~", 'x"run~'], "\x00": [np.array([2.5])]},
         chunk=1)
@example(doc=np.array([1.5, -0.0]), chunk=1)
def test_json_writer_matches_the_reference_encoder(doc, chunk):
    with mock.patch.object(cli, "_RUN_CHUNK", chunk):
        assert "".join(cli._json_text(doc)) == reference_text(doc)


def test_json_writer_matches_the_reference_encoder_across_magnitudes():
    # log-uniform magnitudes from subnormal to huge, so most chunks mix both writers' floats
    rng = np.random.default_rng(15)
    run = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-320, 300, 3000)
    run[::97], run[50::89] = -0.0, 5e-324
    doc = {"re": run}
    for chunk in (7, cli._RUN_CHUNK):  # chunk boundaries inside the run, in both formats
        with mock.patch.object(cli, "_RUN_CHUNK", chunk):
            assert "".join(cli._json_text(doc)) == reference_text(doc)
            assert "".join(cli._table_text(doc)) == f"re: {run.tolist()}\n"


def test_json_writer_refuses_what_the_reference_encoder_refuses():
    doc = {"re": np.array([0.5]), "x": ("run", np.array([1.5])), 1: {"re": np.array([2.5])}}
    assert "".join(cli._json_text(doc)) == reference_text(doc)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text({"re": np.array([0.5]), "flag": np.bool_(True)})


def test_json_writer_runs_the_encoder_once():
    # keys and strings that hold "run", "run~" and quotes, and a run nested in a list
    doc = {"run": np.array([0.5]), '"run"': ["run", "run~"], "x": [np.array([1.5, 2.5])]}
    want = reference_text(doc)
    with mock.patch.object(json.JSONEncoder, "iterencode", autospec=True,
                           side_effect=json.JSONEncoder.iterencode) as iterencode:
        assert "".join(cli._json_text(doc)) == want
    assert iterencode.call_count == 1


_NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@settings(max_examples=100, deadline=None)
@given(
    bad=_NON_FINITE,
    where=st.sampled_from(["run", "scalar after a run", "mixed list"]),
    position=st.integers(0, 2 * 1024 + 1),
    to_file=st.booleans(),
)
def test_non_finite_value_anywhere_writes_nothing(tmp_path_factory, bad, where, position, to_file):
    run = np.full(2 * 1024 + 2, 0.25)
    doc = {"particular": {"extents": [len(run)], "split": 0, "re": run}, "residual": 0.5}
    if where == "run":
        run[position] = bad
    elif where == "scalar after a run":
        doc["mp_distance"] = bad
    else:
        doc["conditions"] = [None, 1.0] * (position % 3) + [bad]
    with pytest.raises(ValueError) as want:
        reference_text(doc)
    out = tmp_path_factory.mktemp("nonfinite") / "out.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(einverse.NumericError) as got:
        cli._emit(doc, str(out) if to_file else None, "json")
    assert str(got.value) == f"non-finite value in output: {want.value}"
    assert stdout.getvalue() == ""
    assert not out.exists()


class _RecordingStdout(io.StringIO):
    """An in-memory stdout that keeps the size of every ``write``."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


# a float repr has at most 24 characters; in JSON each is followed by ",\n" and a
# 4-space indent, in a table by ", "
@pytest.mark.parametrize("fmt, width", [("json", 24 + 2 + 4), ("table", 24 + 2)],
                         ids=["json", "table"])
def test_large_output_is_written_in_bounded_pieces(fmt, width, write_tensor, monkeypatch):
    a = random_tensor((16, 16, 16, 16), split=2, seed=11)  # 65,536 entries, 131,072 floats
    path = write_tensor("a.json", a)
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["pinv", path, "--format", fmt]) == 0
    text = stdout.getvalue()
    if fmt == "json":
        assert text == reference_text(json.loads(text))
    bound = cli._RUN_CHUNK * width
    assert max(stdout.sizes) <= bound < len(text) // 50


def numpy_conditions(a, b, lam, tol=1e-10):
    """check-rol's conditions and (for mp) its reverse-order verdict, on the flattenings.

    Each residual is ``||p - q||_F / (1 + ||q||_F)``.  A condition whose product or comparison is not conformable gives ``(None, False)``.
    """
    m_a, m_b = a.as_matrix(), b.as_matrix()
    g_a, g_b = np.linalg.pinv(m_a), np.linalg.pinv(m_b)
    star = lambda m: m.conj().T  # noqa: E731

    def check(p_of, *factors):
        try:
            q = reduce(np.matmul, factors)
            p = p_of(q)
        except ValueError:  # non-conformable factors
            return None, False
        if p.shape != q.shape:
            return None, False
        res = float(np.linalg.norm(p - q)) / (1.0 + float(np.linalg.norm(q)))
        return res, res <= tol

    def equal_to(m):
        return lambda q: m

    if lam == "1":
        return [check(lambda q: q @ q, g_a, m_a, m_b, g_b)], None
    if lam == "1,3":
        return [check(star, star(m_a), m_a, m_b, g_b)], None
    if lam == "1,4":
        return [check(star, g_a, m_a, m_b, star(m_b))], None
    conditions = [
        check(equal_to(m_b), star(m_a)),
        check(equal_to(m_b), g_a),
        check(equal_to(star(m_a) @ m_a), np.eye(m_a.shape[1])),
        check(equal_to(m_b @ star(m_b)), np.eye(m_b.shape[0])),
    ]
    return conditions, check(equal_to(g_b @ g_a), np.linalg.pinv(m_a @ m_b))


def _example():
    return random_tensor((2, 2, 3), split=2, seed=7)


#: check-rol operands: the library example's operand with, as b, its conjugate transpose
#: or a general tensor, and pairs with an empty index group.
_ROL_OPERANDS = {
    "conj_transpose": lambda: (_example(), conj_transpose(_example())),
    "general": lambda: (_example(), random_tensor((3, 2), 1, seed=9)),
    "empty-row-group": lambda: (random_tensor((3,), 0, seed=7), random_tensor((3, 2), 1, seed=9)),
    "empty-column-group": lambda: (random_tensor((2, 3), 2, seed=7), random_tensor((2,), 0, seed=9)),
}


@pytest.mark.parametrize("lam", ["1", "1,3", "1,4", "mp"])
@pytest.mark.parametrize("b_kind", list(_ROL_OPERANDS))
def test_check_rol_matches_plain_numpy(lam, b_kind, write_tensor, capsys):
    a, b = _ROL_OPERANDS[b_kind]()
    argv = ["check-rol", write_tensor("a.json", a), write_tensor("b.json", b), "--lambda", lam]
    code, doc = run_json(capsys, argv)
    assert code == 0
    conditions, rol = numpy_conditions(a, b, lam)
    assert [c["holds"] for c in doc["conditions"]] == [holds for _, holds in conditions]
    for got, (want, _) in zip(doc["conditions"], conditions):
        assert got["residual"] == (None if want is None else pytest.approx(want, abs=1e-12))
    if rol is None:
        assert "mp_distance" not in doc and "reverse_order_holds" not in doc
    else:
        assert doc["mp_distance"] == pytest.approx(rol[0], rel=1e-6, abs=1e-12)
        assert doc["reverse_order_holds"] is rol[1]


def test_version_flag(capsys):
    for argv in (["--version"], ["--help"], ["pinv", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


_WORDS = st.sampled_from(["x", "", "1,0", "two"])
_JUNK = st.one_of(st.none(), _WORDS, st.dictionaries(_WORDS, st.integers(), max_size=2))
_VALID = {"extents": [2, 2], "split": 1, "re": [1.0, 2.0, 3.0, 4.0]}


def _replaced(key, values):
    return values.map(lambda v: json.dumps({**_VALID, key: v}))


#: Files the strict RFC 8259 reader refuses: NaN and Infinity literals, a lone
#: surrogate, a byte order mark, and nesting deeper than it reads, also inside
#: a key it ignores.
STRICT_REFUSALS = [
    *('{"extents": [2, 2], "split": 1, "re": [1.0, %s, 3.0, 4.0]}' % word
      for word in ("NaN", "Infinity", "-Infinity")),
    '{"extents": [2, 2], "split": 1, "re": [1, 2, 3, 4], "x": "\\ud800"}',
    b"\xef\xbb\xbf" + json.dumps(_VALID).encode(),
    "[" * 100_000 + "]" * 100_000,
    *(json.dumps(_VALID)[:-1] + ', "x": ' + '{"a": ' * depth + "1" + "}" * depth + "}"
      for depth in (cli._MAX_DEPTH + 1, 100_000)),
]

#: Tensor files that are not tensors, as raw text (or bytes, for bad encodings).
MALFORMED = st.one_of(
    st.sampled_from(["", "{", "[1, 2", "null", "3", '"text"', "[]", "{}", "[" * 100_000]),
    st.sampled_from(sorted(_VALID)).map(
        lambda k: json.dumps({j: v for j, v in _VALID.items() if j != k})
    ),
    _replaced("extents", st.one_of(
        _JUNK,
        st.integers(),
        st.lists(st.integers(max_value=0), min_size=1, max_size=3),
        st.lists(st.one_of(_JUNK, st.integers(max_value=0)), min_size=1, max_size=3),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda e: prod(e) != 4),
    )),
    _replaced("split", st.one_of(_JUNK, st.integers().filter(lambda k: not 0 <= k <= 2))),
    st.sampled_from(["re", "im"]).flatmap(lambda key: _replaced(key, st.one_of(
        _JUNK,
        st.lists(st.floats(allow_nan=False), max_size=6).filter(lambda v: len(v) != 4),
        st.lists(st.one_of(_JUNK, st.just([1.0, 2.0])), min_size=4, max_size=4),
        st.tuples(
            st.sampled_from([float("nan"), float("inf"), -float("inf")]),
            st.integers(0, 3),
        ).map(lambda p: [p[0] if i == p[1] else 1.0 for i in range(4)]),
    ))),
    st.integers(0, 3).map(
        lambda i: '{"extents": [2, 2], "split": 1, "re": [%s]}'
        % ", ".join("1e400" if j == i else "1.0" for j in range(4))
    ),
    st.just(b'{"extents": [2, 2], "split": 1, "re": [1, 2, 3, 4], "x": "\xff"}'),
    st.sampled_from(STRICT_REFUSALS),
    # JSON types outside the schema, which numeric conversion alone would accept
    st.sampled_from([
        {**_VALID, "extents": "22"},
        {**_VALID, "extents": [2.5, 2]},
        {**_VALID, "split": True},
        {**_VALID, "re": ["1", 2.0, 3.0, 4.0]},
        {**_VALID, "re": [True, 2.0, 3.0, 4.0]},
        {**_VALID, "im": [0.0, "1", 0.0, 0.0]},
        {"extents": [], "split": 1, "re": [1.0]},  # an order-0 tensor has split 0
    ]).map(json.dumps),
)


def assert_refused_with_one_input_line(tmp, text, position):
    bad = tmp / "bad.json"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text)
    good = tmp / "good.json"
    good.write_text(json.dumps(_VALID))
    argv = ["info", str(bad)] if position == "info" else ["solve-ax", str(good), str(bad)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: input: {bad}")
    assert out.getvalue() == ""


@settings(max_examples=150, deadline=None)
@given(text=MALFORMED, position=st.sampled_from(["info", "solve-ax"]))
def test_malformed_tensor_files_exit_2_with_one_input_line(tmp_path_factory, text, position):
    assert_refused_with_one_input_line(tmp_path_factory.mktemp("fuzz"), text, position)


@pytest.mark.parametrize("text", STRICT_REFUSALS, ids=range(len(STRICT_REFUSALS)))
def test_strict_reader_refusals_exit_2_with_one_input_line(tmp_path, text):
    assert_refused_with_one_input_line(tmp_path, text, "info")


def test_reader_reads_nesting_up_to_its_limit_and_ignores_brackets_in_strings(tmp_path):
    a = rt((2,), (2,), seed=5)
    body = json.dumps(a.to_json_dict())[:-1] + ', "x": '  # the document is one level
    depth = cli._MAX_DEPTH - 1
    path = tmp_path / "a.json"
    for extra in (
        "[" * depth + "]" * depth,
        '{"a": ' * depth + '"' + "[{" * 3 * depth + '"' + "}" * depth,
        "[" + "[], " * 5 * depth + "[]]",  # many brackets, none deep
        '"\\"' + "[" * 3 * depth + '"',  # an escaped quote does not end the string
    ):
        path.write_text(body + extra + "}")
        assert cli._load_tensor(str(path)).data.tobytes() == a.data.tobytes(), extra[:20]


def test_reader_reads_the_stdlib_readers_bits(tmp_path):
    rng = np.random.default_rng(15)
    values = rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000)
    literals = [repr(v) for v in values.tolist()] + [
        "0.0", "-0.0", "5e-324", "-5e-324", "1.7976931348623157e308", "-1.7976931348623157e+308",
        "0.1234567890123456789012345", "1234567890123456789012345", "-1234567890123456789.012345e-7",
        "2.4703282292062328e-324", "9007199254740993", "1e-400", "-0", "1E+5",
    ]  # an even count, so every literal lands in re or im
    literals += ["%.24e" % v for v in values[:200].tolist()]
    rng.shuffle(literals)
    half = len(literals) // 2
    path = tmp_path / "t.json"
    path.write_text(
        '{"extents": [%d], "split": 0, "re": [%s], "im": [%s]}'
        % (half, ", ".join(literals[:half]), ", ".join(literals[half:]))
    )
    with open(path, encoding="utf-8") as fh:
        want = Tensor.from_json_dict(json.load(fh))
    assert cli._load_tensor(str(path)).data.tobytes() == want.data.tobytes()


def flat_doc(row, col, kind, rng):
    """A tensor file of index groups ``row`` and ``col``, built from its numpy flattening."""

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rows, cols = prod(row), prod(col)
    m = {
        "random": lambda: normal(rows, cols),
        "zero": lambda: np.zeros((rows, cols), dtype=complex),
        "rank-1": lambda: np.outer(normal(rows), normal(cols)),
    }[kind]()
    return {"extents": [*row, *col], "split": len(row), "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def flattening(doc):
    """The row-group x column-group matrix of a tensor document, in plain numpy."""
    entries = np.asarray(doc["re"], dtype=complex) + 1j * np.asarray(doc.get("im", 0.0))
    k = doc["split"]
    return entries.reshape(prod(doc["extents"][:k]), prod(doc["extents"][k:]))


def numpy_penrose_residuals(a_doc, g_doc):
    """The relative residuals of the four defining equations, on the flattenings."""
    m, g = flattening(a_doc), flattening(g_doc)
    mg, gm = m @ g, g @ m

    def rel(p, q):
        return np.linalg.norm(p - q) / (1.0 + np.linalg.norm(q))

    return {1: rel(mg @ m, m), 2: rel(gm @ g, g), 3: rel(mg.conj().T, mg), 4: rel(gm.conj().T, gm)}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_KINDS = st.sampled_from(["random", "zero", "rank-1"])


def index_groups(max_order):
    """Legal index groups: orders 0 to ``max_order``, extents 1 to 3, every split."""
    return st.integers(0, max_order).flatmap(lambda order: st.tuples(
        st.lists(st.integers(1, 3), min_size=order, max_size=order), st.integers(0, order),
    )).map(lambda es: (es[0][: es[1]], es[0][es[1] :]))


_OPERATORS = st.builds(
    lambda groups, kind, seed: flat_doc(*groups, kind, np.random.default_rng(seed)),
    index_groups(4), _KINDS, st.integers(0, 2**16),
)
FOUND_FILE = {"extents": [3], "split": 1, "re": [1, 2, 3]}


@settings(max_examples=200, deadline=None)
@given(a=_OPERATORS, other=index_groups(2), kind=_KINDS, seed=st.integers(0, 2**16),
       table=st.integers(0, 14))
@example(a=FOUND_FILE, other=([2], [3]), kind="random", seed=1, table=7)
@example(a={**FOUND_FILE, "split": 0}, other=([], [2]), kind="rank-1", seed=2, table=8)
@example(a={"extents": [], "split": 0, "re": [2.0]}, other=([], []), kind="random", seed=3, table=0)
def test_every_legal_shape_runs_on_every_verb(tmp_path_factory, a, other, kind, seed, table):
    """Every verb and kind on conformable files of any legal shape: no shape error.

    ``a`` is the operator; the other operands combine its index groups with
    ``other``'s.  Each argument list runs in JSON, and the ``table``-th one
    also in the table format (all of them at twice the time).
    """
    rng = np.random.default_rng(seed)
    row, col = a["extents"][: a["split"]], a["extents"][a["split"] :]
    e, f = other
    docs = {"a": a, "x": flat_doc(col, row, kind, rng)}
    for name, groups in {"b": (e, f), "d": (row, f), "z": (col, e), "re": (row, e),
                         "cf": (col, f)}.items():
        docs[name] = flat_doc(*groups, kind, rng)
    tmp = tmp_path_factory.mktemp("shapes")
    path = {name: tmp / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        path[name].write_text(json.dumps(doc))
        path[name] = str(path[name])
    argvs = [
        ["pinv", path["a"]], ["info", path["a"]], ["verify", path["a"], path["x"]],
        ["solve", path["a"], path["b"], path["d"], "--z", path["z"]],
        ["solve-ax", path["a"], path["d"], "--z", path["cf"]],
        ["common", path["a"], path["re"], path["b"], path["cf"], "--z", path["z"]],
        *(["ginv", path["a"], "--lambda", lam, "--seed", str(seed)] for lam in cli._GINV),
        *(["check-rol", path["a"], path["cf"], "--lambda", lam]
          for lam in inverses._ROL_CONDITIONS),
    ]
    for i, argv in enumerate(argvs):
        code, text, err = run_main(argv)
        rendered = run_main(argv + ["--format", "table"]) if i == table % len(argvs) else None
        assert code in (0, 1), (argv, err)  # every file is conformable: 3 would be a shape error
        if code:
            assert text == "" and err.startswith("error: numeric: ") and err.count("\n") == 1
            assert rendered in (None, (code, "", err))
            continue
        assert err == ""
        out = json.loads(text)
        assert text == reference_text(out), argv
        assert rendered in (None, (0, "".join(cli._table_text(out)), "")), argv
        if argv[0] in ("pinv", "ginv"):
            flags = LambdaKind.parse(argv[3] if argv[0] == "ginv" else "mp").flags
            assert (out["extents"], out["split"]) == (col + row, len(col)), argv
            residuals = numpy_penrose_residuals(a, out)
            assert all(out["report"]["satisfied"][i - 1] for i in flags), (argv, out["report"])
            assert all(residuals[i] <= 1e-10 for i in flags), (argv, residuals)
