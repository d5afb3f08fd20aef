import contextlib
import io
import json
from functools import reduce
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einverse import (
    Tensor,
    chain,
    common_solution,
    conj_transpose,
    random_tensor,
    solve_ax,
    solve_axb,
    unit_tensor,
)
from einverse.cli import main
from conftest import rank_deficient, rt
from golden_data import MP_A, MP_A_PINV, MP_B


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
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    assert len(b1) > 0


def test_verify_round_trip_of_pinv_output(write_tensor, tmp_path, capsys):
    a_path = write_tensor("a.json", MP_A)
    x_path = str(tmp_path / "x.json")
    assert main(["pinv", a_path, "--out", x_path]) == 0
    pinv_doc = json.loads(open(x_path).read())
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
    code, doc = run_json(capsys, ["solve-ax", a_path, b_path, "--mp"])
    assert code == 0
    assert doc["consistent"] is True  # generic square a is invertible


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


def test_common_verb(write_tensor, capsys):
    i_path = write_tensor("i.json", unit_tensor([2]))
    b_path = write_tensor("b.json", rt([2], [2], seed=12))
    code, doc = run_json(capsys, ["common", i_path, b_path, i_path, b_path])
    assert code == 0
    assert doc["consistent"] is True


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


def test_check_rol_mp_golden_counterexample(write_tensor, capsys):
    a_path = write_tensor("a.json", MP_A)
    b_path = write_tensor("b.json", MP_B)
    code, doc = run_json(capsys, ["check-rol", a_path, b_path, "--lambda", "mp"])
    assert code == 0
    assert doc["verdict"] == "candidate fails"
    assert doc["reverse_order_holds"] is False
    # the candidate fails the third defining equation for the product
    assert doc["report"]["satisfied"][2] is False
    assert doc["mp_distance"] > 0.5


def test_check_rol_with_lambda_14(write_tensor, capsys):
    a_path = write_tensor("a.json", rt([2, 2], [3], seed=13))
    code, doc = run_json(
        capsys,
        ["check-rol", a_path, write_tensor("b.json", rt([3], [2], seed=14)), "--lambda", "1,4"],
    )
    assert code == 0
    names = [c["name"] for c in doc["conditions"]]
    assert "ga_a_b_bstar_hermitian" in names
    assert "a_ga_bstar_b_hermitian" in names


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


def test_argument_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pinv"])  # missing file operand
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])  # unknown verb
    assert exc.value.code == 2


def test_unreadable_file_exit_code(capsys):
    code = main(["pinv", "/nonexistent/a.json"])
    assert code == 2
    assert "error: input:" in capsys.readouterr().err


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
            "n34": rt([3], [4], seed=66),
        }.items()
    }
    argvs = [
        ["pinv", path["a"]],
        ["ginv", path["a"], "--lambda", "1,2", "--seed", "3"],
        ["solve", path["a"], path["g"], path["d"], "--z", path["z"]],
        ["solve-ax", path["a"], path["d"], "--z", path["z"]],
        ["common", path["a"], path["d"], path["g"], path["f"], "--z", path["z"]],
        ["verify", path["a"], path["x"]],
        ["info", path["a"]],
    ]
    for lam in ("1", "1,3", "1,4", "mp"):
        argvs.append(["check-rol", path["a"], path["f"], "--lambda", lam])
        # operands whose published conditions are not all conformable
        argvs.append(["check-rol", path["n23"], path["n34"], "--lambda", lam])
    return argvs


def test_every_verb_writes_strict_json(write_tensor, capsys):
    for argv in every_verb(write_tensor):
        assert main(argv) == 0, argv
        strict_json(capsys.readouterr().out)


HUGE = Tensor(np.array([[1e200, 2e200], [3e200, 4e200]]), 1)


@pytest.mark.parametrize("verb", ["pinv", "verify", "info"])
@pytest.mark.parametrize("to_file", [False, True])
def test_non_finite_output_is_a_numeric_error(verb, to_file, write_tensor, tmp_path, capsys):
    path = write_tensor("huge.json", HUGE)
    out = tmp_path / "out.json"
    argv = [verb, path] + ([path] if verb == "verify" else []) + (["--out", str(out)] * to_file)
    # the unscaled Frobenius norm of these finite entries overflows
    with pytest.warns(RuntimeWarning):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numeric: ")


def numpy_conditions(a, b, lam, tol=1e-10):
    """check-rol's conditions and (for mp) its reverse-order verdict, on the flattenings.

    A condition whose product or comparison is not conformable gives ``(None, False)``.
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
        res = float(np.linalg.norm(p - q))
        return res, res <= tol * (1.0 + float(np.linalg.norm(q)))

    def equal_to(m):
        return lambda q: m

    a_side = check(star, m_a, g_a, star(m_b), m_b)
    if lam == "1":
        return [check(lambda q: q @ q, g_a, m_a, m_b, g_b)], None
    if lam == "1,3":
        return [a_side], None
    if lam == "1,4":
        return [check(star, g_a, m_a, m_b, star(m_b)), a_side], None
    conditions = [
        check(equal_to(m_b), star(m_a)),
        check(equal_to(m_b), g_a),
        check(equal_to(star(m_a) @ m_a), np.eye(m_a.shape[1])),
        check(equal_to(m_b @ star(m_b)), np.eye(m_b.shape[0])),
    ]
    return conditions, check(equal_to(g_b @ g_a), np.linalg.pinv(m_a @ m_b))


@pytest.mark.parametrize("lam", ["1", "1,3", "1,4", "mp"])
@pytest.mark.parametrize("b_kind", ["conj_transpose", "general"])
def test_check_rol_matches_plain_numpy(lam, b_kind, write_tensor, capsys):
    # the library example's operand and, as b, its conjugate transpose or a general tensor
    a = random_tensor((2, 2, 3), split=2, seed=7)
    b = conj_transpose(a) if b_kind == "conj_transpose" else random_tensor((3, 2), 1, seed=9)
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
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


_WORDS = st.sampled_from(["x", "", "1,0", "two"])
_JUNK = st.one_of(st.none(), _WORDS, st.dictionaries(_WORDS, st.integers(), max_size=2))
_VALID = {"extents": [2, 2], "split": 1, "re": [1.0, 2.0, 3.0, 4.0]}


def _replaced(key, values):
    return values.map(lambda v: json.dumps({**_VALID, key: v}))


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
    # JSON types outside the schema, which numeric conversion alone would accept
    st.sampled_from([
        {**_VALID, "extents": "22"},
        {**_VALID, "extents": [2.5, 2]},
        {**_VALID, "split": True},
        {**_VALID, "re": ["1", 2.0, 3.0, 4.0]},
        {**_VALID, "re": [True, 2.0, 3.0, 4.0]},
        {**_VALID, "im": [0.0, "1", 0.0, 0.0]},
        {"extents": [], "split": 0, "re": [1.0]},
    ]).map(json.dumps),
)


@settings(max_examples=150, deadline=None)
@given(text=MALFORMED, position=st.sampled_from(["info", "solve-ax"]))
def test_malformed_tensor_files_exit_2_with_one_input_line(tmp_path_factory, text, position):
    tmp = tmp_path_factory.mktemp("fuzz")
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
