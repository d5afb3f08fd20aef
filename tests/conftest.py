import numpy as np
import pytest

from einverse import Tensor, frobenius_distance, frobenius_norm, random_tensor


def rt(row, col, seed, complex_entries=True) -> Tensor:
    """Seeded random tensor with the given row/column extents."""
    row, col = tuple(row), tuple(col)
    return random_tensor(row + col, len(row), seed, complex_entries)


def rdist(a: Tensor, b: Tensor) -> float:
    """Frobenius distance scaled by (1 + norm of the reference operand)."""
    return frobenius_distance(a, b) / (1.0 + frobenius_norm(b))


def rank_deficient(row, col, seed, rank) -> Tensor:
    """Random tensor of the given shape whose flattening has exact rank."""
    t = rt(row, col, seed)
    m = t.as_matrix()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    s = s.copy()
    s[rank:] = 0.0
    return Tensor(((u * s) @ vh).reshape(t.extents), t.split)


def conditioned(row, col, kappa, seed) -> Tensor:
    """Full-rank tensor whose flattening has singular values from 1 down to ``1 / kappa``."""
    rng = np.random.default_rng(seed)
    m, n = int(np.prod(row)), int(np.prod(col))

    def unitary(k):
        return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]

    s = np.logspace(0, -np.log10(kappa), min(m, n))
    mat = (unitary(m)[:, : len(s)] * s) @ unitary(n)[: len(s)]
    return Tensor(mat.reshape(tuple(row) + tuple(col)), len(row))


@pytest.fixture
def seeds20():
    return range(1, 21)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` from now on, one per call."""
    calls = []
    real = np.linalg.svd

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


#: One line per acceptance criterion, filled by ``test_acceptance.report``.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
