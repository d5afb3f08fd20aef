"""Seeded inputs with stated properties.

Every operator is an order-4 complex tensor with extents ``(s, s, s, s)`` and
split 2, so its flattening is ``n x n`` with ``n = s*s``.  It is planted with
rank ``3n/4`` as a product of two complex Gaussian factors and scaled so that
its largest entry magnitude is 1.  Right-hand sides are planted either
consistent (built from a known solution) or inconsistent (a component outside
the operator's range, far above the solver tolerance).

Everything here is plain numpy; the program under test only ever receives the
generated tensors or the JSON files written from them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

#: Relative size of the planted out-of-range component of an inconsistent
#: right-hand side; far above the program's consistency tolerance (1e-8).
INCONSISTENCY = 1e-3


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@dataclass(frozen=True)
class Properties:
    extents: tuple[int, ...]
    split: int
    n: int
    rank: int
    kappa: float
    max_abs: float
    fro_norm: float
    bytes: int


@dataclass
class Operator:
    """Flattened operator ``a`` with an orthonormal basis of its range."""

    a: np.ndarray
    range_basis: np.ndarray
    props: Properties

    @property
    def s(self) -> int:
        return self.props.extents[0]


def planted_operator(rng: np.random.Generator, s: int) -> Operator:
    n = s * s
    rank = max(1, 3 * n // 4)
    a = gaussian(rng, n, rank) @ gaussian(rng, rank, n)
    a /= np.abs(a).max()
    u, sigma, _ = np.linalg.svd(a)
    numerical_rank = int(np.sum(sigma > sigma[0] * n * np.finfo(float).eps))
    if numerical_rank != rank:
        raise RuntimeError(f"planted rank {rank} came out as {numerical_rank}")
    props = Properties(
        extents=(s, s, s, s),
        split=2,
        n=n,
        rank=rank,
        kappa=float(sigma[0] / sigma[rank - 1]),
        max_abs=float(np.abs(a).max()),
        fro_norm=float(np.linalg.norm(a)),
        bytes=a.nbytes,
    )
    return Operator(a, u[:, :rank].copy(), props)


def off_range(rng: np.random.Generator, op: Operator, cols: int, size: float) -> np.ndarray:
    """A ``n x cols`` block orthogonal to ``range(a)`` with Frobenius norm ``size``."""
    w = gaussian(rng, op.props.n, cols)
    w -= op.range_basis @ (op.range_basis.conj().T @ w)
    return w * (size / np.linalg.norm(w))


def perturb(rng: np.random.Generator, op: Operator, rhs: np.ndarray) -> np.ndarray:
    """``rhs`` plus an out-of-range part making ``a x = rhs`` unsolvable."""
    size = INCONSISTENCY * (1.0 + np.linalg.norm(rhs))
    return rhs + off_range(rng, op, rhs.shape[1], size)


def tensor_doc(m: np.ndarray, s: int) -> dict:
    """The program's tensor file schema for an ``(s, s, s, s)`` split-2 tensor."""
    flat = np.ascontiguousarray(m).ravel()
    return {
        "extents": [s, s, s, s],
        "split": 2,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def matrix_of_doc(doc: dict) -> np.ndarray:
    """Flattened matrix of a tensor document, read with the harness's own code."""
    extents = doc["extents"]
    split = doc["split"]
    rows = int(np.prod(extents[:split]))
    re = np.asarray(doc["re"], dtype=np.float64)
    im = np.asarray(doc["im"], dtype=np.float64) if "im" in doc else np.zeros_like(re)
    return (re + 1j * im).reshape(rows, -1)


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@dataclass
class CachedInput:
    path: str
    a: np.ndarray
    props: Properties


def cached_operator_file(cache_dir: str, tag: str, seed: int, index: int, s: int) -> CachedInput:
    """Operator ``index`` of ``seed`` as a JSON file, generated once per seed.

    Writing a large tensor as JSON is slow, so the file, the matrix and its
    properties are kept in ``cache_dir`` and reused by later runs.
    """
    os.makedirs(cache_dir, exist_ok=True)
    stem = os.path.join(cache_dir, f"{tag}-s{s}-seed{seed}-{index}")
    path, npy, meta = stem + ".json", stem + ".npy", stem + ".props.json"
    if os.path.exists(path) and os.path.exists(npy) and os.path.exists(meta):
        with open(meta, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["extents"] = tuple(raw["extents"])
        return CachedInput(path, np.load(npy), Properties(**raw))
    op = planted_operator(rng_for(seed, 0, index), s)
    _atomic_write(path, json.dumps(tensor_doc(op.a, s)))
    tmp = f"{stem}.tmp{os.getpid()}.npy"
    np.save(tmp, op.a)
    os.replace(tmp, npy)
    _atomic_write(meta, json.dumps(asdict(op.props)))
    return CachedInput(path, op.a, op.props)


def summarize(props: list[Properties]) -> dict:
    """Per-workload input record: shape facts plus the range of kappa and norm."""
    first = props[0]
    return {
        "extents": list(first.extents),
        "split": first.split,
        "n": first.n,
        "rank": first.rank,
        "kappa_min": min(p.kappa for p in props),
        "kappa_max": max(p.kappa for p in props),
        "max_abs": max(p.max_abs for p in props),
        "fro_norm_max": max(p.fro_norm for p in props),
        "operator_bytes": first.bytes,
        "operators": len(props),
    }
