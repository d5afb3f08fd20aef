"""Spans recorded from outside the program, and the per-layer metrics built on them.

:meth:`Tracer.install` wraps every public function of each ``einverse``
module (and the ``Tensor`` JSON/flat constructors) at every ``einverse``
module that holds a reference to it, plus the ``numpy.linalg.svd`` and
``json.load``/``json.dumps`` boundaries.  The program's source is never
edited.  Spans are kept in memory; the harness writes them when the run ends.

The tracer's clock excludes its own bookkeeping (operand fingerprints), so
span durations and self times measure the program, while the wall time the
harness takes around each traced call still includes every cost of tracing.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import prod

import numpy as np

import einverse

LAYERS = ("tensor", "algebra", "matricize", "inverses", "solver", "sampling", "cli")
_TENSOR_METHODS = ("from_flat", "from_json_dict", "to_json_dict")
_FAMILY = frozenset(
    f"inverses.{f}"
    for f in (
        "one_inverse_family",
        "reflexive_from_two",
        "one_three_family",
        "one_four_family",
        "mp_from_13_14",
    )
)
GENERATOR = "solver.generator"
ROOT = "call"


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fingerprint(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(str(arr.shape).encode(), digest_size=16)
    h.update(arr.view(np.uint8).reshape(-1))
    return h.digest()


def _operand_key(m: np.ndarray) -> bytes:
    """One key for a matrix and its conjugate transpose."""
    return min(_fingerprint(m), _fingerprint(m.conj().T))


def _einstein_info(a, b, n):
    m = prod(a.extents[: a.order - n])
    k = prod(b.extents[:n])
    p = prod(b.extents[n:])
    return {"flop": 8 * m * k * p, "bytes": 16 * (m * k + k * p + m * p)}


class Tracer:
    """Call-scoped span recorder; records only inside :meth:`call`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._call: int | None = None
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _bookkeeping(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._paused += time.perf_counter() - t0

    @contextmanager
    def call(self, call_id: int):
        """Root span of one call; spans opened inside share its call id."""
        self._call = call_id
        try:
            with self._span(ROOT):
                yield
        finally:
            self._call = None

    @contextmanager
    def _span(self, name: str, info: dict | None = None):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._call, name, 0.0, info=info or {})
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.now()
        try:
            yield span
        finally:
            span.end = self.now()
            self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a boundary the harness owns)."""
        if self._call is None:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    def _wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._call is None:
                return fn(*args, **kwargs)
            info = self._bookkeeping(describe, *args, **kwargs) if describe else None
            with self._span(name, info):
                return fn(*args, **kwargs)

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer boundaries; :meth:`uninstall` restores the originals.

        Call :meth:`uninstall` in a ``finally`` that also covers this call, so
        a failure part-way through leaves nothing wrapped.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        describe = {
            "algebra.einstein_product": _einstein_info,
            "inverses.penrose_check": lambda a, x, *_, **__: {
                "key": (_fingerprint(a.data), _fingerprint(x.data))
            },
            "sampling.random_tensor": lambda extents, *_, **__: {
                "entries": prod(int(e) for e in extents)
            },
        }
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"einverse.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._wrap(name, obj, describe.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "einverse" and not modname.startswith("einverse."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        tensor_cls = einverse.tensor.Tensor
        for attr in _TENSOR_METHODS:
            raw = tensor_cls.__dict__[attr]
            name = f"tensor.Tensor.{attr}"
            if isinstance(raw, classmethod):
                self._patch(tensor_cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(tensor_cls, attr, self._wrap(name, raw))
        self._patch(
            np.linalg,
            "svd",
            self._wrap(
                "numpy.svd",
                np.linalg.svd,
                lambda m, *_, **__: {"key": _operand_key(np.asarray(m))},
            ),
        )
        self._patch(json, "load", self._wrap("json.load", json.load))
        self._patch(json, "dumps", self._wrap("json.dumps", json.dumps))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _outermost(spans: list[Span], pred) -> list[Span]:
    """Spans matching ``pred`` that have no ancestor matching it."""
    out = []
    for s in spans:
        if not pred(s.name):
            continue
        p = s.parent
        while p is not None and not pred(spans[p].name):
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def _named(*names):
    return lambda name: name in names


def _prefixed(prefix: str):
    return lambda name: name.startswith(prefix)


def _solver_entry(name: str) -> bool:
    return name.startswith("solver.") and name != GENERATOR


def layer_metrics(spans: list[Span], calls: int) -> dict[str, float]:
    """Per-call layer metrics from the spans of ``calls`` traced calls.

    Times ending in ``self_s`` exclude child spans; other times are inclusive
    of everything the named boundary called.  ``distinct_ratio`` values count
    distinct operands within each call: work repeated inside one call, which
    a CLI process could avoid as well as a library caller.
    """
    own = self_times(spans)

    def matching(pred):
        return [s for s in spans if pred(s.name)]

    def self_s(pred):
        return sum(t for s, t in zip(spans, own) if pred(s.name))

    def inclusive(pred):
        return sum(s.duration for s in _outermost(spans, pred))

    def distinct_ratio(name):
        keys = {(s.call, s.info["key"]) for s in matching(_named(name))}
        return ratio(len(keys), len(matching(_named(name))))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    is_ein = _named("algebra.einstein_product")
    is_svd = _named("numpy.svd")
    is_sample = _named("sampling.random_tensor")
    ein = matching(is_ein)
    flop = sum(s.info["flop"] for s in ein)
    moved = sum(s.info["bytes"] for s in ein)
    ein_self = self_s(is_ein)
    svd_s = inclusive(is_svd)
    sample_self = self_s(is_sample)
    entries = sum(s.info["entries"] for s in matching(is_sample))
    call_s = inclusive(_named(ROOT))
    per = 1.0 / calls
    return {
        "cli.self_s": self_s(_prefixed("cli.")) * per,
        "cli.json_parse_s": inclusive(_named("json.load")) * per,
        "cli.json_emit_s": inclusive(_named("json.dumps")) * per,
        "tensor.from_json_s": inclusive(_named("tensor.Tensor.from_json_dict")) * per,
        "tensor.to_json_s": inclusive(_named("tensor.Tensor.to_json_dict")) * per,
        "tensor.calls": len(matching(_prefixed("tensor."))) * per,
        "tensor.self_s": self_s(_prefixed("tensor.")) * per,
        "algebra.einstein_product.calls": len(ein) * per,
        "algebra.einstein_product.self_s": ein_self * per,
        "algebra.einstein_product.gflop": flop / 1e9 * per,
        "algebra.einstein_product.gflops": ratio(flop / 1e9, ein_self),
        "algebra.einstein_product.flop_per_byte": ratio(flop, moved),
        "matricize.svd.calls": len(matching(is_svd)) * per,
        "matricize.svd_s": svd_s * per,
        "matricize.pinv_assemble_s": self_s(_named("matricize.matrix_pinv")) * per,
        "matricize.svd.distinct_ratio": distinct_ratio("numpy.svd"),
        "inverses.pinv.calls": len(matching(_named("inverses.pinv"))) * per,
        "inverses.grade_s": inclusive(_named("inverses.penrose_check")) * per,
        "inverses.grade.calls": len(matching(_named("inverses.penrose_check"))) * per,
        "inverses.grade.distinct_ratio": distinct_ratio("inverses.penrose_check"),
        "inverses.family_s": inclusive(_named(*_FAMILY)) * per,
        "solver.calls": len(matching(_solver_entry)) * per,
        "solver.solve_s": inclusive(_solver_entry) * per,
        "solver.generator.calls": len(matching(_named(GENERATOR))) * per,
        "solver.generator_s": inclusive(_named(GENERATOR)) * per,
        "sampling.random_tensor.calls": len(matching(is_sample)) * per,
        "sampling.random_tensor.self_s": sample_self * per,
        "sampling.random_tensor.entries_per_s": ratio(entries, sample_self),
        "kernel_share": ratio(svd_s + ein_self, call_s),
    }


def spans_json(spans: list[Span]) -> list[dict]:
    """Spans as plain records; fingerprints are shortened to hex for reading."""
    out = []
    for s in spans:
        info = {}
        for k, v in s.info.items():
            if k == "key":
                v = [x.hex()[:12] for x in v] if isinstance(v, tuple) else v.hex()[:12]
            info[k] = v
        out.append(
            {"id": s.id, "parent": s.parent, "call": s.call, "name": s.name,
             "start": s.start, "end": s.end, **info}
        )
    return out
