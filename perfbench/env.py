"""Environment record: BLAS thread pin, machine facts and a measured peak.

``pin_blas_threads`` must run before numpy is first imported, in the harness
and (through ``program_env``) in every program process it starts, so that
both use the same fixed thread count.
"""

from __future__ import annotations

import functools
import os
import platform
import time

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fixed BLAS thread count, capped by the CPUs this process may run on.  One
#: thread leaves a core for the harness and the OS: on a two-core machine two
#: spinning BLAS threads made run-to-run medians drift by up to 25%.
BLAS_THREADS_WANTED = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(BLAS_THREADS_WANTED, nproc())


def pin_blas_threads():
    for var in _THREAD_VARS:
        os.environ[var] = str(blas_threads())


def program_env(src_dir: str) -> dict:
    """Environment for a program process: pinned BLAS threads, checkout ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    for var in _THREAD_VARS:
        env[var] = str(blas_threads())
    return env


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        size = _read(f"{base}/index{index}/size")
        if level is None or size is None or kind == "Instruction":
            continue
        sizes[f"L{level}"] = size
    return sizes


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def record() -> dict:
    """Machine facts that explain the numbers; cheap, no measurement."""
    import numpy as np

    return {
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "caches": _cache_sizes(),
    }


def cpu_loop_ms(reps: int = 9) -> float:
    """Median time of a fixed pure-Python loop: a record of machine speed.

    Shared machines drift; printing this before and after the timed loop
    shows whether a slow run was the program or the machine.  It is a record
    only and never enters a metric.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2] * 1e3


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: Side of the complex matmul and MiB per array of the copy in ``measure_peak``.
PEAK_MATMUL_N = 1024
PEAK_COPY_MIB = 448


@functools.cache
def measure_peak() -> dict:
    """Achievable complex-matmul GFLOP/s and copy bandwidth on this machine.

    The copy runs over ``PEAK_COPY_MIB`` MiB per array, at least four times the
    L3 of the machines this benchmark targets, so it measures memory rather
    than cache.  Best of three after one warm-up each; measured once per
    process.
    """
    import numpy as np

    matmul_n = PEAK_MATMUL_N
    rng = np.random.default_rng(0)
    a = rng.standard_normal((matmul_n, matmul_n)) + 1j * rng.standard_normal((matmul_n, matmul_n))
    b = rng.standard_normal((matmul_n, matmul_n)) + 1j * rng.standard_normal((matmul_n, matmul_n))
    a @ b
    t_mm = _best_of(lambda: a @ b, 3)
    del a, b
    count = PEAK_COPY_MIB * 2**20 // 8
    src = np.ones(count)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    t_copy = _best_of(lambda: np.copyto(dst, src), 3)
    del src, dst
    return {
        "matmul_gflops": 8.0 * matmul_n**3 / t_mm / 1e9,
        # a copy reads and writes every byte once
        "copy_gbps": 2.0 * count * 8 / t_copy / 1e9,
        "copy_bytes_per_array": count * 8,
    }
