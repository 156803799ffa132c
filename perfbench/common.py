"""Helpers shared by the workloads: output checks, timing, environment facts."""

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# BLAS pools are capped at the cores this process may run on; run.py sets
# these before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


class Checks:
    """Operations attempted and failed; a failed output check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def op(self, count: int = 1) -> None:
        """Count operations that completed without an error."""
        self.attempted += count


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _interpreter_block() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


def reference_s() -> float:
    """Time of a fixed block of work that calls nothing in stst: the host's speed now.

    The shared host's speed drifts by 10-25% over seconds to minutes, by
    different amounts for interpreted code and for numpy. The block is the
    geometric mean of the median times of a pure-Python loop and of a numpy
    random walk; a pass timed against it run just before and just after
    loses most of that drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    walk = _median_time(lambda: np.cumsum(rng.standard_normal(1_000_000)), 5)
    return math.sqrt(_median_time(_interpreter_block, 25) * walk)


def fresh_import_s(root: str) -> float:
    """Wall time of a new interpreter importing the CLI, as each stst call pays."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stst.cli"], cwd=root, env=env, check=True)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"samples": len(seconds), "p50_ms": statistics.median(seconds) * 1e3}
    for pct in (99.9, 99, 90):
        if len(seconds) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(seconds, n=1000)
            out[f"p{pct:g}_ms"] = cuts[round(pct * 10) - 1] * 1e3
            break
    return out


def bit_equal(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def same_prediction(a, b) -> bool:
    return (
        a.label == b.label
        and a.terms_evaluated == b.terms_evaluated
        and a.stopped_early == b.stopped_early
        and bit_equal(a.reported_score, b.reported_score)
    )


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": cpu_count(),
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }
