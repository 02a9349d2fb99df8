"""Benchmark harness configuration.

Each ``bench_*.py`` regenerates one paper figure (or ablation) and prints
its data table; run with::

    pytest benchmarks/ --benchmark-only -s

The printed tables are the artifacts recorded in EXPERIMENTS.md.
"""

import os
import pathlib
import sys

# BASELINES compares against the reference algorithms in tests/oracles;
# a plain `pytest benchmarks/` puts only benchmarks/ on the path.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

collect_ignore_glob: list[str] = []


def bench_environment() -> dict:
    """Execution-environment stamp merged into every BENCH_*.json payload.

    ``check_regression.py`` gates absolute speedup floors on ``n_cpus``
    (a "process beats thread 2x" floor is meaningless on a 1-core box),
    and a reviewer reading a committed baseline needs to know whether
    BLAS was allowed to use those cores.  ``blas_threads`` is taken from
    the conventional env caps — ``None`` means "unlimited/default", not
    "one".
    """
    blas_threads = None
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
    ):
        value = os.environ.get(var)
        if value:
            try:
                blas_threads = int(value)
            except ValueError:
                continue
            break
    return {
        "n_cpus": os.cpu_count() or 1,
        "blas_threads": blas_threads,
    }


def pytest_configure(config):
    # Benchmarks are long-running by design; make sure accidental plain
    # `pytest benchmarks/` runs still work but measure only once.
    config.option.benchmark_min_rounds = getattr(
        config.option, "benchmark_min_rounds", 1
    )
