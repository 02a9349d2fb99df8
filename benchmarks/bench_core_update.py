"""Benchmark PERF-CORE — the per-tuple update microbenchmarks.

Section III-A.2 claims the stateful operator's per-tuple work is
"computationally inexpensive algebraic operations"; Section III-D keeps
d = 250 "to decrease the influence of SVD computation speed".  These
microbenchmarks measure the real Python operator's per-update cost across
the paper's dimensional range, the merge step (the "most
computation-intensive operation" triggered by sync), and the gap-filling
path — the numbers that calibrate the cluster simulator.

Run directly (``python benchmarks/bench_core_update.py [--quick]``) to
produce ``BENCH_core_update.json``: a sequential-vs-block comparison of
the robust update hot path — clean rows across the dimensional range,
plus one gappy leg (d = 1000, a quarter of the rows gappy, two extra
components) for the gap-patching path — recorded as rows/s and speedup
ratios so the committed baseline stays machine-portable.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

try:  # allow `python benchmarks/bench_core_update.py` without PYTHONPATH
    import repro  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    Eigensystem,
    RobustIncrementalPCA,
    fill_from_basis,
    jit_status,
    merge_pair,
)
from repro.data import PlantedSubspaceModel


def _warm_estimator(dim: int, p: int, seed: int = 0, **est_kwargs):
    model = PlantedSubspaceModel(
        dim=dim,
        signal_variances=tuple(float(v) for v in range(p + 4, 4, -1)),
        noise_std=0.3,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    est = RobustIncrementalPCA(
        p, alpha=0.999, init_size=max(2 * p, 16), **est_kwargs
    )
    est.partial_fit(model.sample(est.init_size + 50, rng))
    return est, model, rng


@pytest.mark.parametrize("dim", [250, 500, 1000, 2000])
def test_update_cost_vs_dimension(benchmark, dim):
    """Per-tuple robust update across the paper's Fig. 7 dimensions."""
    est, model, rng = _warm_estimator(dim, p=8)
    block = model.sample(4096, rng)
    idx = iter(np.resize(np.arange(block.shape[0]), 1 << 20))

    def one_update():
        est.update(block[next(idx)])

    benchmark(one_update)


@pytest.mark.parametrize("p", [4, 8, 16, 32])
def test_update_cost_vs_components(benchmark, p):
    """Per-tuple robust update as the retained rank grows."""
    est, model, rng = _warm_estimator(500, p=p)
    block = model.sample(4096, rng)
    idx = iter(np.resize(np.arange(block.shape[0]), 1 << 20))

    def one_update():
        est.update(block[next(idx)])

    benchmark(one_update)


def test_outlier_rejection_is_cheap(benchmark):
    """A rejected outlier skips the eigensolve — near-free (§II claims)."""
    est, model, rng = _warm_estimator(1000, p=8)
    junk = 50.0 * rng.standard_normal(1000)

    def one_outlier():
        est.update(junk)

    benchmark(one_outlier)
    assert est.n_outliers > 0


def test_merge_cost(benchmark):
    """The sync-time merge: eigensolve of the 2p(+1)-column factor."""
    est1, model, rng = _warm_estimator(1000, p=8, seed=1)
    est2, _, _ = _warm_estimator(1000, p=8, seed=2)
    s1, s2 = est1.public_state(), est2.public_state()

    benchmark(lambda: merge_pair(s1, s2, 8))


def test_gap_fill_cost(benchmark):
    """Masked least-squares patching of a 25%-gappy spectrum."""
    est, model, rng = _warm_estimator(1000, p=8)
    st: Eigensystem = est.state
    x = model.sample(1, rng)[0]
    mask = rng.random(1000) < 0.25
    x[mask] = np.nan

    benchmark(lambda: fill_from_basis(x, st.mean, st.basis))


@pytest.mark.parametrize("dim", [250, 1000, 2000])
def test_block_update_cost_vs_dimension(benchmark, dim):
    """Vectorized block update: amortized per-row cost of update_block."""
    est, model, rng = _warm_estimator(dim, p=8)
    block = model.sample(256, rng)

    benchmark(lambda: est.update_block(block))


# ---------------------------------------------------------------------------
# Standalone JSON runner: sequential vs block hot path
# ---------------------------------------------------------------------------


def _time_rows(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of fn() in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: The gappy leg: share of rows with gaps, and of bins missing in them.
GAPPY_ROW_SHARE = 0.25
GAPPY_BIN_SHARE = 0.2


def _compare_at_dim(
    dim: int,
    n_rows: int,
    p: int = 8,
    repeats: int = 3,
    *,
    gappy: bool = False,
):
    """Seed (per-row ``update``) vs batched (``update_block``) throughput.

    Both paths start from identically warmed estimators and consume the
    same rows, so the ratio isolates the block kernel's amortization of
    the eigensolve and the per-call Python overhead.  ``gappy=True``
    punches NaN gaps into a quarter of the rows and carries two extra
    components, so the masked least-squares fill and the higher-order
    residual correction (§II-D) are on both paths; that entry is keyed
    by ``name`` rather than ``dim``.
    """
    est_kwargs = {"extra_components": 2} if gappy else {}
    est_seq, model, rng = _warm_estimator(dim, p=p, seed=0, **est_kwargs)
    est_blk, _, _ = _warm_estimator(dim, p=p, seed=0, **est_kwargs)
    rows = model.sample(n_rows, rng)
    if gappy:
        holes = rng.random(rows.shape) < GAPPY_BIN_SHARE
        holes[rng.random(n_rows) >= GAPPY_ROW_SHARE] = False
        rows[holes] = np.nan

    def run_seq():
        for i in range(n_rows):
            est_seq.update(rows[i])

    def run_blk():
        est_blk.update_block(rows)

    t_seq = _time_rows(run_seq, repeats)
    t_blk = _time_rows(run_blk, repeats)
    out = {
        "dim": dim,
        "n_rows": n_rows,
        "seq_rows_per_s": n_rows / t_seq,
        "block_rows_per_s": n_rows / t_blk,
        "speedup": t_seq / t_blk,
    }
    if gappy:
        out = {
            "name": f"gappy_d{dim}",
            "gappy_row_share": float(np.isnan(rows).any(axis=1).mean()),
            **out,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sequential-vs-block robust update throughput"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_core_update.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        cases = [(250, 256), (1000, 256), (4000, 128)]
        repeats = 1
    else:
        cases = [(250, 1024), (500, 1024), (1000, 1024),
                 (2000, 768), (4000, 512)]
        repeats = 3

    results = []
    legs = [(dim, n_rows, False) for dim, n_rows in cases]
    legs.append((1000, 256 if args.quick else 1024, True))
    for dim, n_rows, gappy in legs:
        r = _compare_at_dim(dim, n_rows, repeats=repeats, gappy=gappy)
        results.append(r)
        print(
            f"d={dim:5d}{' gappy' if gappy else '      '}"
            f"  seq {r['seq_rows_per_s']:9.0f} rows/s"
            f"  block {r['block_rows_per_s']:9.0f} rows/s"
            f"  speedup {r['speedup']:6.2f}x",
            flush=True,
        )

    from conftest import bench_environment  # benchmarks/ is sys.path[0]

    payload = {
        "benchmark": "core_update",
        "quick": args.quick,
        "config": {"n_components": 8, "alpha": 0.999, "repeats": repeats},
        "jit": jit_status(),
        "results": results,
        **bench_environment(),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
