"""Long-stream soak tests: numerical stability over tens of thousands of
updates with mixed contamination, gaps, and synchronization."""

import os
import pathlib

import numpy as np
import pytest

from repro.core import (
    RobustIncrementalPCA,
    largest_principal_angle,
    merge_eigensystems,
)
from repro.data import PlantedSubspaceModel


@pytest.mark.parametrize("alpha", [0.999, 1.0])
def test_robust_estimator_30k_updates_stays_healthy(alpha):
    model = PlantedSubspaceModel(
        dim=60, signal_variances=(25.0, 16.0, 9.0), noise_std=0.4, seed=10
    )
    rng = np.random.default_rng(1)
    gap_rng = np.random.default_rng(2)
    est = RobustIncrementalPCA(3, extra_components=2, alpha=alpha)
    for i, x in enumerate(model.stream(30_000, rng)):
        if i % 40 == 0:
            x = 30.0 * rng.standard_normal(60)      # gross outlier
        elif i % 17 == 0:
            x = x.copy()
            x[gap_rng.random(60) < 0.1] = np.nan    # gappy
        est.update(x)

    st = est.state
    st.validate()
    assert st.orthonormality_error() < 1e-8
    assert np.isfinite(st.scale) and st.scale > 0
    assert np.all(np.isfinite(st.eigenvalues))
    assert np.all(np.isfinite(st.mean))
    assert largest_principal_angle(st.basis[:, :3], model.basis) < 0.15
    # Eigenvalues in a sane range (no slow blow-up or collapse).
    assert 5 < st.eigenvalues[0] < 100


def test_repeated_merging_stays_stable():
    """A long chain of pairwise merges (many sync rounds) must not drift
    off orthonormal or leak eigenvalue mass."""
    model = PlantedSubspaceModel(
        dim=40, signal_variances=(16.0, 9.0, 4.0), noise_std=0.3, seed=11
    )
    rng = np.random.default_rng(3)
    est = RobustIncrementalPCA(3, alpha=0.99)
    est.partial_fit(model.sample(500, rng))
    state = est.state.copy()

    for round_ in range(200):
        other = RobustIncrementalPCA(3, alpha=0.99)
        other.partial_fit(model.sample(300, rng))
        state = merge_eigensystems([state, other.state], 5)

    state.validate()
    assert state.orthonormality_error() < 1e-8
    assert largest_principal_angle(state.basis[:, :3], model.basis) < 0.1
    total = model.eigenvalues.sum()
    assert 0.5 * total < state.eigenvalues[:3].sum() < 2.0 * total


def test_threaded_engine_soak_with_telemetry(tmp_path):
    """A long telemetry-enabled threaded run stays lossless and leaves a
    usable event log.

    The JSONL log lands in ``$TELEMETRY_LOG_DIR`` when set (CI uploads it
    as a build artifact), otherwise in the test's tmp dir.
    """
    from repro.data import VectorStream
    from repro.streams import (
        CollectingSink,
        Graph,
        Split,
        Telemetry,
        TelemetryConfig,
        ThreadedEngine,
        Union,
        VectorSource,
        load_events,
        render_report,
    )

    n = 20_000
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, 16))
    g = Graph("soak")
    src = g.add(VectorSource("src", VectorStream.from_array(x)))
    split = g.add(Split("split", 4, strategy="round_robin"))
    uni = g.add(Union("union", 4))
    sink = g.add(CollectingSink("sink"))
    g.connect(src, split)
    for i in range(4):
        g.connect(split, uni, out_port=i, in_port=i)
    g.connect(uni, sink)

    tel = Telemetry(TelemetryConfig(
        timing=True, tracing=True, trace_sample_every=500,
        sampler_interval_s=0.05,
    ))
    stats = ThreadedEngine(g, telemetry=tel).run(timeout_s=120)

    assert len(sink.tuples) == n  # lossless under telemetry
    assert stats.tuples_in["sink"] == n
    assert tel.tracer.n_traces == n // 500
    assert tel.events.n_dropped == 0

    log_dir = pathlib.Path(os.environ.get("TELEMETRY_LOG_DIR", tmp_path))
    log_dir.mkdir(parents=True, exist_ok=True)
    path = log_dir / "soak-telemetry.jsonl"
    tel.write_jsonl(path)
    events = load_events(path)
    kinds = {e["kind"] for e in events}
    assert {"run_start", "span", "sample", "run_end", "metrics"} <= kinds
    # The log renders through the same tooling as `python -m repro telemetry`.
    report = render_report(events)
    assert "top operators by exclusive time" in report
