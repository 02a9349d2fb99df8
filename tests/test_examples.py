"""Every example script must run end-to-end (smoke tests).

Examples are executed in-process with their ``main()`` entry points so
failures produce real tracebacks and coverage counts them.
"""

import pathlib
import re
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES))
    yield
    sys.path.remove(str(EXAMPLES))


def test_quickstart_runs(capsys):
    import quickstart

    quickstart.main()
    out = capsys.readouterr().out
    assert "robust estimate" in out
    assert "outlier detection" in out


def test_galaxy_pipeline_runs(tmp_path, capsys):
    import galaxy_spectra_pipeline

    galaxy_spectra_pipeline.main(str(tmp_path))
    out = capsys.readouterr().out
    assert "eigenspectrum roughness" in out
    assert (tmp_path / "eigenspectra.csv").exists()


def test_parallel_streaming_runs(capsys):
    import parallel_streaming

    parallel_streaming.main()
    out = capsys.readouterr().out
    assert "global eigenvalues" in out
    assert "per-engine report" in out


def test_cluster_health_monitoring_runs(capsys):
    import cluster_health_monitoring

    cluster_health_monitoring.main()
    out = capsys.readouterr().out
    assert "monitoring 25 servers" in out
    assert "injected faults" in out


def test_simulate_testbed_runs(capsys):
    import simulate_testbed

    simulate_testbed.main(full=False)
    out = capsys.readouterr().out
    assert "FIG6" in out
    assert "FIG7" in out


def test_live_stream_monitoring_runs(capsys):
    import live_stream_monitoring

    live_stream_monitoring.main()
    out = capsys.readouterr().out
    assert "DRIFT ALARM" in out
    assert "detection delay" in out
    # The health verdict leaves OK after the break, never before it,
    # and within two 250-row checks of it.
    (break_at,) = re.findall(r"break injected at t=(\d+)", out)
    alarms = [int(t) for t in re.findall(r"DRIFT ALARM at t=(\d+)", out)]
    assert all(t > int(break_at) for t in alarms)
    assert 0 < alarms[0] - int(break_at) <= 500


def test_serving_quickstart_runs(capsys):
    import serving_quickstart

    serving_quickstart.main()
    out = capsys.readouterr().out
    assert "serving two tenants" in out
    assert "snapshot v1 published" in out
    assert "outlier flags" in out
    assert "serving quickstart done" in out
