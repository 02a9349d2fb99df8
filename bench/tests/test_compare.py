"""compare.py verdicts: direction, bound, spread, failures."""

import json

import pytest

from bench import compare, spec


def result(tmp_path, name, runs, comparable=True):
    """A result file with untraced pipeline_narrow runs of the given
    ``(rows_per_s, failed)`` pairs."""
    path = tmp_path / name
    path.write_text(json.dumps({"env": {}, "smoke": not comparable, "runs": [
        {"workload": "pipeline_narrow", "trace": 0, "comparable": comparable,
         "correct": True, "attempted": 1000, "failed": failed,
         "metrics": {
             "rows_per_s": {"value": rate, "unit": "rows/s"},
             "subspace_affinity": {"value": 0.999, "unit": "cos"},
             "peak_rss_mb": {"value": 200.0, "unit": "MiB"},
             "setup_s": {"value": 1.5, "unit": "s"},
         }}
        for rate, failed in runs
    ]}))
    return str(path)


def verdicts(a, b=None):
    return {name: verdict for _w, name, verdict, _t in
            compare.rows_for(compare.load(a), compare.load(b) if b else None)}


def test_worsening_follows_the_metric_direction():
    rate = spec.METRIC_BY_NAME["rows_per_s"]
    rss = spec.METRIC_BY_NAME["peak_rss_mb"]
    assert compare.worsening(rate, 100.0, 80.0) == pytest.approx(0.2)
    assert compare.worsening(rate, 100.0, 120.0) == pytest.approx(-0.2)
    assert compare.worsening(rss, 100.0, 120.0) == pytest.approx(0.2)


BOUND = spec.METRIC_BY_NAME["rows_per_s"].bound


def test_within_bound_is_ok_and_beyond_is_a_regression(tmp_path):
    a = result(tmp_path, "a.json", [(1000.0, 0)])
    inside = 1000.0 * (1 - BOUND + 0.02)
    beyond = 1000.0 * (1 - BOUND - 0.02)
    assert verdicts(a, result(tmp_path, "b.json", [(inside, 0)]))[
        "rows_per_s"] == "ok"
    assert verdicts(a, result(tmp_path, "c.json", [(beyond, 0)]))[
        "rows_per_s"] == "REGRESSED"
    assert compare.main([a, result(tmp_path, "d.json", [(beyond, 0)])]) == 1
    assert compare.main([a, a]) == 0


def test_wide_base_spread_is_unresolved_not_unchanged(tmp_path):
    noisy = [(600.0, 0), (1000.0, 0), (1400.0, 0), (800.0, 0), (1200.0, 0)]
    a = result(tmp_path, "a.json", noisy)
    assert compare.spread_of([r for r, _ in noisy]) > BOUND
    same = result(tmp_path, "b.json", [(1000.0, 0)] * 3)
    assert verdicts(a, same)["rows_per_s"] == "unresolved"
    # ... unless every run of the change beats every run of the base.
    better = result(tmp_path, "c.json", [(1500.0, 0), (1450.0, 0)])
    assert verdicts(a, better)["rows_per_s"] == "ok"
    assert compare.main([a, same]) == 0


def test_failure_share_is_compared(tmp_path):
    a = result(tmp_path, "a.json", [(1000.0, 0)])
    b = result(tmp_path, "b.json", [(1000.0, 3)])
    assert verdicts(a, b)["ops_failed / ops_attempted"] == "FAILURES"
    assert compare.main([a, b]) == 1


def test_single_file_reports_spread_against_the_bound(tmp_path):
    steady = result(tmp_path, "a.json", [(1000.0 + i, 0) for i in range(10)])
    assert verdicts(steady)["rows_per_s"] == "ok"
    noisy = result(tmp_path, "b.json",
                   [(500.0 + 100 * i, 0) for i in range(10)])
    assert verdicts(noisy)["rows_per_s"] == "UNSTEADY"


def test_smoke_results_are_refused(tmp_path):
    smoke = result(tmp_path, "s.json", [(1000.0, 0)], comparable=False)
    with pytest.raises(SystemExit):
        compare.load(smoke)
