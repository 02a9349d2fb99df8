"""BENCHMARK.json is the contract copy of bench/spec.py."""

import json
import pathlib
import re

from bench import spec

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "bench/run.py"]
    assert DOC["paths"] == ["bench"]
    assert DOC["run_seconds"] == spec.RUN_SECONDS


def test_workloads_match_spec():
    assert DOC["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in spec.WORKLOADS)


def test_metrics_match_spec():
    assert DOC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END
    ]
    assert DOC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]


def test_names_units_and_bounds_are_within_the_contract():
    names = [w.name for w in spec.WORKLOADS] + [
        m.name for m in spec.END_TO_END + spec.PER_LAYER
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(m.unit) and m.better in ("higher", "lower")
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(0 < m.bound < 1 for m in spec.SERVING_LATENCIES)
    setup = spec.METRIC_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert 1 <= len(spec.PER_LAYER) <= 128 and 2 <= len(spec.WORKLOADS) <= 8


def test_every_workload_produces_every_end_to_end_metric():
    for m in spec.END_TO_END:
        assert all(spec.applies(m, w.name) for w in spec.WORKLOADS)
