"""Judge result files written by bench/run.py.

    python3 bench/compare.py A.json           steadiness of one result set
    python3 bench/compare.py A.json B.json    B (candidate) against A (base)

One row per workload and gated metric (``bench.spec.GATED``: the four
end-to-end metrics plus the serving latency medians).  Each side is the
median of that side's untraced runs (``bench/run.py --repeat N`` puts N
in one file).  Verdicts:

``ok``          B's median is no worse than A's by more than the bound.
``REGRESSED``   it is worse by more than the bound.
``unresolved``  the runs of A alone spread (first to third quartile, as
                a share of the median) by more than the bound, so the
                comparison cannot tell a change of that size — never
                reported as unchanged.  If every run of B is better than
                every run of A the row is ``ok`` all the same.
``FAILURES``    B failed a larger share of its operations than A, or a
                run of B was not correct.

With one file the table shows each metric's spread against its bound;
a spread above the bound is ``UNSTEADY``.  Exit code 1 on any verdict
in capitals, 2 if the files cannot be compared.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import sys

if __package__ in (None, ""):
    sys.path[0:1] = [str(pathlib.Path(__file__).resolve().parent.parent)]

from bench import spec  # noqa: E402
from bench.stats import median, quartile_spread  # noqa: E402


def load(path: str) -> dict:
    """``{workload: {"values": {metric: [..]}, "failed": n, "attempted":
    n, "correct": bool}}`` from the untraced runs of a result file."""
    doc = json.loads(pathlib.Path(path).read_text())
    if any(not run["comparable"] for run in doc["runs"]):
        sys.exit(f"{path}: holds --smoke runs, which are not comparable")
    out: dict = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        w = out.setdefault(run["workload"], {
            "values": collections.defaultdict(list), "failed": 0,
            "attempted": 0, "correct": True,
        })
        for name, m in run["metrics"].items():
            w["values"][name].append(m["value"])
        w["failed"] += run["failed"]
        w["attempted"] += run["attempted"]
        w["correct"] &= run["correct"]
    return out


def worsening(metric: spec.Metric, base: float, new: float) -> float:
    """By what share of ``base`` ``new`` is worse (negative = better)."""
    change = (new - base) / abs(base)
    return -change if metric.better == "higher" else change


def spread_of(values: list[float]) -> float | None:
    """Quartile spread of a side's runs; the whole range for two runs;
    unknown for one."""
    if len(values) < 2:
        return None
    if len(values) == 2:
        return abs(values[1] - values[0]) / abs(median(values))
    return quartile_spread(values)


def all_better(metric: spec.Metric, base: list, new: list) -> bool:
    if metric.better == "higher":
        return min(new) > max(base)
    return max(new) < min(base)


def rows_for(a: dict, b: dict | None):
    """Yield ``(workload, metric, verdict, text)`` table rows."""
    for w in spec.WORKLOADS:
        if w.name not in a or (b is not None and w.name not in b):
            continue
        for metric in spec.GATED:
            if not spec.applies(metric, w.name):
                continue
            base = a[w.name]["values"][metric.name]
            spread = spread_of(base)
            shown = "n/a" if spread is None else f"{spread:.3f}"
            if b is None:
                verdict = (
                    "UNSTEADY" if spread is not None and spread > metric.bound
                    else "ok"
                )
                yield (w.name, metric.name, verdict,
                       f"median {median(base):.6g} {metric.unit}  "
                       f"spread {shown} of bound {metric.bound}  "
                       f"n={len(base)}")
                continue
            new = b[w.name]["values"][metric.name]
            worse = worsening(metric, median(base), median(new))
            if spread is not None and spread > metric.bound:
                verdict = (
                    "ok" if all_better(metric, base, new) else "unresolved"
                )
            else:
                verdict = "REGRESSED" if worse > metric.bound else "ok"
            yield (w.name, metric.name, verdict,
                   f"{median(base):.6g} -> {median(new):.6g} {metric.unit}  "
                   f"worse by {worse:+.3f} of bound {metric.bound}  "
                   f"base spread {shown}")
        if b is not None:
            fa = a[w.name]["failed"] / a[w.name]["attempted"]
            fb = b[w.name]["failed"] / b[w.name]["attempted"]
            bad = fb > fa or not b[w.name]["correct"]
            yield (w.name, "ops_failed / ops_attempted",
                   "FAILURES" if bad else "ok",
                   f"{fa:.6f} -> {fb:.6f}  "
                   f"correct={b[w.name]['correct']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="compare bench/run.py result files"
    )
    ap.add_argument("base")
    ap.add_argument("candidate", nargs="?")
    args = ap.parse_args(argv)
    a = load(args.base)
    b = load(args.candidate) if args.candidate else None
    if not a or (b is not None and not set(a) & set(b)):
        print("no untraced runs of a common workload to compare")
        return 2
    code = 0
    for workload, name, verdict, text in rows_for(a, b):
        print(f"{workload:<16} {name:<30} {verdict:<10} {text}")
        if verdict.isupper():
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
