"""The harness arithmetic: percentile selection, freshness join,
open-loop clock, spread."""

import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, 50.0),      # 9 beyond the median: nothing above it either
    (39, 50.0),      # 9 beyond p75
    (40, 75.0),      # exactly ten beyond p75
    (100, 90.0),     # 0.9 * 100 must not round up to rank 91
    (199, 90.0),     # 9 beyond p95: one sample short
    (200, 95.0),
    (100000, 95.0),  # the metric names say p95: never above it
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_tail_reports_percentile_value_and_count():
    values = [float(i) for i in range(1, 201)]
    assert stats.tail(values) == {"percentile": 95.0, "value": 190.0, "n": 200}
    few = [3.0, 1.0, 2.0]
    assert stats.tail(few) == {"percentile": 50.0, "value": 2.0, "n": 3}


def test_freshness_joins_reply_to_block_carrying_last_row():
    send_times = [10.0, 11.0, 12.0]   # three accepted 64-row blocks
    row_ends = [64, 128, 192]
    probes = [
        (10.5, 0),      # nothing applied yet: skipped
        (11.5, 64),     # row 64 is the last row of block 0
        (12.5, 65),     # row 65 travelled in block 1
        (13.0, 192),    # last row of block 2
        (13.5, 500),    # rows the uploader never sent: skipped
    ]
    assert stats.freshness_ms(send_times, row_ends, probes) == [
        pytest.approx(1500.0), pytest.approx(1500.0), pytest.approx(1000.0),
    ]


def test_freshness_with_coalesced_and_unequal_blocks():
    # A 429 in between means block indices and row numbers diverge; only
    # accepted blocks are listed, so the join still lands on the sender.
    assert stats.freshness_ms([1.0, 3.0], [10, 40], [(4.0, 11)]) == [
        pytest.approx(1000.0)
    ]


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, dt):
        self.slept.append(dt)
        self.now += dt


def test_open_loop_times_from_due_time_and_never_slows():
    clk = FakeClock()
    cost = {0: 0.01, 1: 0.35, 2: 0.01, 3: 0.01, 4: 0.01}

    def call(k):
        clk.now += cost[k]   # request 1 stalls for 3.5 slots
        return k

    out = stats.open_loop(100.0, 10.0, 100.5, call,
                          clock=clk, sleep=clk.sleep)
    due = [round(d - 100.0, 6) for d, _s, _e, _r in out]
    assert due == [0.0, 0.1, 0.2, 0.3, 0.4]          # schedule is fixed
    assert [r for *_t, r in out] == [0, 1, 2, 3, 4]  # nothing skipped
    late = [round(s - d, 6) for d, s, _e, _r in out]
    assert late[:2] == [0.0, 0.0]
    # Requests 2..4 were due during the stall: sent at once, and their
    # latency from the due time includes the wait it imposed.
    assert late[2] == pytest.approx(0.25)
    assert late[3] == pytest.approx(0.16)
    assert late[4] == pytest.approx(0.07)
    latency = [e - d for d, _s, e, _r in out]
    assert latency[2] == pytest.approx(0.26)
    assert all(dt > 0 for dt in clk.slept)


def test_open_loop_stops_at_end():
    clk = FakeClock()
    out = stats.open_loop(100.0, 50.0, 100.1, lambda k: None,
                          clock=clk, sleep=clk.sleep)
    assert len(out) == 5


def test_quartile_spread_matches_contract_definition():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q[2] - q[0]) / statistics.median(values)
    )


def test_slice_rates_interpolate_between_readings():
    # 100 units/s for 2 s, a 1 s stall, then 300 units/s for 1 s; read
    # at uneven times that do not coincide with the slice edges.
    samples = [(0.0, 0), (0.5, 50), (2.0, 200), (3.0, 200), (3.5, 350),
               (4.0, 500)]
    rates = stats.slice_rates(samples, 0.0, 4.0, slices=4)
    assert rates == [pytest.approx(100.0), pytest.approx(100.0),
                     pytest.approx(0.0), pytest.approx(300.0)]
    # The median slice ignores the stall; the whole-section mean (125)
    # carries it.
    assert stats.median(rates) == pytest.approx(100.0)
    # Readings that start late or end early hold their edge value.
    assert stats.slice_rates([(1.0, 10), (2.0, 30)], 0.0, 3.0, slices=3) == [
        pytest.approx(0.0), pytest.approx(20.0), pytest.approx(0.0),
    ]
