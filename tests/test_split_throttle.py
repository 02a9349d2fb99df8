"""Tests for the Split load balancer."""

import numpy as np
import pytest

from repro.streams.split import Split
from repro.streams.tuples import StreamTuple


def wire(op):
    out = []
    op.bind(lambda tup, port: out.append((tup, port)))
    return out


class TestSplit:
    def test_round_robin_cycles(self):
        split = Split("s", 3, strategy="round_robin")
        out = wire(split)
        for i in range(9):
            split._dispatch(StreamTuple.data(x=i), 0)
        ports = [p for _, p in out]
        assert ports == [0, 1, 2] * 3
        assert list(split.sent_per_target) == [3, 3, 3]

    def test_random_is_roughly_uniform(self):
        split = Split("s", 4, strategy="random", seed=0)
        wire(split)
        for i in range(4000):
            split._dispatch(StreamTuple.data(x=i), 0)
        counts = split.sent_per_target
        assert counts.sum() == 4000
        assert np.all(counts > 800)

    def test_random_deterministic_by_seed(self):
        ports = []
        for _ in range(2):
            split = Split("s", 4, strategy="random", seed=42)
            out = wire(split)
            for i in range(50):
                split._dispatch(StreamTuple.data(x=i), 0)
            ports.append([p for _, p in out])
        assert ports[0] == ports[1]

    def test_control_broadcast(self):
        split = Split("s", 3, strategy="round_robin")
        out = wire(split)
        split._dispatch(StreamTuple.control(type="ping"), 0)
        assert len(out) == 3
        assert sorted(p for _, p in out) == [0, 1, 2]
        # Control tuples don't count toward data balance.
        assert split.sent_per_target.sum() == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_targets"):
            Split("s", 0)
        for strategy in ("zigzag", "least_loaded"):
            with pytest.raises(ValueError, match="strategy"):
                Split("s", 2, strategy=strategy)
