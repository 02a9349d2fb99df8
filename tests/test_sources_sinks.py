"""Tests for stream sources, sinks, and the CSV/checkpoint IO they use."""

import numpy as np
import pytest

from repro.core import Eigensystem
from repro.data.streams import VectorStream
from repro.io.checkpoint import CheckpointStore
from repro.streams import (
    CallbackSink,
    CallbackSource,
    CheckpointSink,
    CollectingSink,
    CSVFileSource,
    CSVSink,
    DirectorySource,
    Graph,
    SynchronousEngine,
    VectorSource,
)
from repro.streams.tuples import StreamTuple


class TestVectorSource:
    def test_emits_observation_tuples(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        src = VectorSource("s", VectorStream.from_array(x))
        tuples = list(src.generate())
        assert len(tuples) == 3
        assert tuples[0]["seq"] == 0
        assert np.array_equal(tuples[2]["x"], x[2])
        assert src.dim == 2


class TestCSVSources:
    def test_file_roundtrip(self, tmp_path, rng):
        from repro.io.csvio import write_vectors_csv

        x = rng.standard_normal((5, 4))
        x[2, 1] = np.nan
        path = tmp_path / "data.csv"
        write_vectors_csv(path, x)
        src = CSVFileSource("csv", path)
        got = np.vstack([t["x"] for t in src.generate()])
        assert np.allclose(got, x, equal_nan=True)

    def test_multiple_files_sequential_seq(self, tmp_path, rng):
        from repro.io.csvio import write_vectors_csv

        a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
        write_vectors_csv(tmp_path / "a.csv", a)
        write_vectors_csv(tmp_path / "b.csv", b)
        src = CSVFileSource("csv", [tmp_path / "a.csv", tmp_path / "b.csv"])
        tuples = list(src.generate())
        assert [t["seq"] for t in tuples] == [0, 1, 2, 3, 4]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CSVFileSource("csv", tmp_path / "nope.csv")

    def test_directory_source(self, tmp_path, rng):
        from repro.io.csvio import write_vectors_csv

        write_vectors_csv(tmp_path / "b.csv", rng.standard_normal((2, 3)))
        write_vectors_csv(tmp_path / "a.csv", rng.standard_normal((2, 3)))
        src = DirectorySource("dir", tmp_path)
        assert [p.name for p in src.paths] == ["a.csv", "b.csv"]

    def test_directory_source_empty(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no \\*.csv"):
            DirectorySource("dir", tmp_path)

    def test_directory_source_not_a_dir(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            DirectorySource("dir", tmp_path / "missing")


class TestCallbackSource:
    def test_stops_on_none(self):
        items = [np.zeros(2), np.ones(2), None, np.zeros(2)]
        it = iter(items)
        src = CallbackSource("cb", lambda: next(it))
        got = list(src.generate())
        assert len(got) == 2

    def test_max_tuples(self):
        src = CallbackSource("cb", lambda: np.zeros(2), max_tuples=4)
        assert len(list(src.generate())) == 4


class TestSinks:
    def test_collecting_sink_payloads(self):
        sink = CollectingSink("c")
        sink.bind(lambda t, p: None)
        sink._dispatch(StreamTuple.data(x=1, y="a"), 0)
        sink._dispatch(StreamTuple.data(x=2, y="b"), 0)
        assert sink.payloads("x") == [1, 2]

    def test_callback_sink(self):
        got = []
        sink = CallbackSink("cb", lambda t, p: got.append((t["x"], p)))
        sink.bind(lambda t, p: None)
        sink._dispatch(StreamTuple.data(x=7), 0)
        assert got == [(7, 0)]

    def test_csv_sink_writes_on_close(self, tmp_path, rng):
        from repro.io.csvio import read_vectors_csv

        x = rng.standard_normal((4, 3))
        g = Graph("csv")
        src = g.add(VectorSource("src", VectorStream.from_array(x)))
        path = tmp_path / "out.csv"
        sink = g.add(CSVSink("sink", str(path)))
        g.connect(src, sink)
        SynchronousEngine(g).run()
        got = np.vstack(list(read_vectors_csv(path)))
        assert np.allclose(got, x)

    def test_checkpoint_sink(self, tmp_path, rng):
        store = CheckpointStore(tmp_path, every=1)
        sink = CheckpointSink("ck", store)
        sink.bind(lambda t, p: None)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        state = Eigensystem(
            mean=np.zeros(6), basis=basis,
            eigenvalues=np.array([2.0, 1.0]), n_seen=100,
        )
        sink._dispatch(StreamTuple.data(state=state, engine=0, kind="snapshot"), 0)
        assert len(store.list()) == 1
        # Tuples without a state field are ignored.
        sink._dispatch(StreamTuple.data(other=1), 0)
        assert len(store.list()) == 1
