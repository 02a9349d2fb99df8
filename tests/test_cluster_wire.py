"""Wire layer of the cluster runtime: framing, sockets, trust boundary.

Round-trips run over *real* ``socket.socketpair`` links — the framed
protocol's contract is with kernel byte streams, not in-memory buffers —
and the regression tests pin the three wire-layer bugfixes this layer
exposed: unknown-schema handling, the decode allowlist, and the
pickle-fallback accounting.
"""

import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.eigensystem import Eigensystem
from repro.streams.batcher import BLOCK_SCHEMA
from repro.streams.sources import OBSERVATION_SCHEMA
from repro.streams.tuples import (
    FieldType,
    StreamSchema,
    StreamTuple,
    UnknownSchemaError,
    WireDecodeError,
    from_wire,
    register_schema,
    reset_wire_stats,
    to_wire,
    wire_stats,
)
from repro.streams.tuples import _SCHEMA_REGISTRY, _SCHEMA_NAMES
from repro.streams.wireproto import (
    FrameError,
    MAX_FRAME_BYTES,
    ReconnectingChannel,
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
)


class TestFrameCodec:
    def test_nested_roundtrip_with_blobs(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        msg = {
            "t": "tuples",
            "items": [["dst", 0, {"x": arr, "b": b"\x00\xffraw"}]],
            "none": None,
            "flag": True,
            "n": 42,
            "s": "text",
        }
        back = decode_frame(encode_frame(msg))
        np.testing.assert_array_equal(back["items"][0][2]["x"], arr)
        assert back["items"][0][2]["x"].dtype == np.float64
        assert back["items"][0][2]["b"] == b"\x00\xffraw"
        assert back["none"] is None and back["flag"] is True
        assert back["n"] == 42 and back["s"] == "text"

    def test_floats_roundtrip_exactly(self):
        # JSON shortest-repr: the parity guarantee of the cluster
        # runtime rests on this being *exact*, not approximate.
        vals = [0.1, 1.0 / 3.0, 1e-300, np.nextafter(1.0, 2.0)]
        back = decode_frame(encode_frame({"v": vals}))
        assert back["v"] == vals

    def test_decoded_arrays_are_writable(self):
        back = decode_frame(encode_frame({"x": np.zeros(3)}))
        back["x"][0] = 1.0  # must not raise: receive buffer not pinned

    def test_reserved_key_rejected(self):
        with pytest.raises(FrameError, match="__frame__"):
            encode_frame({"__frame__": "nd"})

    def test_non_string_keys_rejected(self):
        with pytest.raises(FrameError, match="keys must be str"):
            encode_frame({"k": {1: "x"}})

    def test_unframeable_value_rejected(self):
        with pytest.raises(FrameError, match="cannot frame"):
            encode_frame({"k": {1, 2}})

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame({"a": 1}))
        data[:4] = b"EVIL"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(data))

    def test_oversized_length_prefix_rejected(self):
        # An attacker-controlled length prefix must never size an
        # allocation: tamper the header to claim a huge body.
        import struct

        data = bytearray(encode_frame({"a": 1}))
        struct.pack_into("!Q", data, 4, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
            decode_frame(bytes(data))


def _raw_frame(header, blobs=(), n_blobs=None, blob_lens=None):
    """Hand-assemble a (possibly malformed) frame from raw parts."""
    import struct

    lens = (
        blob_lens
        if blob_lens is not None
        else [len(b) for b in blobs]
    )
    lens_bytes = b"".join(struct.pack("!Q", n) for n in lens)
    body = lens_bytes + header + b"".join(blobs)
    nb = n_blobs if n_blobs is not None else len(blobs)
    return b"RPW1" + struct.pack("!QII", len(body), len(header), nb) + body


class TestMalformedFrames:
    """Every parse failure must surface as FrameError.

    Regression: junk bytes from an untrusted peer used to leak
    ``json.JSONDecodeError`` / ``struct.error`` / ``KeyError`` /
    ``IndexError`` out of ``decode_frame``, which killed the
    coordinator's accept thread on the first garbage connection —
    legitimate hosts could then never connect or redial.
    """

    def test_truncated_fixed_header(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"RPW1\x00\x00")

    def test_junk_json_header(self):
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(_raw_frame(b"not json at all"))

    def test_non_utf8_header(self):
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(_raw_frame(b"\xff\xfe\xfd\xfc"))

    def test_empty_body(self):
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(_raw_frame(b""))

    def test_non_dict_header(self):
        with pytest.raises(FrameError, match="must decode to a dict"):
            decode_frame(_raw_frame(b"[1,2,3]"))

    def test_n_blobs_past_buffer(self):
        with pytest.raises(FrameError, match="exceed the declared body"):
            decode_frame(_raw_frame(b'{"a":1}', n_blobs=1 << 20))

    def test_blob_lengths_do_not_sum(self):
        with pytest.raises(FrameError, match="do not sum"):
            decode_frame(
                _raw_frame(b'{"a":1}', blobs=(b"xyz",), blob_lens=[7])
            )

    def test_truncated_body(self):
        data = encode_frame({"x": np.zeros(8)})
        with pytest.raises(FrameError, match="frame body is"):
            decode_frame(data[:-3])

    def test_nd_ref_with_bad_dtype(self):
        hdr = b'{"x":{"__frame__":"nd","i":0,"dtype":"?!","shape":[3]}}'
        with pytest.raises(FrameError, match="bad nd dtype"):
            decode_frame(_raw_frame(hdr, blobs=(b"\x00" * 24,)))

    def test_nd_ref_with_comma_struct_dtype(self):
        # numpy's comma-struct dtype syntax runs an ast-based parser
        # that raises SyntaxError on hostile strings; the decoder must
        # never hand attacker bytes to it.
        hdr = (
            b'{"x":{"__frame__":"nd","i":0,'
            b'"dtype":"f8,(2)f8","shape":[3]}}'
        )
        with pytest.raises(FrameError, match="bad nd dtype"):
            decode_frame(_raw_frame(hdr, blobs=(b"\x00" * 24,)))

    def test_nd_ref_with_object_dtype_spelling(self):
        hdr = b'{"x":{"__frame__":"nd","i":0,"dtype":"|O8","shape":[1]}}'
        with pytest.raises(FrameError):
            decode_frame(_raw_frame(hdr, blobs=(b"\x00" * 8,)))

    def test_nd_ref_with_mismatched_shape(self):
        hdr = (
            b'{"x":{"__frame__":"nd","i":0,"dtype":"<f8","shape":[99]}}'
        )
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(_raw_frame(hdr, blobs=(b"\x00" * 24,)))

    def test_nd_ref_with_missing_fields(self):
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(_raw_frame(b'{"x":{"__frame__":"nd"}}'))

    def test_blob_index_out_of_range(self):
        hdr = b'{"x":{"__frame__":"bytes","i":5}}'
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(_raw_frame(hdr))


def _pair():
    a, b = socket.socketpair()
    return a, b


class TestSocketFraming:
    def test_data_tuple_roundtrip_over_socketpair(self):
        a, b = _pair()
        try:
            vec = np.linspace(-1.0, 1.0, 17)
            tup = StreamTuple.data(OBSERVATION_SCHEMA, x=vec, seq=7)
            send_frame(a, to_wire(tup))
            back = from_wire(recv_frame(b))
            np.testing.assert_array_equal(back["x"], vec)
            assert back["seq"] == 7
            assert back.seq == tup.seq
            assert back.event_ts == tup.event_ts
            assert back.schema is tup.schema
        finally:
            a.close()
            b.close()

    def test_punctuation_and_control_roundtrip(self):
        a, b = _pair()
        try:
            send_frame(a, to_wire(StreamTuple.punctuation()))
            send_frame(
                a, to_wire(StreamTuple.control(type="grant", round=3))
            )
            punct = from_wire(recv_frame(b))
            ctl = from_wire(recv_frame(b))
            assert punct.is_punctuation
            assert ctl.is_control and ctl["round"] == 3
        finally:
            a.close()
            b.close()

    def test_sync_state_tuple_with_eigensystem_payload(self):
        # The ring-merge traffic of the SyncController: an Eigensystem
        # crosses via its documented dict form, never pickle.
        a, b = _pair()
        try:
            rng = np.random.default_rng(0)
            basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
            es = Eigensystem(
                mean=np.zeros(6),
                basis=basis,
                eigenvalues=np.array([4.0, 1.0]),
                sum_weight=12.0,
            )
            before = wire_stats()["pickled_payloads"]
            tup = StreamTuple.control(type="share", state=es, engine=1)
            send_frame(a, to_wire(tup))
            back = from_wire(recv_frame(b))
            assert wire_stats()["pickled_payloads"] == before
            np.testing.assert_allclose(
                back["state"].eigenvalues, es.eigenvalues
            )
            np.testing.assert_allclose(back["state"].basis, es.basis)
        finally:
            a.close()
            b.close()

    def test_frames_preserve_order(self):
        a, b = _pair()
        try:
            for i in range(20):
                send_frame(a, {"i": i})
            got = [recv_frame(b)["i"] for _ in range(20)]
            assert got == list(range(20))
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = _pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises_connection_error(self):
        a, b = _pair()
        try:
            data = encode_frame({"x": np.zeros(64)})
            a.sendall(data[: len(data) // 2])
            a.close()
            with pytest.raises(ConnectionError, match="torn frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_received_arrays_are_aligned_views_of_the_frame(self):
        # Copy-free receive: arrays decode as views into the one buffer
        # the frame was read into, 8-byte aligned whatever the header's
        # length, and writable.
        a, b = _pair()
        try:
            for label in ("", "x" * 5):
                xs = np.arange(12.0).reshape(3, 4)
                seqs = np.arange(3, dtype=np.int64)
                send_frame(a, {"l": label, "xs": xs, "seqs": seqs})
                back = recv_frame(b)
                for name, arr in (("xs", xs), ("seqs", seqs)):
                    got = back[name]
                    np.testing.assert_array_equal(got, arr)
                    assert not got.flags.owndata
                    assert got.flags.aligned and got.flags.writeable
        finally:
            a.close()
            b.close()


class _MiniCoordinator:
    """Accepts framed connections, records hellos, scripts replies."""

    def __init__(self):
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(4)
        self.addr = self.server.getsockname()
        self.hellos = []
        self.received = []

    def serve(self, plans):
        """One element of ``plans`` per accepted connection.

        Each plan is a list of frames to send after reading the hello;
        the connection is closed afterwards (an abrupt outage for every
        plan but the last, which stays open until the client closes).
        """
        for i, plan in enumerate(plans):
            conn, _ = self.server.accept()
            self.hellos.append(recv_frame(conn))
            for frame in plan:
                send_frame(conn, frame)
            if i < len(plans) - 1:
                conn.close()
            else:
                self.last_conn = conn

    def close(self):
        self.server.close()


@pytest.mark.usefixtures("fast_backoff")
class TestReconnectingChannel:
    def test_mid_stream_disconnect_recovers(self):
        coord = _MiniCoordinator()
        plans = [[{"i": 0}, {"i": 1}], [{"i": 2}]]
        server = threading.Thread(
            target=coord.serve, args=(plans,), daemon=True
        )
        server.start()
        chan = ReconnectingChannel(
            coord.addr, {"t": "hello", "host": 9},
            max_retries=8,
        )
        try:
            chan.connect()
            got = []
            deadline = time.perf_counter() + 10.0
            while len(got) < 3 and time.perf_counter() < deadline:
                msg = chan.recv(timeout_s=0.05)
                if msg is not None:
                    got.append(msg["i"])
            assert got == [0, 1, 2]
            assert chan.n_reconnects == 1
            server.join(timeout=5.0)
            # The hello was re-sent on the redial so the coordinator
            # can re-associate the stream.
            assert [h["host"] for h in coord.hellos] == [9, 9]
        finally:
            chan.close()
            coord.close()

    def test_flap_hook_severs_once_and_redials(self):
        coord = _MiniCoordinator()
        plans = [[{"i": 0}], [{"i": 1}]]
        server = threading.Thread(
            target=coord.serve, args=(plans,), daemon=True
        )
        server.start()
        chan = ReconnectingChannel(
            coord.addr, {"t": "hello", "host": 4},
            max_retries=8, flap_after=1,
        )
        try:
            chan.connect()
            got = []
            deadline = time.perf_counter() + 10.0
            while len(got) < 2 and time.perf_counter() < deadline:
                msg = chan.recv(timeout_s=0.05)
                if msg is not None:
                    got.append(msg["i"])
            assert got == [0, 1]
            # The self-inflicted flap is a counted reconnect too —
            # regression: redials via the flap hook used to dial as
            # "first connect" and evade the counter.
            assert chan.n_reconnects == 1
            server.join(timeout=5.0)
            assert len(coord.hellos) == 2
        finally:
            chan.close()
            coord.close()

    def test_reconnect_race_keeps_winners_socket(self):
        # Regression: the sender and receiver threads share one socket;
        # when both hit the same outage, the second _reconnect used to
        # unconditionally close the fresh socket the first had just
        # dialed — a spurious extra reconnect that lost any frames
        # already sent on it.
        coord = _MiniCoordinator()
        server = threading.Thread(
            target=coord.serve, args=([[], []],), daemon=True
        )
        server.start()
        chan = ReconnectingChannel(
            coord.addr, {"t": "hello"},
            max_retries=8,
        )
        try:
            chan.connect()
            fresh = chan._sock
            # The losing thread reports the *stale* socket it saw fail;
            # the winner's fresh socket must be handed back untouched.
            stale = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            stale.close()
            assert chan._reconnect(stale) is fresh
            assert chan._sock is fresh
            assert fresh.fileno() != -1  # not torn down
            assert chan.n_reconnects == 0
            # Reporting the *current* socket as failed still redials.
            redialed = chan._reconnect(fresh)
            assert redialed is not fresh
            assert chan.n_reconnects == 1
            server.join(timeout=5.0)
            assert len(coord.hellos) == 2
        finally:
            chan.close()
            coord.close()

    def test_budget_exhaustion_raises(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_addr = probe.getsockname()
        probe.close()  # nothing listens here any more
        chan = ReconnectingChannel(
            dead_addr, {"t": "hello"},
            max_retries=1,
        )
        with pytest.raises(ConnectionError, match="budget exhausted"):
            chan.connect()

    def test_counters_track_traffic(self):
        coord = _MiniCoordinator()
        server = threading.Thread(
            target=coord.serve, args=([[{"i": 0}]],), daemon=True
        )
        server.start()
        chan = ReconnectingChannel(coord.addr, {"t": "hello"})
        try:
            chan.connect()
            assert chan.recv(timeout_s=2.0) == {"i": 0}
            c = chan.counters()
            assert c["frames_in"] == 1
            assert c["frames_out"] == 1  # the hello
            # Regression: bytes_in used to stay 0 (frames were counted,
            # their sizes were not).
            assert c["bytes_in"] > 0
            assert c["bytes_out"] > 0 and c["reconnects"] == 0
        finally:
            chan.close()
            coord.close()


class TestWireTrustBoundary:
    """Regression tests for the wire-layer bugfixes."""

    def test_unknown_schema_raises_and_counts(self):
        schema = register_schema(
            "test-unknown-schema", StreamSchema({"v": FieldType.FLOAT})
        )
        msg = to_wire(StreamTuple.data(schema, v=1.0))
        # Hostile input: a message stripped of the descriptor every
        # sender ships, at a receiver that never registered the name.
        del msg["schema_fields"]
        del _SCHEMA_REGISTRY["test-unknown-schema"]
        del _SCHEMA_NAMES[id(schema)]
        before = wire_stats()["unknown_schema"]
        with pytest.raises(UnknownSchemaError, match="test-unknown-schema"):
            from_wire(msg)
        assert wire_stats()["unknown_schema"] == before + 1

    def test_descriptor_registers_schema_lazily(self):
        schema = register_schema(
            "test-lazy-schema",
            StreamSchema({"v": FieldType.FLOAT, "x": FieldType.VECTOR}),
        )
        msg = to_wire(StreamTuple.data(schema, v=1.0, x=np.zeros(3)))
        del _SCHEMA_REGISTRY["test-lazy-schema"]
        del _SCHEMA_NAMES[id(schema)]
        before = wire_stats()["schemas_registered"]
        back = from_wire(msg)
        assert wire_stats()["schemas_registered"] == before + 1
        assert back.schema is not None
        assert "v" in back.schema and "x" in back.schema
        # The rebuilt schema is now interned: a second message with the
        # same name reuses it instead of re-registering.
        back2 = from_wire(msg)
        assert back2.schema is back.schema

    def test_unregistered_wire_type_refused(self):
        # The (module, qualname) pair in a wire message is attacker
        # input on TCP: decoding must consult the allowlist, never
        # import from the message.
        evil = {
            "kind": "control",
            "seq": 1,
            "schema": None,
            "event_ts": None,
            "payload": {
                "x": {
                    "__wire__": "dict",
                    "module": "subprocess",
                    "qualname": "Popen",
                    "data": {"args": ["true"]},
                }
            },
        }
        before = wire_stats()["rejected_payloads"]
        with pytest.raises(WireDecodeError, match="unregistered type"):
            from_wire(evil)
        assert wire_stats()["rejected_payloads"] == before + 1

    def test_pickle_refused_without_allow_pickle(self):
        # Hostile input: a hand-built pickled payload value.
        msg = to_wire(StreamTuple.control(blob=1))
        msg["payload"]["blob"] = {
            "__wire__": "pickle", "data": pickle.dumps({1, 2, 3}),
        }
        before = wire_stats()["rejected_payloads"]
        with pytest.raises(WireDecodeError, match="allow_pickle=False"):
            from_wire(msg)
        assert wire_stats()["rejected_payloads"] == before + 1

    def test_eigensystem_is_allowlisted_by_default(self):
        es = Eigensystem(
            mean=np.zeros(3),
            basis=np.eye(3)[:, :1],
            eigenvalues=np.array([1.0]),
        )
        back = from_wire(to_wire(StreamTuple.control(state=es)))
        assert isinstance(back["state"], Eigensystem)


class TestWireRoundTrip:
    def test_scalar_data_tuple(self):
        tup = StreamTuple.data(x=np.arange(3.0), label="a")
        back = from_wire(to_wire(tup))
        assert back.is_data
        assert back.seq == tup.seq
        assert back.payload["label"] == "a"
        np.testing.assert_array_equal(back.payload["x"], tup.payload["x"])

    def test_block_schema_travels_by_name(self):
        xs = np.arange(12.0).reshape(3, 4)
        seqs = np.array([5, 6, 7], dtype=np.int64)
        tup = StreamTuple.data(BLOCK_SCHEMA, xs=xs, seqs=seqs, count=3)
        back = from_wire(decode_frame(encode_frame(to_wire(tup))))
        assert back.schema is BLOCK_SCHEMA  # interned by registered name
        assert back.seq == tup.seq
        np.testing.assert_array_equal(back.payload["xs"], xs)
        np.testing.assert_array_equal(back.payload["seqs"], seqs)

    def test_punctuation_and_control(self):
        punct = from_wire(to_wire(StreamTuple.punctuation()))
        assert punct.is_punctuation
        ctl = from_wire(to_wire(StreamTuple.control(type="share")))
        assert ctl.is_control
        assert ctl.payload["type"] == "share"

    def test_eigensystem_ships_as_dict_not_pickle(self):
        state = Eigensystem(
            mean=np.zeros(4),
            basis=np.eye(4, 2),
            eigenvalues=np.array([2.0, 1.0]),
            n_seen=10,
        )
        tup = StreamTuple.control(type="state", engine=0, state=state)
        reset_wire_stats()
        back = from_wire(to_wire(tup))
        assert wire_stats()["pickled_payloads"] == 0
        got = back.payload["state"]
        assert isinstance(got, Eigensystem)
        np.testing.assert_allclose(got.basis, state.basis)
        np.testing.assert_allclose(got.eigenvalues, state.eigenvalues)

    def test_opaque_payload_falls_back_to_counted_pickle(self):
        # The fallback is visible accounting on the sender, and no
        # receiver unpickles it.
        tup = StreamTuple.data(weird={"a", "b"})
        reset_wire_stats()
        msg = to_wire(tup)
        assert wire_stats()["pickled_payloads"] == 1
        with pytest.raises(WireDecodeError):
            from_wire(msg)
