"""Length-prefixed framed wire protocol of the remote runtimes.

Unpickling socket bytes executes arbitrary code, so the
:func:`~repro.streams.tuples.to_wire` dicts that cross to a remote end
are framed explicitly:

``MAGIC | body_len:u64 | header_len:u32 | n_blobs:u32 |
blob_len:u64 × n_blobs | header_json | blob₀ | blob₁ | …``

The header is JSON (structure, scalars, schema names); numpy arrays and
raw byte strings are hoisted out of it into binary *blobs* referenced by
index, so vector/block payloads cross the socket as their raw buffers
with no base64 inflation and no pickle.  Floats round-trip exactly
(``json`` emits shortest-repr), so remote runs can hold numeric parity
with the in-process runtimes.

Framing copies no payload: :func:`send_frame` hands the header and the
arrays' own buffers to one scatter-gather ``sendmsg``, and
:func:`recv_frame` reads each frame with ``recv_into`` one buffer and
decodes arrays as views into it.  The header is padded with JSON
whitespace so that buffer's first blob is 8-byte aligned.

Everything arriving over a socket is untrusted until decoded:
:func:`decode_frame` rejects bad magic, oversized frames, and
unframeable structure with :class:`FrameError`; payload *values* are
then further vetted by :func:`~repro.streams.tuples.from_wire`, which
refuses pickles, and the ``register_wire_type`` allowlist (see
``docs/robustness.md``).

:class:`ReconnectingChannel` is the host-side client: a framed socket
that transparently redials the coordinator on the backoff schedule every
reconnecting client shares (:mod:`repro.streams.retry`), re-sending its
hello on every reconnect so the coordinator can re-associate the stream.
"""

from __future__ import annotations

import json
import re
import select
import socket
import struct
import threading
from typing import Any

import numpy as np

from .retry import RetryBudget

__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "recv_frame_sized",
    "wait_readable",
    "ReconnectingChannel",
]

#: First bytes of every frame; a stream that does not start with this is
#: not speaking the protocol and is rejected before any allocation.
MAGIC = b"RPW1"

#: Upper bound on one frame's body.  A length prefix from an untrusted
#: peer must never size an allocation unchecked.
MAX_FRAME_BYTES = 1 << 28  # 256 MiB

#: Time allowed for one TCP connect of a :class:`ReconnectingChannel`.
CONNECT_TIMEOUT_S = 10.0

_HEAD = struct.Struct("!QII")
_U64 = struct.Struct("!Q")
_PREFIX = len(MAGIC) + _HEAD.size

#: Buffers per ``sendmsg`` call, below every platform's ``IOV_MAX``.
_IOV_MAX = 512


class FrameError(ValueError):
    """A frame violates the protocol (bad magic, oversized, malformed)."""


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------


def _jsonify(value: Any, blobs: list) -> Any:
    """JSON-safe view of ``value``; arrays/bytes hoisted into ``blobs``
    (arrays as byte views of their own buffers, not copies)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        ref = {
            "__frame__": "nd",
            "i": len(blobs),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        }
        blobs.append(memoryview(arr.reshape(-1).view(np.uint8)))
        return ref
    if isinstance(value, (bytes, bytearray, memoryview)):
        ref = {"__frame__": "bytes", "i": len(blobs)}
        blobs.append(bytes(value))
        return ref
    if isinstance(value, dict):
        if "__frame__" in value:
            raise FrameError("'__frame__' is a reserved key in frame dicts")
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise FrameError(
                    f"frame dict keys must be str, got {type(k).__name__}"
                )
            out[k] = _jsonify(v, blobs)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, blobs) for v in value]
    raise FrameError(
        f"cannot frame {type(value).__name__!r}: encode payloads with "
        f"to_wire/_encode_value before framing"
    )


#: Shape of every dtype string the encoder emits (``arr.dtype.str``):
#: byteorder, kind letter, item size, optional datetime unit.  Anything
#: else — in particular numpy's comma-separated struct syntax, whose
#: parser runs ``ast`` on the string — is rejected before ``np.dtype``
#: ever sees it.
_DTYPE_RE = re.compile(r"^[<>|=][a-zA-Z]\d*(\[[a-zA-Z]+\])?$")


def _dejsonify(value: Any, blobs: list[np.ndarray]) -> Any:
    if isinstance(value, dict):
        tag = value.get("__frame__")
        if tag == "nd":
            raw = blobs[value["i"]]
            dtype_s = value["dtype"]
            if not isinstance(dtype_s, str) or not _DTYPE_RE.match(dtype_s):
                raise FrameError(f"bad nd dtype {dtype_s!r}")
            dtype = np.dtype(dtype_s)
            if dtype.hasobject:
                raise FrameError("object dtypes cannot cross the wire")
            # A view into the (writable) frame buffer; only a blob the
            # sender left unaligned is copied.
            arr = raw.view(dtype).reshape(value["shape"])
            return arr if arr.flags.aligned else arr.copy()
        if tag == "bytes":
            return blobs[value["i"]].tobytes()
        return {k: _dejsonify(v, blobs) for k, v in value.items()}
    if isinstance(value, list):
        return [_dejsonify(v, blobs) for v in value]
    return value


def _frame_parts(msg: dict[str, Any]) -> list:
    """The frame as buffers: the fixed prefix plus header, then every
    blob as it lies in memory."""
    blobs: list = []
    header = _jsonify(msg, blobs)
    hj = json.dumps(header, separators=(",", ":")).encode()
    lens = b"".join(_U64.pack(len(b)) for b in blobs)
    hj += b" " * (-(_PREFIX + len(lens) + len(hj)) % 8)
    body_len = len(hj) + len(lens) + sum(len(b) for b in blobs)
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body {body_len} bytes exceeds MAX_FRAME_BYTES"
        )
    head = MAGIC + _HEAD.pack(body_len, len(hj), len(blobs)) + lens + hj
    return [head, *blobs]


def encode_frame(msg: dict[str, Any]) -> bytes:
    """Serialize ``msg`` (a plain dict) into one framed byte string."""
    return b"".join(_frame_parts(msg))


def decode_frame(data: bytes | memoryview | np.ndarray) -> dict[str, Any]:
    """Rebuild the dict encoded by :func:`encode_frame`.

    Arrays come back as views into ``data`` (into a writable copy of it
    when ``data`` is read-only).  The bytes are untrusted: every length
    field is validated against the actual buffer before any slice, and
    *any* parse failure — junk JSON, truncated structs, bogus blob refs,
    a dtype/shape that does not match its blob — surfaces as
    :class:`FrameError`, never as a raw ``json``/``struct``/``KeyError``
    leaking out of the protocol layer.  Callers (the coordinator
    accept/receiver loops, the host channel) rely on that contract to
    treat a malformed frame as a protocol violation rather than an
    internal crash.
    """
    view = np.frombuffer(data, dtype=np.uint8)
    if not view.flags.writeable:
        view = view.copy()
    if len(view) < _PREFIX:
        raise FrameError("truncated frame: shorter than the fixed header")
    if view[: len(MAGIC)].tobytes() != MAGIC:
        raise FrameError("bad frame magic")
    off = len(MAGIC)
    body_len, header_len, n_blobs = _HEAD.unpack_from(view, off)
    off += _HEAD.size
    if body_len > MAX_FRAME_BYTES:
        raise FrameError("frame length exceeds MAX_FRAME_BYTES")
    if len(view) - off != body_len:
        raise FrameError(
            f"frame body is {len(view) - off} bytes, header says {body_len}"
        )
    lens_size = n_blobs * _U64.size
    if header_len + lens_size > body_len:
        raise FrameError(
            "frame header_len/n_blobs exceed the declared body length"
        )
    try:
        blob_lens = [
            _U64.unpack_from(view, off + i * _U64.size)[0]
            for i in range(n_blobs)
        ]
        off += lens_size
        if sum(blob_lens) != body_len - header_len - lens_size:
            raise FrameError("blob lengths do not sum to the frame body")
        header = json.loads(view[off : off + header_len].tobytes().decode())
        off += header_len
        blobs: list[np.ndarray] = []
        for blen in blob_lens:
            blobs.append(view[off : off + blen])
            off += blen
        decoded = _dejsonify(header, blobs)
    except FrameError:
        raise
    except (
        struct.error,
        ValueError,
        KeyError,
        IndexError,
        TypeError,
        UnicodeDecodeError,
        SyntaxError,
    ) as exc:
        # json.JSONDecodeError is a ValueError; numpy raises
        # ValueError/TypeError on bad dtype/shape refs (and its
        # comma-struct dtype parser can raise SyntaxError, though
        # _DTYPE_RE forecloses that path before np.dtype runs).
        raise FrameError(f"malformed frame: {exc}") from exc
    if not isinstance(decoded, dict):
        raise FrameError(
            f"frame header must decode to a dict, got "
            f"{type(decoded).__name__}"
        )
    return decoded


# ---------------------------------------------------------------------------
# Socket framing
# ---------------------------------------------------------------------------


def _recv_into(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from the socket.

    Returns ``False`` on a clean EOF *before any byte* (the peer closed
    at a frame boundary); raises :class:`ConnectionError` on EOF
    mid-read (a torn frame — the connection died with a frame in
    flight).  ``socket.timeout`` propagates to the caller.
    """
    got, n = 0, len(view)
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            if got == 0:
                return False
            raise ConnectionError(
                f"torn frame: connection closed after {got}/{n} bytes"
            )
        got += k
    return True


def wait_readable(sock: socket.socket, timeout_s: float) -> bool:
    """Whether ``sock`` has bytes (or EOF) within ``timeout_s``.

    Receivers poll with this instead of ``settimeout``: a socket timeout
    applies to *every* operation on the socket, so it would make a
    concurrent ``sendall`` from a sender thread raise spuriously and
    tear a healthy connection.  The sockets stay blocking throughout.
    """
    try:
        readable, _, _ = select.select([sock], [], [], timeout_s)
    except (OSError, ValueError):
        # A closed/invalid fd counts as readable: the recv that follows
        # surfaces the real error.
        return True
    return bool(readable)


def send_frame(sock: socket.socket, msg: dict[str, Any]) -> int:
    """Encode ``msg`` and write the whole frame with scatter-gather
    ``sendmsg`` (payload buffers are not copied); returns bytes sent."""
    views = [memoryview(p) for p in _frame_parts(msg) if len(p)]
    total = sum(len(v) for v in views)
    i = 0
    while i < len(views):
        sent = sock.sendmsg(views[i : i + _IOV_MAX])
        # Advance past what went out; a partial write resumes mid-buffer.
        while sent and sent >= len(views[i]):
            sent -= len(views[i])
            i += 1
        if sent:
            views[i] = views[i][sent:]
    return total


def recv_frame_sized(
    sock: socket.socket,
) -> tuple[dict[str, Any] | None, int]:
    """Like :func:`recv_frame`, plus the frame's on-wire byte count.

    Transports that meter traffic (``ReconnectingChannel.bytes_in``)
    need the size, and the decoded dict cannot tell them — blobs and
    header framing are gone after decode.
    """
    head = bytearray(_PREFIX)
    if not _recv_into(sock, memoryview(head)):
        return None, 0
    if head[: len(MAGIC)] != MAGIC:
        raise FrameError("bad frame magic")
    body_len, _, _ = _HEAD.unpack_from(head, len(MAGIC))
    if body_len > MAX_FRAME_BYTES:
        raise FrameError("frame length exceeds MAX_FRAME_BYTES")
    frame = np.empty(_PREFIX + body_len, dtype=np.uint8)
    frame[:_PREFIX] = np.frombuffer(head, dtype=np.uint8)
    if body_len and not _recv_into(sock, memoryview(frame)[_PREFIX:]):
        raise ConnectionError("torn frame: connection closed after header")
    return decode_frame(frame), len(frame)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ConnectionError` on a torn frame and
    :class:`FrameError` on protocol violations.  A partial prefix read
    interrupted by EOF is torn, not clean: length-prefixed framing means
    any unfinished read loses an in-flight frame.
    """
    return recv_frame_sized(sock)[0]


# ---------------------------------------------------------------------------
# Reconnecting client channel (engine-host side)
# ---------------------------------------------------------------------------


class ReconnectingChannel:
    """A framed TCP client that redials on failure with backoff.

    One engine host holds exactly one channel to the coordinator.  Both
    :meth:`send` and :meth:`recv` transparently reconnect on socket
    failure, consuming a fresh ``RetryBudget`` of ``max_retries`` per
    outage (the schedule of :mod:`repro.streams.retry`, jitter seeded by
    ``seed``; each dial may take :data:`CONNECT_TIMEOUT_S`) and
    re-sending ``hello`` so the coordinator re-associates the host.  An
    exhausted budget raises :class:`ConnectionError` — the host then
    dies and the coordinator's membership layer takes over.

    Delivery semantics across a reconnect are *at-least-once*: a frame
    the kernel accepted but never delivered is lost, a frame delivered
    while the sender saw an error is duplicated on retry.  Between
    outages delivery is exactly-once (TCP FIFO).  The sync protocol
    tolerates both (idempotent merges, counted duplicates).

    ``flap_after`` is the chaos hook: after that many received frames
    the channel force-closes its own socket once, simulating a mid-run
    network flap; the subsequent send/recv exercises the real reconnect
    path.
    """

    def __init__(
        self,
        addr: tuple[str, int],
        hello: dict[str, Any],
        *,
        max_retries: int = 8,
        seed: int = 0,
        flap_after: int | None = None,
    ) -> None:
        self.addr = tuple(addr)
        self.hello = dict(hello)
        self.max_retries = max_retries
        self.seed = seed
        self.flap_after = flap_after
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self.n_reconnects = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._flapped = False
        self._closed = False
        self._ever_connected = False

    # -- connection management ------------------------------------------

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(
            self.addr, timeout=CONNECT_TIMEOUT_S
        )
        # Back to blocking: per-operation timeouts would also govern the
        # sender thread's sendall (see wait_readable).
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.bytes_out += send_frame(sock, self.hello)
        self.frames_out += 1
        return sock

    def connect(self) -> None:
        """Establish the initial connection (with backoff)."""
        with self._conn_lock:
            if self._sock is None:
                self._sock = self._dial_with_budget()

    def _dial_with_budget(self) -> socket.socket:
        budget = RetryBudget(self.max_retries, self.seed)
        while True:
            try:
                sock = self._dial()
                if self._ever_connected:
                    self.n_reconnects += 1
                self._ever_connected = True
                return sock
            except OSError as exc:
                if not budget.wait():
                    raise ConnectionError(
                        f"reconnect budget exhausted dialing "
                        f"{self.addr}: {exc}"
                    ) from exc

    def _reconnect(self, failed: socket.socket | None = None) -> socket.socket:
        """Replace ``failed`` with a fresh dialed socket.

        The sender and receiver threads share one socket; when both hit
        the same outage, both call in here.  Whichever loses the race
        must *not* tear down the healthy socket the winner just dialed —
        if ``self._sock`` is no longer the socket that failed, another
        thread already reconnected and we simply use its socket.
        """
        with self._conn_lock:
            if self._closed:
                raise ConnectionError("channel closed")
            if (
                failed is not None
                and self._sock is not None
                and self._sock is not failed
            ):
                return self._sock
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - already dead
                    pass
                self._sock = None
            self._sock = self._dial_with_budget()
            return self._sock

    def _current(self) -> socket.socket:
        with self._conn_lock:
            if self._sock is None:
                if self._closed:
                    raise ConnectionError("channel closed")
                self._sock = self._dial_with_budget()
            return self._sock

    # -- I/O -------------------------------------------------------------

    def send(self, msg: dict[str, Any]) -> None:
        """Frame and send ``msg``, reconnecting on socket failure."""
        with self._send_lock:
            while True:
                sock = self._current()
                try:
                    self.bytes_out += send_frame(sock, msg)
                    self.frames_out += 1
                    return
                except OSError:
                    self._reconnect(sock)

    def recv(self, timeout_s: float = 0.05) -> dict[str, Any] | None:
        """One frame, or ``None`` on timeout; reconnects on failure."""
        if (
            self.flap_after is not None
            and not self._flapped
            and self.frames_in >= self.flap_after
        ):
            # Chaos hook: sever the link abruptly, once.  The reconnect
            # below is the behaviour under test.
            self._flapped = True
            with self._conn_lock:
                if self._sock is not None:
                    self._sock.close()
                    self._sock = None
        while True:
            sock = self._current()
            if not wait_readable(sock, timeout_s):
                return None
            try:
                msg, nbytes = recv_frame_sized(sock)
            except (ConnectionError, OSError):
                self._reconnect(sock)
                continue
            if msg is None:  # peer closed cleanly: treat as outage
                self._reconnect(sock)
                continue
            self.frames_in += 1
            self.bytes_in += nbytes
            return msg

    def close(self) -> None:
        with self._conn_lock:
            self._closed = True
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - already dead
                    pass
                self._sock = None

    def counters(self) -> dict[str, int]:
        return {
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "reconnects": self.n_reconnects,
        }
