"""Live stream sources: TCP sockets and growing ("piped") files.

Section III-A.1 lists InfoSphere's out-of-the-box inputs beyond files:
"Side service can feed the data using piped stream file, and InfoSphere
will lock on the stream end until a new data is streamed through.
Network TCP sockets and http URLs are also supported out of the box as a
source of data."  The two live variants we rebuild:

* :class:`TCPVectorSource` — connects to ``host:port`` and reads
  newline-delimited CSV vectors until the peer closes the connection.
  (:func:`serve_vectors` is the matching test/demo-side feeder.)
* :class:`TailingFileSource` — follows a file that another process keeps
  appending to, blocking at EOF ("lock on the stream end") until new
  lines arrive or a terminator line / idle timeout ends the stream.

Both emit the standard observation tuples (``x``, ``seq``).

Robustness (heavy-traffic reality):

* **Reconnect with backoff** — the network sources survive a peer reset
  mid-stream: they reconnect on the backoff schedule every reconnecting
  client shares (:mod:`repro.streams.retry`), up to a ``max_retries``
  budget, counting every successful re-establishment in
  ``n_reconnects`` (``repro_source_reconnects_total``).  A *clean*
  close (EOF or the ``__END__`` terminator) still ends the stream.
* **Dead-letter routing** — an unparsable CSV line no longer raises out
  of the source thread and kills the pipeline; it is quarantined to the
  source's own :class:`~repro.streams.resilience.DeadLetterQueue`
  (``source.dlq``: payload captured, ``repro_dlq_total`` counter) and
  the stream continues.  ``strict=True`` restores the raising
  behaviour.
"""

from __future__ import annotations

import pathlib
import socket
import threading
import time
from typing import Iterator

import numpy as np

from .operators import Source
from .resilience import DeadLetterQueue
from .retry import RetryBudget
from .sources import OBSERVATION_SCHEMA
from .tuples import StreamTuple

__all__ = [
    "TCPVectorSource",
    "TailingFileSource",
    "serve_vectors",
]

#: Conventional end-of-stream line for text protocols.
END_OF_STREAM = "__END__"


def _parse_csv_line(line: str, lineno: int, origin: str) -> np.ndarray | None:
    line = line.strip()
    if not line:
        return None
    try:
        return np.array(
            [
                float("nan") if cell.strip() in ("", "nan", "NaN")
                else float(cell)
                for cell in line.split(",")
            ],
            dtype=np.float64,
        )
    except ValueError as exc:
        raise ValueError(f"{origin}:{lineno}: unparsable line ({exc})") from None


class _ResilientCSVSource(Source):
    """Shared malformed-line handling for the CSV-over-anything sources."""

    def __init__(self, name: str, *, strict: bool = False) -> None:
        super().__init__(name)
        #: Destination for unparsable lines.
        self.dlq = DeadLetterQueue()
        self.strict = bool(strict)
        self.n_quarantined = 0
        self.n_reconnects = 0

    def bind_telemetry(self, telemetry) -> None:
        self.dlq.bind_telemetry(telemetry)

    def _safe_parse(
        self, line: str, lineno: int, origin: str
    ) -> np.ndarray | None:
        """Parse one line; poison goes to the DLQ instead of raising."""
        try:
            return _parse_csv_line(line, lineno, origin)
        except ValueError as exc:
            if self.strict:
                raise
            self.n_quarantined += 1
            self.dlq.quarantine(
                self.name, str(exc), payload=line.strip(), seq=lineno
            )
            return None


class TCPVectorSource(_ResilientCSVSource):
    """Read newline-delimited CSV vectors from a TCP connection.

    The stream ends when the peer *cleanly* closes the socket or sends
    the ``__END__`` terminator line.  A connection *failure* — refused
    connect, reset mid-stream — triggers reconnection with exponential
    backoff + jitter until ``max_retries`` is exhausted, at which point
    the last error propagates.  Sequence numbering continues across
    reconnects (the feeder is expected to resume, not replay).

    Parameters
    ----------
    host / port:
        Peer to connect to.
    connect_timeout_s:
        Time allowed for each TCP connect attempt.
    max_retries:
        Total reconnect budget (connect failures and mid-stream drops
        share it).  0 restores the seed single-attempt behaviour.
    retry_seed:
        Seeds the backoff jitter (:mod:`repro.streams.retry`).
    strict:
        Unparsable-line routing (see module docstring).
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 10.0,
        max_retries: int = 5,
        retry_seed: int = 0,
        strict: bool = False,
    ) -> None:
        super().__init__(name, strict=strict)
        self.host = host
        self.port = int(port)
        self.connect_timeout_s = float(connect_timeout_s)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = int(max_retries)
        self.retry_seed = int(retry_seed)

    def generate(self) -> Iterator[StreamTuple]:
        budget = RetryBudget(self.max_retries, self.retry_seed)
        origin = f"tcp://{self.host}:{self.port}"
        seq = 0
        lineno = 0
        connected_before = False
        while True:
            try:
                conn = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout_s
                )
            except OSError:
                if not budget.wait():
                    raise
                continue
            if connected_before:
                self.n_reconnects += 1
            connected_before = True
            try:
                conn.settimeout(None)
                reader = conn.makefile("r", encoding="utf-8")
                for line in reader:
                    lineno += 1
                    if line.strip() == END_OF_STREAM:
                        return
                    vec = self._safe_parse(line, lineno, origin)
                    if vec is None:
                        continue
                    yield StreamTuple.data(
                        OBSERVATION_SCHEMA, x=vec, seq=seq
                    )
                    seq += 1
            except OSError:
                # Network flap mid-stream: reconnect within budget.
                conn.close()
                if not budget.wait():
                    raise
                continue
            conn.close()
            return  # clean EOF from the peer


def serve_vectors(
    vectors,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    delay_s: float = 0.0,
) -> tuple[int, threading.Thread]:
    """Serve vectors over TCP for one client (the demo/test feeder).

    Binds, listens for a single connection in a daemon thread, writes one
    CSV line per vector (``delay_s`` apart), then the ``__END__``
    terminator.  Returns ``(bound_port, thread)``.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    bound_port = server.getsockname()[1]

    def run() -> None:
        try:
            conn, _ = server.accept()
            with conn, conn.makefile("w", encoding="utf-8") as writer:
                for vec in vectors:
                    vec = np.asarray(vec, dtype=np.float64)
                    writer.write(
                        ",".join(
                            "" if not np.isfinite(v) else repr(float(v))
                            for v in vec
                        )
                        + "\n"
                    )
                    writer.flush()
                    if delay_s:
                        time.sleep(delay_s)
                writer.write(END_OF_STREAM + "\n")
                writer.flush()
        finally:
            server.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return bound_port, thread


class TailingFileSource(_ResilientCSVSource):
    """Follow a growing CSV file — the "piped stream file" input.

    Reads vectors line by line; at EOF it *waits* for more data ("lock on
    the stream end until a new data is streamed through").  The stream
    ends on a ``__END__`` line, or after ``idle_timeout_s`` with no new
    data (``None`` waits forever).  Unparsable lines go to the
    dead-letter queue (see module docstring) unless ``strict=True``.

    Parameters
    ----------
    path:
        The file being appended to (must exist before the run starts).
    poll_interval_s:
        How often to re-check for new lines at EOF.
    idle_timeout_s:
        Give up after this much quiet time (safety for tests/pipelines
        whose writer died); ``None`` disables.
    """

    def __init__(
        self,
        name: str,
        path: str | pathlib.Path,
        *,
        poll_interval_s: float = 0.05,
        idle_timeout_s: float | None = 10.0,
        strict: bool = False,
    ) -> None:
        super().__init__(name, strict=strict)
        self.path = pathlib.Path(path)
        if not self.path.exists():
            raise FileNotFoundError(self.path)
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive or None")
        self.poll_interval_s = float(poll_interval_s)
        self.idle_timeout_s = idle_timeout_s

    def generate(self) -> Iterator[StreamTuple]:
        seq = 0
        lineno = 0
        last_data = time.monotonic()
        with self.path.open("r", encoding="utf-8") as fh:
            buffer = ""
            while True:
                chunk = fh.readline()
                if not chunk:
                    if (
                        self.idle_timeout_s is not None
                        and time.monotonic() - last_data > self.idle_timeout_s
                    ):
                        return
                    time.sleep(self.poll_interval_s)
                    continue
                buffer += chunk
                if not buffer.endswith("\n"):
                    # Partial line: the writer is mid-append; wait for the
                    # rest.
                    continue
                line, buffer = buffer, ""
                last_data = time.monotonic()
                lineno += 1
                if line.strip() == END_OF_STREAM:
                    return
                vec = self._safe_parse(line, lineno, str(self.path))
                if vec is None:
                    continue
                yield StreamTuple.data(OBSERVATION_SCHEMA, x=vec, seq=seq)
                seq += 1
