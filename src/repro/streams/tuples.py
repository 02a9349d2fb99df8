"""Typed stream tuples — the data currency of the engine.

InfoSphere Streams applications exchange "tuples, having the data
structure specified by the application" (Section III).  We model the same
idea: a :class:`StreamSchema` declares named, typed fields; a
:class:`StreamTuple` is a validated record flowing along a stream, tagged
as data / control / punctuation.  Control tuples implement the
synchronization messages of Section III-B; punctuation marks end-of-stream
(used for orderly shutdown and final-state flushes).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = [
    "FieldType",
    "StreamSchema",
    "TupleKind",
    "StreamTuple",
    "SchemaError",
    "UnknownSchemaError",
    "WireDecodeError",
    "register_schema",
    "register_wire_type",
    "lookup_schema",
    "schema_name",
    "to_wire",
    "from_wire",
    "reseed_sequence",
    "wire_stats",
    "reset_wire_stats",
    "stamp_event_time",
    "inherit_event_time",
]

_seq_counter = itertools.count()


def reseed_sequence(namespace: int, stride: int = 1 << 40) -> None:
    """Restart the global tuple-sequence counter in a disjoint band.

    Each process assigns tuple ``seq`` ids from its own module-level
    counter; without namespacing, a remote end and the coordinator
    would mint colliding ids.  The remote runtimes call this once per
    engine host with its host number, giving every process a private
    ``stride``-wide band (2^40 ids is unreachable within a run).
    """
    global _seq_counter
    if namespace < 0:
        raise ValueError(f"namespace must be >= 0, got {namespace}")
    _seq_counter = itertools.count(namespace * stride)


class SchemaError(TypeError):
    """A tuple payload does not match its declared schema."""


class UnknownSchemaError(SchemaError):
    """A wire message names a schema this process has not registered.

    Silently dropping the schema (the old behaviour) disabled validation
    and ``BLOCK_SCHEMA`` identity dispatch downstream without any
    signal — on a remote host with a different import order that is a
    correctness trap, not a convenience.  :func:`to_wire` therefore
    ships every registered schema's descriptor, so only a message
    stripped of it (hostile input) can raise this.
    """


class WireDecodeError(ValueError):
    """A wire payload value failed safe decoding.

    Raised for ``__wire__ == "dict"`` payloads naming a type outside the
    :func:`register_wire_type` allowlist, and for pickled payloads in a
    tuple (:func:`from_wire` never unpickles: unpickling bytes from a
    socket executes arbitrary code).  Every rejection is counted in
    ``wire_stats()["rejected_payloads"]``.
    """


class FieldType(enum.Enum):
    """Field types supported by stream schemas."""

    FLOAT = "float"
    INT = "int"
    STRING = "str"
    VECTOR = "vector"  # 1-D float64 numpy array
    MATRIX = "matrix"  # 2-D float64 numpy array (a (k, d) micro-batch)
    OBJECT = "object"  # opaque payload (e.g. a serialized eigensystem)

    def check(self, value: Any) -> bool:
        """Whether ``value`` is acceptable for this field type."""
        if self is FieldType.FLOAT:
            return isinstance(value, (float, int)) and not isinstance(value, bool)
        if self is FieldType.INT:
            return isinstance(value, (int, np.integer)) and not isinstance(
                value, bool
            )
        if self is FieldType.STRING:
            return isinstance(value, str)
        if self is FieldType.VECTOR:
            return isinstance(value, np.ndarray) and value.ndim == 1
        if self is FieldType.MATRIX:
            return isinstance(value, np.ndarray) and value.ndim == 2
        return True  # OBJECT


@dataclass(frozen=True)
class StreamSchema:
    """Ordered, named, typed fields of a stream.

    Example::

        OBS = StreamSchema({"x": FieldType.VECTOR, "seq": FieldType.INT})
    """

    fields: Mapping[str, FieldType]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("schema must declare at least one field")
        for name, ftype in self.fields.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"invalid field name {name!r}")
            if not isinstance(ftype, FieldType):
                raise ValueError(f"field {name!r} has non-FieldType {ftype!r}")

    def validate(self, payload: Mapping[str, Any]) -> None:
        """Raise :class:`SchemaError` unless ``payload`` matches exactly."""
        missing = set(self.fields) - set(payload)
        extra = set(payload) - set(self.fields)
        if missing or extra:
            raise SchemaError(
                f"payload fields mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        for name, ftype in self.fields.items():
            if not ftype.check(payload[name]):
                raise SchemaError(
                    f"field {name!r} expects {ftype.value}, got "
                    f"{type(payload[name]).__name__}"
                )

    def __contains__(self, name: str) -> bool:
        return name in self.fields


class TupleKind(enum.Enum):
    """What a tuple means to the runtime."""

    DATA = "data"
    CONTROL = "control"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class StreamTuple:
    """One record on a stream.

    Attributes
    ----------
    payload:
        Field name → value; validated against ``schema`` when one is given.
    kind:
        Data / control / punctuation.
    seq:
        Globally-unique monotone sequence id (assigned automatically).
    event_ts:
        Event time (``time.time()`` epoch seconds) stamped at source
        ingest, or ``None`` for tuples without an event-time lineage
        (control traffic, punctuation).  Derived tuples — blocks, rows
        unbatched from a block, diagnostics — carry the *minimum* event
        time of their inputs, so at any sink the value is a low
        watermark: every contributing observation entered the pipeline
        at or after ``event_ts``.
    """

    payload: Mapping[str, Any] = field(default_factory=dict)
    kind: TupleKind = TupleKind.DATA
    schema: StreamSchema | None = None
    seq: int = field(default_factory=lambda: next(_seq_counter))
    event_ts: float | None = None

    def __post_init__(self) -> None:
        if self.schema is not None and self.kind is TupleKind.DATA:
            self.schema.validate(self.payload)

    @classmethod
    def data(
        cls, schema: StreamSchema | None = None, **payload: Any
    ) -> "StreamTuple":
        """A data tuple (validated against ``schema`` when provided)."""
        return cls(payload=payload, kind=TupleKind.DATA, schema=schema)

    @classmethod
    def control(cls, **payload: Any) -> "StreamTuple":
        """A control tuple (sync messages; schema-free by design)."""
        return cls(payload=payload, kind=TupleKind.CONTROL)

    @classmethod
    def punctuation(cls) -> "StreamTuple":
        """An end-of-stream marker."""
        return cls(kind=TupleKind.PUNCTUATION)

    @property
    def is_data(self) -> bool:
        return self.kind is TupleKind.DATA

    @property
    def is_control(self) -> bool:
        return self.kind is TupleKind.CONTROL

    @property
    def is_punctuation(self) -> bool:
        return self.kind is TupleKind.PUNCTUATION

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Dict-style access with default."""
        return self.payload.get(key, default)

    def nbytes(self) -> int:
        """Approximate wire size — used by the cluster cost model.

        Vectors dominate; scalars are costed at 8 bytes, strings at their
        UTF-8 length, opaque objects at 64 bytes unless they expose
        ``nbytes``.
        """
        total = 16  # header
        for value in self.payload.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, str):
                total += len(value.encode())
            elif hasattr(value, "nbytes"):
                total += int(value.nbytes)  # type: ignore[arg-type]
            else:
                total += 8 if isinstance(value, (int, float)) else 64
        return total


# ---------------------------------------------------------------------------
# Wire serialization: explicit cross-process round-tripping
# ---------------------------------------------------------------------------
#
# Tuples that cross a process boundary must not rely on implicit pickling
# of operator-attached payloads: schemas are interned singletons (pickling
# one per tuple breaks identity checks and wastes bytes), Eigensystem
# payloads carry numpy state with a documented dict form, and anything
# falling back to raw pickle should be *visible* so tests can assert the
# hot path never takes it.  ``to_wire``/``from_wire`` make every schema —
# BLOCK_SCHEMA, OBSERVATION_SCHEMA, control and punctuation tuples —
# round-trip explicitly.

_SCHEMA_REGISTRY: dict[str, StreamSchema] = {}
_SCHEMA_NAMES: dict[int, str] = {}

#: Wire-level accounting, exposed so transports and tests can verify the
#: hot path: ``pickled_payloads`` counts payload values that fell back to
#: opaque pickling (must stay 0 for block traffic);
#: ``unknown_schema`` counts messages rejected for naming a schema the
#: receiver has not registered; ``schemas_registered`` counts schemas
#: lazily interned from wire-carried descriptors; ``rejected_payloads``
#: counts payload values refused by the decode allowlist / no-pickle
#: policy.
_WIRE_STATS = {
    "tuples": 0,
    "pickled_payloads": 0,
    "unknown_schema": 0,
    "schemas_registered": 0,
    "rejected_payloads": 0,
}

#: Decode allowlist for ``__wire__ == "dict"`` payloads: (module,
#: qualname) -> class.  Wire messages can arrive from a TCP socket, so
#: the receiver must never import a module named by the message itself.
_WIRE_TYPES: dict[tuple[str, str], type] = {}
_wire_types_seeded = False

#: Cached wire descriptors (field name -> FieldType value) per interned
#: schema object, so shipping them costs one dict build per schema, not
#: per tuple.
_SCHEMA_DESCRIPTORS: dict[int, dict[str, str]] = {}


def register_wire_type(cls: type) -> type:
    """Allow ``cls`` to be decoded from ``__wire__ == "dict"`` payloads.

    ``cls`` must implement the documented dict round-trip
    (``to_dict``/``from_dict``).  Decoding is restricted to registered
    types because the module/qualname in a wire message is attacker
    input on a TCP transport — importing it verbatim would execute
    arbitrary code.  Usable as a class decorator; returns ``cls``.
    """
    if not (hasattr(cls, "from_dict") and hasattr(cls, "to_dict")):
        raise TypeError(
            f"{cls!r} must implement to_dict/from_dict to be a wire type"
        )
    _WIRE_TYPES[(cls.__module__, cls.__qualname__)] = cls
    return cls


def _seed_wire_types() -> None:
    """Register the library's own dict-capable payload classes (lazy)."""
    global _wire_types_seeded
    if _wire_types_seeded:
        return
    _wire_types_seeded = True
    from ..core.eigensystem import Eigensystem

    register_wire_type(Eigensystem)


def register_schema(name: str, schema: StreamSchema) -> StreamSchema:
    """Intern ``schema`` under ``name`` for wire round-tripping.

    Registration is idempotent for the same object; re-registering a
    *different* schema under an existing name is an error (the name is
    the cross-process identity).
    """
    existing = _SCHEMA_REGISTRY.get(name)
    if existing is not None and existing is not schema:
        raise ValueError(f"schema name {name!r} already registered")
    _SCHEMA_REGISTRY[name] = schema
    _SCHEMA_NAMES[id(schema)] = name
    return schema


def lookup_schema(name: str) -> StreamSchema | None:
    """The interned schema for ``name`` (``None`` when unknown)."""
    return _SCHEMA_REGISTRY.get(name)


def schema_name(schema: StreamSchema | None) -> str | None:
    """The registered name of ``schema`` (``None`` when unregistered)."""
    if schema is None:
        return None
    return _SCHEMA_NAMES.get(id(schema))


def wire_stats() -> dict[str, int]:
    """A snapshot of the wire-serialization counters."""
    return dict(_WIRE_STATS)


def reset_wire_stats() -> None:
    """Zero the wire counters (test isolation)."""
    for key in _WIRE_STATS:
        _WIRE_STATS[key] = 0


def _encode_value(value: Any) -> Any:
    # numpy arrays and plain scalars ship as-is: the frame codec
    # (repro.streams.wireproto) sends arrays as their raw buffers.
    if value is None or isinstance(
        value, (bool, int, float, str, bytes, np.ndarray, np.generic)
    ):
        return value
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None and hasattr(type(value), "from_dict"):
        cls = type(value)
        return {
            "__wire__": "dict",
            "module": cls.__module__,
            "qualname": cls.__qualname__,
            "data": to_dict(),
        }
    import pickle

    _WIRE_STATS["pickled_payloads"] += 1
    return {"__wire__": "pickle", "data": pickle.dumps(value)}


def _decode_value(value: Any, *, allow_pickle: bool = True) -> Any:
    if isinstance(value, dict) and "__wire__" in value:
        if value["__wire__"] == "dict":
            # Never import from the message: the (module, qualname) pair
            # is untrusted input over TCP.  Only classes registered via
            # register_wire_type decode; everything else is a counted
            # rejection.
            _seed_wire_types()
            cls = _WIRE_TYPES.get((value["module"], value["qualname"]))
            if cls is None:
                _WIRE_STATS["rejected_payloads"] += 1
                raise WireDecodeError(
                    f"wire payload names unregistered type "
                    f"{value['module']}.{value['qualname']}; the receiver "
                    f"must register_wire_type() it explicitly"
                )
            return cls.from_dict(value["data"])
        if value["__wire__"] == "pickle":
            if not allow_pickle:
                _WIRE_STATS["rejected_payloads"] += 1
                raise WireDecodeError(
                    "pickled wire payload refused: this transport decodes "
                    "with allow_pickle=False (unpickling socket bytes "
                    "executes arbitrary code)"
                )
            import pickle

            return pickle.loads(value["data"])
    return value


def _schema_descriptor(schema: StreamSchema) -> dict[str, str]:
    desc = _SCHEMA_DESCRIPTORS.get(id(schema))
    if desc is None:
        desc = {name: ftype.value for name, ftype in schema.fields.items()}
        _SCHEMA_DESCRIPTORS[id(schema)] = desc
    return desc


def to_wire(tup: StreamTuple) -> dict[str, Any]:
    """Encode ``tup`` as a transport-friendly plain dict.

    The schema travels by registered *name* (interned on arrival) plus
    its field descriptor, so a receiver whose registry does not know
    the name (a remote host with a different import order) registers it
    lazily instead of raising :class:`UnknownSchemaError`.  The ``seq``
    id is preserved exactly, and payload values are encoded via
    :func:`_encode_value` — arrays/scalars pass through, ``to_dict``
    -capable objects (e.g. :class:`~repro.core.eigensystem.Eigensystem`)
    use their documented dict form, and anything else falls back to a
    counted pickle, which :func:`from_wire` refuses.
    """
    _WIRE_STATS["tuples"] += 1
    name = schema_name(tup.schema)
    msg = {
        "kind": tup.kind.value,
        "seq": tup.seq,
        "schema": name,
        "event_ts": tup.event_ts,
        "payload": {k: _encode_value(v) for k, v in tup.payload.items()},
    }
    if name is not None:
        msg["schema_fields"] = _schema_descriptor(tup.schema)
    return msg


def from_wire(msg: Mapping[str, Any]) -> StreamTuple:
    """Rebuild the :class:`StreamTuple` encoded by :func:`to_wire`.

    Payloads were validated at origin, so reconstruction skips
    re-validation (the frozen dataclass is built schema-less, then the
    interned schema and original ``seq`` are restored in place).

    A message naming a schema this process has not registered raises
    :class:`UnknownSchemaError` (counted in
    ``wire_stats()["unknown_schema"]``) unless it carries a
    ``schema_fields`` descriptor, in which case the schema is built and
    registered on the spot (counted in ``schemas_registered``).
    Pickle-fallback payload values are refused with
    :class:`WireDecodeError`: tuples arrive over sockets, where pickled
    bytes are untrusted.
    """
    payload = {
        k: _decode_value(v, allow_pickle=False)
        for k, v in msg["payload"].items()
    }
    tup = StreamTuple(payload=payload, kind=TupleKind(msg["kind"]))
    name = msg.get("schema")
    if name is not None:
        schema = _SCHEMA_REGISTRY.get(name)
        if schema is None:
            fields = msg.get("schema_fields")
            if fields:
                schema = register_schema(
                    name,
                    StreamSchema(
                        {k: FieldType(v) for k, v in fields.items()}
                    ),
                )
                _WIRE_STATS["schemas_registered"] += 1
            else:
                _WIRE_STATS["unknown_schema"] += 1
                raise UnknownSchemaError(
                    f"wire message names schema {name!r}, which this "
                    f"process has not registered, and carries no "
                    f"schema_fields descriptor"
                )
        object.__setattr__(tup, "schema", schema)
    object.__setattr__(tup, "seq", int(msg["seq"]))
    event_ts = msg.get("event_ts")
    if event_ts is not None:
        object.__setattr__(tup, "event_ts", float(event_ts))
    return tup


def stamp_event_time(tup: StreamTuple, ts: float) -> StreamTuple:
    """Stamp ``event_ts`` on a frozen tuple in place (returns it).

    Engines call this at source emission — the single point where wall
    clock becomes event time.  ``time.time()`` (not ``perf_counter``) is
    the clock on purpose: it is comparable across processes, which the
    remote runtimes rely on.  Tuples already stamped are left
    untouched so replayed/restored tuples keep their original lineage.

    **Wall-clock contract.**  ``event_ts`` is epoch seconds from the
    *stamping host's* clock.  Consumers on the same machine may subtract
    it from their own ``time.time()`` directly (the e2e-latency
    histograms and watermark gauges do).  Across machines — the cluster
    runtime ships stamped tuples over TCP — that difference additionally
    absorbs the clock offset between the two hosts; hosts are expected
    to be NTP-disciplined, and the telemetry layer reports the observed
    signed offset as the ``repro_clock_skew_seconds`` gauge (see
    :class:`~repro.streams.telemetry.WatermarkTracker`) instead of
    silently clamping it away, warning once when it exceeds the
    threshold.  Latency/lag readings are only trustworthy up to that
    reported skew.
    """
    if tup.event_ts is None:
        object.__setattr__(tup, "event_ts", float(ts))
    return tup


def inherit_event_time(
    derived: StreamTuple, source: StreamTuple
) -> StreamTuple:
    """Propagate event-time lineage from ``source`` onto ``derived``.

    Used by operators producing derived tuples (unbatched rows,
    diagnostics) so the low watermark survives transformation.  Keeps
    the *older* timestamp when both carry one — a derived tuple can
    never be fresher than its inputs.
    """
    src_ts = source.event_ts
    if src_ts is None:
        return derived
    if derived.event_ts is None or src_ts < derived.event_ts:
        object.__setattr__(derived, "event_ts", src_ts)
    return derived
