"""Wire format of the distributed sweep engine.

Everything that crosses a host boundary is JSON: sweep points
serialize through the config *file* format
(:func:`repro.sim.configfile.save_config` round-trips every
``GPUConfig`` knob exactly), and results travel as
:meth:`repro.sim.stats.RunStats.to_dict` payloads, which
:func:`repro.sim.stats.stats_from_dict` rebuilds bit-identically (the
service layer's established contract).  A decoded point is a real
:class:`~repro.core.sweep.SweepPoint`, so workers run it through the
exact same :func:`~repro.core.sweep.run_point` path a local sweep
uses — bit-identity of distributed results is inherited, not
re-implemented.

Frames
------
The local worker protocol exchanges length-prefixed JSON frames
(``<u32 length><payload>``) over each forked worker's pipe pair.  A frame
boundary is also the failure boundary: a worker that dies mid-chunk
leaves a truncated stream, which the reader surfaces as ``None``
(EOF) so the launcher can declare the worker dead.
"""

from __future__ import annotations

import json
import struct

from repro.core.sweep import SweepPoint, _wire_value, point_key, sweep_point
from repro.data.datasets import DatasetSize
from repro.sim.configfile import parse_config, save_config
from repro.sim.stats import stats_from_dict

#: Bump on incompatible frame/point encoding changes; both ends of the
#: worker protocol verify it during the hello exchange.
WIRE_VERSION = 1

#: Upper bound on one frame (a chunk of stats payloads is well under
#: this; anything bigger is stream corruption, not data).
MAX_FRAME_BYTES = 1 << 30


def encode_point(point: SweepPoint) -> dict:
    """One sweep point as a JSON-safe dict (see :func:`decode_point`)."""
    return {
        "label": point.label,
        "abbr": point.abbr,
        "cdp": point.cdp,
        "size": point.size.value,
        "options": [
            [name, _wire_value(name, value)]
            for name, value in point.options
        ],
        "config": save_config(point.config),
        "key": point_key(point),
    }


def decode_point(data: dict) -> SweepPoint:
    """Rebuild a :class:`SweepPoint` from :func:`encode_point` output.

    Raises ``ValueError`` on malformed payloads — including a ``key``
    that does not match the decoded point, which catches any
    encode/decode asymmetry before it can corrupt a result merge.
    """
    try:
        point = sweep_point(
            str(data["label"]),
            str(data["abbr"]),
            parse_config(data["config"]),
            cdp=bool(data["cdp"]),
            size=DatasetSize(data["size"]),
            **{str(name): value for name, value in data.get("options", [])},
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sweep point payload: {exc}") from exc
    expected = data.get("key")
    if expected is not None and point_key(point) != expected:
        raise ValueError(
            f"point {point.label!r} decoded to a different identity "
            f"({point_key(point)} != {expected}); wire corruption or "
            "version skew"
        )
    return point


def decode_stats(data: dict):
    """A results payload back into a live ``RunStats``."""
    return stats_from_dict(data)


# -- frame IO ----------------------------------------------------------------


def write_frame(stream, payload: dict) -> None:
    """Write one length-prefixed JSON frame and flush."""
    raw = json.dumps(payload, sort_keys=True).encode()
    stream.write(struct.pack("<I", len(raw)) + raw)
    stream.flush()


def read_frame(stream) -> dict | None:
    """Read one frame; ``None`` on clean or mid-frame EOF (dead peer)."""
    header = _read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the wire limit")
    raw = _read_exact(stream, length)
    if raw is None:
        return None
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"frame must be an object, got {payload!r}")
    return payload


def _read_exact(stream, n: int) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
