"""Typed, versioned request/response schemas for the service API.

Every endpoint body is validated into a frozen dataclass before any
work is scheduled; malformed payloads raise :class:`SchemaError` with
the offending field's name, which the HTTP layer maps to a 400.  The
schemas are deliberately plain data (strings, numbers, dicts) so a
request round-trips ``to_dict -> json -> from_dict`` unchanged —
``tests/service/test_schemas.py`` locks that property.

``SCHEMA_VERSION`` stamps every response envelope.  Additive changes
(new optional fields) keep the version; renames/removals bump it so
clients can detect incompatibility instead of silently misparsing.

Config overrides travel as a flat dotted-key mapping in the config
file's key space (``{"num_sms": 8, "dram.controller": "fifo"}``) and
are resolved through :func:`repro.sim.configfile.apply_overrides`, so
the HTTP API rejects exactly the typos the file format rejects.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any

from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names
from repro.sim.config import GPUConfig
from repro.sim.configfile import apply_overrides

#: Version of the wire format; stamped on every response envelope.
SCHEMA_VERSION = 1

#: Telemetry artifact kinds a profile job can export.
PROFILE_ARTIFACTS = ("jsonl", "chrome_trace")

_SIZES = tuple(size.value for size in DatasetSize)


class SchemaError(ValueError):
    """A request payload failed validation.

    ``field`` names the offending key (dotted for nested config keys)
    so clients can surface the error next to the right input.
    """

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(
            f"{field_name}: {message}" if field_name else message
        )


# -- field validators -------------------------------------------------------


def _require(payload: dict, name: str):
    if name not in payload:
        raise SchemaError(name, "required field is missing")
    return payload[name]


def _str(name: str, value) -> str:
    if not isinstance(value, str):
        raise SchemaError(name, f"expected a string, got {value!r}")
    return value


def _bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(name, f"expected a boolean, got {value!r}")
    return value


def _int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(name, f"expected an integer, got {value!r}")
    return value


def _float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(name, f"expected a number, got {value!r}")
    return float(value)


def _benchmark(name: str, value) -> str:
    value = _str(name, value)
    if value not in benchmark_names():
        raise SchemaError(
            name,
            f"unknown benchmark {value!r}; choose from {benchmark_names()}",
        )
    return value


def _size(name: str, value) -> str:
    value = _str(name, value)
    if value not in _SIZES:
        raise SchemaError(name, f"unknown size {value!r}; one of {_SIZES}")
    return value


def _config_overrides(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(name, f"expected an object, got {value!r}")
    try:
        apply_overrides(GPUConfig(), value)
    except ValueError as exc:
        raise SchemaError(name, str(exc)) from exc
    return dict(value)


def _exact_config(name: str, value) -> dict:
    """Config overrides for an exact run: sampling is another endpoint."""
    overrides = _config_overrides(name, value)
    if overrides.get("sample_fraction"):
        raise SchemaError(
            name,
            "sample_fraction requests sampled estimation; "
            "POST /v1/estimate instead",
        )
    return overrides


def _timeout(name: str, value) -> float | None:
    if value is None:
        return None
    value = _float(name, value)
    if value <= 0:
        raise SchemaError(name, "timeout must be positive")
    return value


def _reject_unknown(cls, payload: dict) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SchemaError(
            unknown[0], f"unknown field for {cls.KIND!r} requests"
        )


# -- request schemas --------------------------------------------------------


@dataclass(frozen=True)
class SimulateRequest:
    """``POST /v1/simulate``: one exact cycle-accurate run."""

    KIND = "simulate"

    benchmark: str
    cdp: bool = False
    size: str = DatasetSize.SMALL.value
    config: dict = field(default_factory=dict)
    priority: int = 0
    timeout_s: float | None = None
    use_cache: bool = True

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulateRequest":
        _reject_unknown(cls, payload)
        return cls(
            benchmark=_benchmark("benchmark", _require(payload, "benchmark")),
            cdp=_bool("cdp", payload.get("cdp", False)),
            size=_size("size", payload.get("size", DatasetSize.SMALL.value)),
            config=_exact_config("config", payload.get("config", {})),
            priority=_int("priority", payload.get("priority", 0)),
            timeout_s=_timeout("timeout_s", payload.get("timeout_s")),
            use_cache=_bool("use_cache", payload.get("use_cache", True)),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved_config(self) -> GPUConfig:
        return apply_overrides(GPUConfig(), self.config)

    def identity(self) -> dict:
        """The result-defining fields (cache-key material).

        Scheduling knobs (priority, timeout, cache opt-out) are
        excluded: they change *when* a result arrives, never its bytes.
        """
        return {
            "benchmark": self.benchmark,
            "cdp": self.cdp,
            "size": self.size,
        }


@dataclass(frozen=True)
class EstimateRequest:
    """``POST /v1/estimate``: warp-sampled estimation with CIs."""

    KIND = "estimate"

    benchmark: str
    cdp: bool = False
    size: str = DatasetSize.SMALL.value
    config: dict = field(default_factory=dict)
    sample_fraction: float = 0.1
    sample_seed: int = 0
    priority: int = 0
    timeout_s: float | None = None
    use_cache: bool = True

    @classmethod
    def from_dict(cls, payload: dict) -> "EstimateRequest":
        _reject_unknown(cls, payload)
        fraction = _float(
            "sample_fraction", payload.get("sample_fraction", 0.1)
        )
        if not 0.0 < fraction <= 1.0:
            raise SchemaError("sample_fraction", "must be in (0, 1]")
        return cls(
            benchmark=_benchmark("benchmark", _require(payload, "benchmark")),
            cdp=_bool("cdp", payload.get("cdp", False)),
            size=_size("size", payload.get("size", DatasetSize.SMALL.value)),
            config=_config_overrides("config", payload.get("config", {})),
            sample_fraction=fraction,
            sample_seed=_int("sample_seed", payload.get("sample_seed", 0)),
            priority=_int("priority", payload.get("priority", 0)),
            timeout_s=_timeout("timeout_s", payload.get("timeout_s")),
            use_cache=_bool("use_cache", payload.get("use_cache", True)),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved_config(self) -> GPUConfig:
        # The sample knobs are GPUConfig fields, so the resolved config
        # (not just the overrides) is the complete cache-key material.
        return apply_overrides(GPUConfig(), self.config).with_(
            sample_fraction=self.sample_fraction,
            sample_seed=self.sample_seed,
        )

    def identity(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "cdp": self.cdp,
            "size": self.size,
        }


def _points(name: str, value) -> tuple:
    """Validate and canonicalize explicit sweep points.

    Each element must round-trip through the HTTP point codec
    (:func:`repro.core.sweep.decode_point`); the stored form is the canonical
    re-encoding, so the ``key`` fields are always present and correct.
    """
    if not isinstance(value, (list, tuple)):
        raise SchemaError(name, f"expected a list, got {value!r}")
    from repro.core.sweep import decode_point, encode_point

    canonical = []
    for index, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise SchemaError(
                f"{name}[{index}]", f"expected an object, got {entry!r}"
            )
        try:
            canonical.append(encode_point(decode_point(entry)))
        except ValueError as exc:
            raise SchemaError(f"{name}[{index}]", str(exc)) from exc
    labels = [entry["label"] for entry in canonical]
    if len(set(labels)) != len(labels):
        raise SchemaError(name, "point labels must be unique")
    return tuple(canonical)


@dataclass(frozen=True)
class SweepRequest:
    """``POST /v1/sweep``: the suite (or a subset) at one config.

    Alternatively, ``points`` carries an explicit list of wire-encoded
    sweep points (each its own full config) — the mode the distributed
    coordinator's :class:`~repro.dist.launchers.ServiceLauncher` uses
    to run one chunk per request.  The two modes are mutually
    exclusive: with ``points``, the grid fields
    (``benchmarks``/``cdp_variants``/``size``/``config``) must stay at
    their defaults.
    """

    KIND = "sweep"

    benchmarks: tuple = ()  # empty = the whole suite
    cdp_variants: bool = True
    size: str = DatasetSize.SMALL.value
    config: dict = field(default_factory=dict)
    points: tuple = ()  # wire-encoded explicit points (sweep chunks)
    priority: int = 0
    timeout_s: float | None = None
    use_cache: bool = True

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepRequest":
        _reject_unknown(cls, payload)
        raw = payload.get("benchmarks", [])
        if not isinstance(raw, (list, tuple)):
            raise SchemaError("benchmarks", f"expected a list, got {raw!r}")
        points = _points("points", payload.get("points", []))
        if points and (
            raw
            or payload.get("config")
            or "cdp_variants" in payload
            or "size" in payload
        ):
            raise SchemaError(
                "points",
                "explicit points carry their own configs; do not combine "
                "with benchmarks/cdp_variants/size/config",
            )
        return cls(
            benchmarks=tuple(
                _benchmark("benchmarks", abbr) for abbr in raw
            ),
            cdp_variants=_bool(
                "cdp_variants", payload.get("cdp_variants", True)
            ),
            size=_size("size", payload.get("size", DatasetSize.SMALL.value)),
            config=_config_overrides("config", payload.get("config", {})),
            points=points,
            priority=_int("priority", payload.get("priority", 0)),
            timeout_s=_timeout("timeout_s", payload.get("timeout_s")),
            use_cache=_bool("use_cache", payload.get("use_cache", True)),
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["benchmarks"] = list(self.benchmarks)
        data["points"] = [dict(entry) for entry in self.points]
        return data

    def resolved_config(self) -> GPUConfig:
        return apply_overrides(GPUConfig(), self.config)

    def identity(self) -> dict:
        if self.points:
            # Point keys already hash each point's full config, so they
            # are the complete cache-key material for this mode.
            return {"points": [entry["key"] for entry in self.points]}
        return {
            "benchmarks": list(self.benchmarks),
            "cdp_variants": self.cdp_variants,
            "size": self.size,
        }


@dataclass(frozen=True)
class ProfileRequest:
    """``POST /v1/profile``: a telemetry run with downloadable exports.

    Never cached: the job's value is its per-job artifact files
    (JSONL / Chrome trace), which live in the job's artifact dir.
    """

    KIND = "profile"

    benchmark: str
    cdp: bool = False
    size: str = DatasetSize.SMALL.value
    config: dict = field(default_factory=dict)
    interval: int = 10_000
    artifacts: tuple = PROFILE_ARTIFACTS
    priority: int = 0
    timeout_s: float | None = None

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileRequest":
        _reject_unknown(cls, payload)
        interval = _int("interval", payload.get("interval", 10_000))
        if interval <= 0:
            raise SchemaError("interval", "must be a positive cycle count")
        raw = payload.get("artifacts", list(PROFILE_ARTIFACTS))
        if not isinstance(raw, (list, tuple)):
            raise SchemaError("artifacts", f"expected a list, got {raw!r}")
        for kind in raw:
            if kind not in PROFILE_ARTIFACTS:
                raise SchemaError(
                    "artifacts",
                    f"unknown artifact {kind!r}; one of {PROFILE_ARTIFACTS}",
                )
        return cls(
            benchmark=_benchmark("benchmark", _require(payload, "benchmark")),
            cdp=_bool("cdp", payload.get("cdp", False)),
            size=_size("size", payload.get("size", DatasetSize.SMALL.value)),
            config=_exact_config("config", payload.get("config", {})),
            interval=interval,
            artifacts=tuple(raw),
            priority=_int("priority", payload.get("priority", 0)),
            timeout_s=_timeout("timeout_s", payload.get("timeout_s")),
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["artifacts"] = list(self.artifacts)
        return data

    def resolved_config(self) -> GPUConfig:
        return apply_overrides(GPUConfig(), self.config).with_(
            telemetry_interval=self.interval
        )


#: endpoint kind -> request schema
REQUEST_TYPES = {
    cls.KIND: cls
    for cls in (SimulateRequest, EstimateRequest, SweepRequest,
                ProfileRequest)
}


def parse_request(kind: str, payload: Any):
    """Validate ``payload`` into the request dataclass for ``kind``."""
    if kind not in REQUEST_TYPES:
        raise SchemaError(
            "", f"unknown request kind {kind!r}; one of {sorted(REQUEST_TYPES)}"
        )
    if not isinstance(payload, dict):
        raise SchemaError("", f"request body must be an object, got {payload!r}")
    return REQUEST_TYPES[kind].from_dict(payload)


# -- response schemas -------------------------------------------------------


@dataclass(frozen=True)
class JobView:
    """The wire representation of a job's state.

    ``progress`` is populated while the job runs (when its executor
    reports any): sweep jobs count completed points, telemetry runs
    count simulated interval rows — both carry ``percent`` when a
    total is known.  Additive optional field; same schema version.
    """

    id: str
    kind: str
    state: str
    priority: int
    cached: bool
    coalesced: bool
    request_id: str | None
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    timings: dict
    error: str | None
    artifacts: tuple
    progress: dict | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, payload: dict) -> "JobView":
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                "schema_version",
                f"server speaks version {version}, client {SCHEMA_VERSION}",
            )
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k in known}
        data["artifacts"] = tuple(data.get("artifacts", ()))
        return cls(**data)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["artifacts"] = list(self.artifacts)
        return data


def error_body(message: str, request_id: str | None = None,
               field_name: str | None = None) -> dict:
    """The uniform error envelope every non-2xx response carries."""
    body = {
        "schema_version": SCHEMA_VERSION,
        "error": message,
        "request_id": request_id,
    }
    if field_name:
        body["field"] = field_name
    return body
