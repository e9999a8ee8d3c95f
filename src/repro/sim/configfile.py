"""Load/save GPU configurations as Accel-Sim-style config files.

The format is flat ``key = value`` lines with ``#`` comments; nested
components use dotted keys (``l1.size_bytes``, ``dram.controller``,
``noc.topology``).  Unknown keys are rejected so typos can't silently
fall back to defaults — the failure mode that plagues simulator
configs.

Example::

    # rtx3070-ish, but fifo memory controller
    num_sms = 78
    l1.size_bytes = 131072
    dram.controller = fifo
    noc.topology = mesh
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

from repro.sim.config import (
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    NoCConfig,
    PCIConfig,
)

#: dotted prefix -> (GPUConfig field, component dataclass)
_COMPONENTS = {
    "l1": ("l1", CacheConfig),
    "l2": ("l2", CacheConfig),
    "const_cache": ("const_cache", CacheConfig),
    "tex_cache": ("tex_cache", CacheConfig),
    "dram": ("dram", DRAMConfig),
    "noc": ("noc", NoCConfig),
    "pci": ("pci", PCIConfig),
}


def _parse_value(key: str, field: dataclasses.Field, raw: str):
    if field.type in ("bool", bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if field.type in ("float", float):
            return float(raw)
        if field.type in ("int", int):
            return int(raw, 0)
    except ValueError:
        kind = "a number" if field.type in ("float", float) else "an integer"
        raise ValueError(f"{key}: expected {kind}, got {raw!r}") from None
    return raw  # strings (controller/topology/scheduler names)


@functools.cache
def _field_map(cls) -> dict:
    return {f.name: f for f in dataclasses.fields(cls)}


def _field_for(key) -> dataclasses.Field:
    """The dataclass field a (possibly dotted) config key names."""
    if not isinstance(key, str):
        raise ValueError(f"config keys must be strings, got {key!r}")
    if "." in key:
        prefix, _, sub = key.partition(".")
        if prefix not in _COMPONENTS:
            raise ValueError(f"unknown component {prefix!r}")
        fields = _field_map(_COMPONENTS[prefix][1])
        if sub not in fields:
            raise ValueError(f"unknown key {sub!r} for {prefix}")
        return fields[sub]
    fields = _field_map(GPUConfig)
    if key not in fields or key in _COMPONENTS:
        raise ValueError(f"unknown key {key!r}")
    return fields[key]


def parse_entries(text: str) -> list[tuple[int, str, object]]:
    """``(line number, key, typed value)`` per assignment in ``text``.

    Malformed lines, unknown keys and badly typed values raise
    ``ValueError`` naming the line (and the key).
    """
    entries = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, raw = line.partition("=")
        key = key.strip()
        try:
            if not equals:
                raise ValueError("expected 'key = value'")
            entries.append(
                (lineno, key, _parse_value(key, _field_for(key), raw.strip()))
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return entries


def config_from_entries(entries) -> GPUConfig:
    """The baseline with :func:`parse_entries` output applied.

    A value the config validators reject is blamed on its line and
    key.  Some values are invalid only in combination (a cache smaller
    than its line), so the blame falls on the first line at which the
    file stops describing a valid machine.
    """
    overrides = {key: value for _, key, value in entries}
    try:
        return apply_overrides(GPUConfig(), overrides)
    except ValueError:
        pass
    prefix: dict = {}
    for lineno, key, value in entries:
        prefix[key] = value
        try:
            apply_overrides(GPUConfig(), prefix)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return apply_overrides(GPUConfig(), overrides)


def parse_config(text: str) -> GPUConfig:
    """Build a :class:`GPUConfig` from config-file text."""
    return config_from_entries(parse_entries(text))


def apply_overrides(config: GPUConfig, overrides: dict) -> GPUConfig:
    """``config`` with dotted-key ``overrides`` applied and validated.

    The mapping uses the file format's key space (``num_sms``,
    ``l1.size_bytes``, ``dram.controller``...) with already-typed
    values — the service layer's request schemas resolve their
    ``config`` objects through here so an HTTP client and a config
    file reject exactly the same typos.  Raises ``ValueError`` for
    unknown keys, wrong value types, and (via the dataclass
    ``__post_init__`` validators) out-of-range values.
    """
    top: dict = {}
    nested: dict[str, dict] = {}
    for key, value in overrides.items():
        value = _check_type(_field_for(key), value)
        if "." in key:
            prefix, _, sub = key.partition(".")
            nested.setdefault(prefix, {})[sub] = value
        else:
            top[key] = value
    for prefix, changes in nested.items():
        field_name, _ = _COMPONENTS[prefix]
        top[field_name] = dataclasses.replace(
            getattr(config, field_name), **changes
        )
    return config.with_(**top) if top else config


def _check_type(field: dataclasses.Field, value):
    """Validate an already-typed override value against its field."""
    if field.type in ("bool", bool):
        if not isinstance(value, bool):
            raise ValueError(f"{field.name} expects a boolean, got {value!r}")
        return value
    if field.type in ("float", float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{field.name} expects a number, got {value!r}")
        return float(value)
    if field.type in ("int", int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field.name} expects an integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ValueError(f"{field.name} expects a string, got {value!r}")
    return value


def load_config(path: str | Path) -> GPUConfig:
    """Read a config file from disk."""
    return parse_config(Path(path).read_text())


def save_config(config: GPUConfig, path: str | Path | None = None) -> str:
    """Serialize a config to the file format (full, explicit)."""
    lines = ["# Genomics-GPU simulator configuration"]
    for field in dataclasses.fields(GPUConfig):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            for sub in dataclasses.fields(value):
                lines.append(
                    f"{field.name}.{sub.name} = {getattr(value, sub.name)}"
                )
        else:
            lines.append(f"{field.name} = {value}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
