"""Minimal versioned config format for the shipped traced data.

Syntax: `key = value` lines grouped under `[section]` headers, `#` comments,
and a required top-level `version` key.  Values are kept as raw strings;
callers parse them with the exact-scalar grammar where needed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .exactnum import VecE, parse_scalar


class ConfigError(ValueError):
    """The config text is malformed or has the wrong version."""


@dataclass(frozen=True)
class Config:
    version: int
    sections: dict

    def section(self, name: str) -> dict:
        try:
            return self.sections[name]
        except KeyError:
            raise ConfigError(f"missing section [{name}]") from None

    def get(self, section: str, key: str) -> str:
        sec = self.section(section)
        try:
            return sec[key]
        except KeyError:
            raise ConfigError(f"missing key {key!r} in [{section}]") from None


def parse_config(text: str) -> Config:
    sections: dict = {}
    current: dict = {}
    sections[""] = current
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            current = {}
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
    top = sections[""]
    if "version" not in top:
        raise ConfigError("missing top-level version key")
    try:
        version = int(top["version"])
    except ValueError:
        raise ConfigError(f"version is not an integer: {top['version']!r}")
    if version != 1:
        raise ConfigError(f"unsupported config version {version}, "
                          "expected 1")
    return Config(version, sections)


def value_vector(text: str) -> VecE:
    """Parse an `x, y` pair of exact scalars."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated scalars: {text!r}")
    try:
        return VecE(parse_scalar(parts[0].strip()),
                    parse_scalar(parts[1].strip()))
    except ValueError as exc:
        raise ConfigError(f"bad scalar in vector {text!r}: {exc}") from None


def value_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer: {text!r}") from None


def value_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("yes", "true", "1"):
        return True
    if lowered in ("no", "false", "0"):
        return False
    raise ConfigError(f"expected yes/no: {text!r}")


def value_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ConfigError(f"expected whitespace-separated integers: {text!r}")


def data_dir(override: str | None = None) -> Path:
    """Resolve the config data directory.

    Priority: explicit argument, then the HATFAM_DATA_DIR environment
    variable, then the data directory shipped with the package.
    """
    if override is not None:
        return Path(override)
    env = os.environ.get("HATFAM_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).with_name("data")


def load_text(name: str, override: str | None = None) -> str:
    path = data_dir(override) / name
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
