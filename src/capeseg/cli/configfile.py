"""Flat key=value config files with typed parsing and unknown-key rejection.

Lines are `key = value`; blank lines and `#` comments are ignored. Lists
are comma-separated. Every command has a fixed schema; keys outside it
are errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import re
from dataclasses import fields
from typing import get_type_hints

from ..fieldgen import FieldConfig
from ..pipeline import TrainConfig
from .storage import finite_float


class ConfigError(ValueError):
    """Bad config file: syntax, unknown key, missing key or bad value."""


_REQUIRED = object()


def _list_of(cast):
    return lambda text: [cast(part) for part in text.split(",") if part.strip()]


# Caster per field annotation.
_CASTERS = {int: int, float: finite_float}

# Config-file spelling of the fields whose key is not their name.
_SPELLING = {"cal_weight": "lambda", "cape_epochs": "cape_epochs_override"}


def _key(name: str) -> str:
    return _SPELLING.get(name, name)


def _keys(config_class) -> dict:
    """{key: (caster, default)} for each field of a config dataclass."""
    hints = get_type_hints(config_class)
    return {_key(f.name): (_CASTERS[hints[f.name]], f.default) for f in fields(config_class)}


FIELD_KEYS = _keys(FieldConfig)
TRAIN_KEYS = _keys(TrainConfig)

GENERATE_SCHEMA = {
    **FIELD_KEYS,
    "target_rate": (finite_float, _REQUIRED),
    "n_samples": (int, _REQUIRED),
}

# Default grid: the event-rate regimes under study and three dataset sizes.
DEFAULT_SWEEP_RATES = [0.011, 0.032, 0.07, 0.14, 0.30, 0.46]
DEFAULT_SWEEP_SIZES = [200, 600, 1500]

SWEEP_SCHEMA = {
    **{k: v for k, v in FIELD_KEYS.items() if k != "target_rate"},
    **TRAIN_KEYS,
    "rates": (_list_of(finite_float), DEFAULT_SWEEP_RATES),
    "sizes": (_list_of(int), DEFAULT_SWEEP_SIZES),
}


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def coerce(raw: dict[str, str], schema: dict, source: str = "<config>") -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{source}: unknown config key(s): {', '.join(unknown)}")
    result = {}
    for key, (caster, default) in schema.items():
        if key in raw:
            try:
                result[key] = caster(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            result[key] = default
    return result


def load_config(path: str, schema: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return coerce(parse_kv_text(text, source=path), schema, source=path)


def build(config_class, cfg: dict):
    """A `config_class` (FieldConfig or TrainConfig) from the keys of `cfg` that name its fields."""
    names = [f.name for f in fields(config_class)]
    try:
        return config_class(**{n: cfg[_key(n)] for n in names if _key(n) in cfg})
    except ValueError as exc:  # the dataclass names its fields; the file knows their keys
        raise ConfigError(re.sub(r"\w+", lambda word: _key(word[0]), str(exc))) from exc
