"""Flat key=value config files with typed parsing and unknown-key rejection.

Lines are `key = value`; blank lines and `#` comments are ignored. Lists
are comma-separated. Every command has a fixed schema; keys outside it
are errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import fields

from ..fieldgen import FieldConfig
from ..pipeline import TrainConfig


class ConfigError(ValueError):
    """Bad config file: syntax, unknown key, missing key or bad value."""


_REQUIRED = object()


def _parse_float_list(text: str) -> list[float]:
    return [float(part.strip()) for part in text.split(",") if part.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(part.strip()) for part in text.split(",") if part.strip()]


FIELD_KEYS = {
    "height": (int, 32),
    "width": (int, 32),
    "channels": (int, 3),
    "length_scale": (float, 4.0),
    "gain": (float, 2.0),
    "target_rate": (float, _REQUIRED),
    "obs_noise": (float, 0.5),
    "seed": (int, 0),
}

TRAIN_KEYS = {
    "lr": (float, 1e-4),
    "max_epochs": (int, 50),
    "patience": (int, 15),
    "min_delta": (float, 0.0),
    "batch_size": (int, 16),
    "bins": (int, 20),
    "lambda": (float, 0.5),
    "folds": (int, 9),
    "cape_epochs": (int, 50),
    "cape_epochs_override": (int, None),
    "hidden_channels": (int, 8),
    "seed": (int, 0),
}

GENERATE_SCHEMA = {**FIELD_KEYS, "n_samples": (int, _REQUIRED)}

TRAIN_SCHEMA = dict(TRAIN_KEYS)

# Default grid: the event-rate regimes under study and three dataset sizes.
DEFAULT_SWEEP_RATES = [0.011, 0.032, 0.07, 0.14, 0.30, 0.46]
DEFAULT_SWEEP_SIZES = [200, 600, 1500]

SWEEP_SCHEMA = {
    **{k: v for k, v in FIELD_KEYS.items() if k != "target_rate"},
    **TRAIN_KEYS,
    "rates": (_parse_float_list, DEFAULT_SWEEP_RATES),
    "sizes": (_parse_int_list, DEFAULT_SWEEP_SIZES),
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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return coerce(parse_kv_text(text, source=path), schema, source=path)


def field_config_from(cfg: dict) -> FieldConfig:
    names = {f.name for f in fields(FieldConfig)}
    try:
        return FieldConfig(**{k: v for k, v in cfg.items() if k in names})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def train_config_from(cfg: dict) -> TrainConfig:
    names = {f.name for f in fields(TrainConfig)}
    kwargs = {k: v for k, v in cfg.items() if k in names}
    if "lambda" in cfg:
        kwargs["cal_weight"] = cfg["lambda"]
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
