"""Run configuration: published JSON schema, validation, and hashing.

A run config is a single JSON document. Every key is optional except
where a command states otherwise; unknown keys are rejected at any
nesting level so typos fail loudly. The fully resolved config (defaults
plus file plus flag overrides) is hashed with SHA-256 over its canonical
JSON form, and that hash is embedded in every output file.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from .errors import ConfigError
from .seeding import SeedSpec

# spectral imports numpy, which reading and hashing a config does not need
if TYPE_CHECKING:
    from .spectral import EnsembleModel, LineCombo


@dataclass(frozen=True)
class _Field:
    kind: str  # number | integer | boolean | string | number_array | string_array
    default: Any
    nullable: bool = False

    def default_value(self) -> Any:
        """The default, as a copy if it is a list, so that no caller can
        change the schema."""
        return list(self.default) if isinstance(self.default, list) else self.default


_SCHEMA: dict[str, Any] = {
    "ensemble": {
        "center": {
            "kind": _Field("string", "uniform"),
            "half_width_ghz": _Field("number", 10.0),
            "sigma_ghz": _Field("number", 5.0),
        },
        "zfs_mean_ghz": _Field("number", 1.027),
        "zfs_sigma_ghz": _Field("number", 0.075),
        "fwhm_mean_mhz": _Field("number", 316.0),
        "fwhm_sigma_mhz": _Field("number", 122.0),
        "lifetime_ns": _Field("number", 5.5),
    },
    "seed": _Field("integer", None, nullable=True),
    "stream_index": _Field("integer", 0),
    # null: half to five lifetime-limited linewidths, derived at run time
    "windows_mhz": _Field("number_array", None, nullable=True),
    "output_dir": _Field("string", None, nullable=True),
    "combos": _Field("string_array", ["a1a1", "a2a2", "a1a2", "a2a1"]),
    "sample": {
        "n_emitters": _Field("integer", 50),
    },
    "overlap": {
        "bootstrap_resamples": _Field("integer", 1000),
    },
    "birthday": {
        "q": _Field("number", None, nullable=True),
        "target": _Field("number", 0.5),
        "monte_carlo": _Field("boolean", False),
        "trials": _Field("integer", 20000),
        "window_mhz": _Field("number", None, nullable=True),
    },
    "fit_ple": {
        "n_peaks": _Field("integer", 2),
        "classify": _Field("boolean", False),
        "n_sigma": _Field("number", 3.0),
    },
    "protocol": {
        "n_qubits": _Field("integer", 4),
        "eta": _Field("number", 0.85),
        "eta_sweep": _Field("number_array", [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0]),
    },
    "spatial": {
        "density_per_um3": _Field("number", 0.43),
        "lateral_fwhm_um": _Field("number", None, nullable=True),
        "axial_fwhm_um": _Field("number", 1.22),
        "box_um": _Field("number_array", [20.0, 20.0, 10.0]),
        "trials": _Field("integer", 100000),
        "chain_length": _Field("integer", None, nullable=True),
        "chain_window_mhz": _Field("number", None, nullable=True),
    },
}


def _check_leaf(field: _Field, value: Any, path: str) -> Any:
    if value is None:
        if field.nullable:
            return None
        raise ConfigError(f"{path}: null is not allowed")
    if field.kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the range of a double
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if field.kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if field.kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return bool(value)
    if field.kind == "string":
        # a NUL cannot be part of a path (output_dir) or a name
        if not isinstance(value, str) or "\0" in value:
            raise ConfigError(f"{path}: expected a string without NUL, got {value!r}")
        return value
    if field.kind == "number_array":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array of numbers, got {value!r}")
        number = _Field("number", None)
        return [_check_leaf(number, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if field.kind == "string_array":
        # combos, the only string array, names a set that must not be empty
        if not value or not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            raise ConfigError(f"{path}: expected a non-empty array of strings, got {value!r}")
        return list(value)
    raise AssertionError(f"unknown schema kind {field.kind}")


def _resolve(data: Mapping[str, Any], schema: Mapping[str, Any], path: str = "") -> dict[str, Any]:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path or 'config'}: expected an object, got {data!r}")
    unknown = set(data) - set(schema)
    if unknown:
        where = path or "config"
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    out: dict[str, Any] = {}
    for key, spec in schema.items():
        child_path = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _resolve(data.get(key, {}), spec, child_path)
        elif key in data:
            out[key] = _check_leaf(spec, data[key], child_path)
        else:
            out[key] = spec.default_value()
    return out


def schema_description() -> dict[str, Any]:
    """Published schema as a JSON-serializable description."""

    def describe(schema: Mapping[str, Any]) -> dict[str, Any]:
        out = {}
        for key, spec in schema.items():
            if isinstance(spec, dict):
                out[key] = describe(spec)
            else:
                out[key] = {
                    "type": spec.kind,
                    "default": spec.default_value(),
                    "nullable": spec.nullable,
                }
        return out

    return describe(_SCHEMA)


@dataclass(frozen=True)
class RunConfig:
    """A validated, fully resolved run configuration."""

    data: dict[str, Any]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "RunConfig":
        return cls(data=_resolve(mapping, _SCHEMA))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        # a JSONDecodeError, an integer beyond int's digit limit, or nesting too deep
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_mapping(raw)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "RunConfig":
        """Deep-merge a sparse override mapping (used for CLI flags)."""

        def merge(base: dict[str, Any], extra: Mapping[str, Any]) -> dict[str, Any]:
            out = dict(base)
            for key, value in extra.items():
                if isinstance(value, Mapping) and isinstance(out.get(key), dict):
                    out[key] = merge(out[key], value)
                else:
                    out[key] = value
            return out

        return RunConfig.from_mapping(merge(self.data, overrides))

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def seed_spec(self, fallback: int = 0) -> SeedSpec:
        seed = self.data["seed"]
        return SeedSpec(
            seed=int(seed) if seed is not None else int(fallback),
            stream_index=int(self.data["stream_index"]),
        )

    def ensemble_model(self) -> EnsembleModel:
        from .spectral import EnsembleModel, NormalCenters, UniformCenters

        ens = self.data["ensemble"]
        kind = ens["center"]["kind"]
        if kind == "uniform":
            centers = UniformCenters(half_width_ghz=ens["center"]["half_width_ghz"])
        elif kind == "normal":
            centers = NormalCenters(sigma_ghz=ens["center"]["sigma_ghz"])
        else:
            raise ConfigError(f"ensemble.center.kind must be 'uniform' or 'normal', got {kind!r}")
        return EnsembleModel(
            centers=centers,
            zfs_mean_ghz=ens["zfs_mean_ghz"],
            zfs_sigma_ghz=ens["zfs_sigma_ghz"],
            fwhm_mean_mhz=ens["fwhm_mean_mhz"],
            fwhm_sigma_mhz=ens["fwhm_sigma_mhz"],
            lifetime_ns=ens["lifetime_ns"],
        )

    def combos(self) -> frozenset[LineCombo]:
        from .spectral import LineCombo

        return frozenset(LineCombo.parse(name) for name in self.data["combos"])
