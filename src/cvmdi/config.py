"""Run configuration: flat section/key=value text, strictly validated.

Precedence: built-in defaults < config file < CVMDI_<SECTION>_<KEY>
environment variables < --set section.key=value overrides.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .protocol import (
    MIN_ESTIMATION_SAMPLES,
    ChannelParams,
    DetectorParams,
    Scenario,
    effective_transmittance,
    equivalent_excess_noise,
)

ENV_PREFIX = "CVMDI_"

# the one table of keys: a key's type is its default's (float for a None default)
_DEFAULTS = {
    "scenario": {
        "v_a": 40.0, "v_b": 40.0,
        "l_ac_km": 0.0, "l_bc_km": 0.0,
        "attenuation_db_per_km": 0.2,
        "eps_a": 0.002, "eps_b": 0.002,
        "beta_r": 1.0,
        "eta_d": 1.0, "v_el": 0.0,
        "gain_mode": "optimal", "gain": None,
    },
    "sweep": {
        "l_min_km": 0.0, "l_max_km": 10.0, "points": 51,
        "l_bc_values_km": "0,1,3",
    },
    "mc": {"n": 100_000, "seed": 12345},
    "output": {"path": ""},
}


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration entry."""


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def scenario(self) -> Scenario:
        s = self.values["scenario"]
        channel_a = _build(ChannelParams, s, "l_ac_km", "attenuation_db_per_km", "eps_a")
        channel_b = _build(ChannelParams, s, "l_bc_km", "attenuation_db_per_km", "eps_b")
        detector = _build(DetectorParams, s, "eta_d", "v_el")
        try:
            return Scenario(
                v_a=s["v_a"], v_b=s["v_b"],
                channel_a=channel_a, channel_b=channel_b,
                beta_r=s["beta_r"], detector=detector,
                gain_mode=s["gain_mode"], gain=s["gain"],
            )
        except ValueError as exc:
            raise ConfigError(f"scenario: {exc}") from exc

    def l_bc_values(self) -> list[float]:
        raw = self.values["sweep"]["l_bc_values_km"]
        try:
            return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"sweep.l_bc_values_km: {exc}") from exc

    def effective_lines(self) -> list[str]:
        """Config block that re-parses to an equivalent RunConfig."""
        lines = []
        for section in _DEFAULTS:
            lines.append(f"[{section}]")
            for key, val in self.values[section].items():
                if val is None:
                    continue
                lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
        return lines


def _build(cls, scenario: dict, *keys: str):
    """cls from the given [scenario] keys, in order; a ValueError becomes a
    ConfigError that names those keys."""
    try:
        return cls(*(scenario[k] for k in keys))
    except ValueError as exc:
        raise ConfigError(f"{', '.join('scenario.' + k for k in keys)}: {exc}") from exc


def check_fixed_gain(scenario: Scenario, legs: str) -> None:
    """A fixed gain must give the scenario's equivalent channel a finite T > 0
    and a finite eps'; else a ConfigError that names scenario.gain and legs,
    the legs the scenario stands for."""
    if scenario.gain_mode != "fixed":
        return
    t = effective_transmittance(scenario, scenario.gain)
    eps = equivalent_excess_noise(scenario, scenario.gain)
    if not (math.isfinite(t) and math.isfinite(eps)) or t == 0.0:
        raise ConfigError(f"scenario.gain = {scenario.gain!r}: the equivalent channel at {legs} "
                          f"has T = {t!r} and eps' = {eps!r}; a fixed gain must give a finite "
                          f"T > 0 and a finite eps'")


def _convert(section: str, key: str, raw, where: str):
    if section not in _DEFAULTS:
        raise ConfigError(f"unknown section [{section}] ({where})")
    if key not in _DEFAULTS[section]:
        raise ConfigError(f"unknown key {section}.{key} ({where})")
    default = _DEFAULTS[section][key]
    typ = float if default is None else type(default)
    value = raw
    if not isinstance(raw, typ):
        try:
            value = typ(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {typ.__name__} ({where})") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: {raw!r} is not a finite number ({where})")
    return value


def load_config(path: str | None = None, overrides: list[str] | None = None,
                environ: dict | None = None) -> RunConfig:
    values = {sec: dict(d) for sec, d in _DEFAULTS.items()}

    if path is not None:
        import configparser  # only a --config file needs it

        # no interpolation: '%' is literal, as it is for --set and effective_lines()
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh, source=path)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                # RHS raises ConfigError for unknown sections/keys
                values[section][key] = _convert(section, key, raw, f"file {path}")

    environ = os.environ if environ is None else environ
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        for section in _DEFAULTS:
            if rest.startswith(section + "_"):
                key = rest[len(section) + 1:]
                values[section][key] = _convert(section, key, raw, f"env {name}")
                break
        else:
            raise ConfigError(f"unrecognized environment override {name}")

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        values[section.strip()][key.strip()] = _convert(section.strip(), key.strip(), raw.strip(), "--set")

    cfg = RunConfig(values)
    # validate ranges now, before any computation
    check_fixed_gain(cfg.scenario(), "the configured legs")
    if values["sweep"]["points"] < 1:
        raise ConfigError("sweep.points must be >= 1")
    if values["sweep"]["l_min_km"] < 0 or values["sweep"]["l_max_km"] < values["sweep"]["l_min_km"]:
        raise ConfigError("sweep grid must satisfy 0 <= l_min_km <= l_max_km")
    # every sweep length must make a valid leg (finite, >= 0, transmittance > 0)
    legs = [("sweep.l_max_km", values["sweep"]["l_max_km"])]
    l_bc_values = cfg.l_bc_values()
    if not l_bc_values:
        raise ConfigError("sweep.l_bc_values_km must list at least one length")
    legs += [("sweep.l_bc_values_km", length) for length in l_bc_values]
    for key, length in legs:
        try:
            ChannelParams(length, values["scenario"]["attenuation_db_per_km"])
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if values["mc"]["n"] < MIN_ESTIMATION_SAMPLES:
        raise ConfigError(f"mc.n must be >= {MIN_ESTIMATION_SAMPLES}, the smallest batch "
                          f"the oracle's parameter estimation accepts")
    if values["mc"]["seed"] < 0:
        raise ConfigError(f"mc.seed must be >= 0, got {values['mc']['seed']}: the oracle keys "
                          f"its random streams with it, and the key is a non-negative integer")
    return cfg
