"""Configuration schema, the one home of every default, and JSON loading.

One flat file of small sections, all keys carrying explicit units in
their names. The library takes its default parameters from ``DEFAULTS``
below, so a default value is written only here. Loading is strict:
unknown keys are rejected with their full dotted path, wrong scalar
types and non-finite numbers likewise, so a typo in a config cannot
silently fall back to a default.

This module imports nothing from the package at load time, which lets
the lowest layers (timebase, calibration) read their defaults from it.
"""

import dataclasses
import difflib
import json
import math
import sys
from dataclasses import dataclass


# Deviations a delay spread may reach, in units of itself, before calibration's
# sum of squared nanosecond deviations could overflow. Over n samples that sum
# is at most 2n·max|walk|² + 2·Σnoise² (clipping at zero only shrinks it). The
# check keeps n·(2kσ)² finite for the walk's end-point spread and for the
# noise spread, with k = 10, so the sum stays in range unless the walk leaves
# ±10 end-point sigmas (at most 2·P(|Z| > 10) by Lévy's inequality) or the
# noise's mean square exceeds 100σ² (at most P(|Z| > 10), the n = 1 case). A
# run that passes overflows with probability below 3·P(|Z| > 10) ≈ 5e-23; with
# k = 5 it would be 1.7e-6 per calibration run, ~1e-4 per 50-trial matrix.
DEVIATION_SIGMAS = 20.0

# The most entries a count from the config may give an array or a loop: a
# timeline's DT_S steps, a delay-sample run or a sync run's polls. A config
# that asks for more is refused.
MAX_TIMELINE_STEPS = 1_000_000

# The most trials a config may ask for: handover.trials, or sweep.trials times
# the sweep grid's offsets. Trials run one after another and each costs
# milliseconds, so this bounds a command's total work to minutes.
MAX_TRIAL_RUNS = 10_000

# The most timeline steps a static or driving matrix may advance over all its
# trials: handover.trials times the DT_S steps of one trial's timeline, which
# the timeline's lengths, the corridor and the speed set. The default matrices
# take 40,000 and 31,100; MAX_TRIAL_RUNS of either fits at the default timeline.
MAX_MATRIX_STEPS = 10_000_000

# GPS L1 C/A has 32 PRNs, so a simulated sky holds at most that many satellites
MAX_SATELLITES = 32


class ConfigError(ValueError):
    """A config file failed validation; the message carries the key path."""


@dataclass(frozen=True)
class DeploymentConfig:
    radius_m: float = 80.0
    separation_m: float = 500.0
    max_speed_kmh: float = 110.0
    receiver: str = "dedicated"


@dataclass(frozen=True)
class DelayModelConfig:
    mean_delay_ms: float = 30.0
    wander_sigma_ms: float = 0.02
    noise_sigma_ms: float = 0.5
    sample_count: int = 1800


@dataclass(frozen=True)
class BudgetConfig:
    limit_ms: float = 50.0


@dataclass(frozen=True)
class HandoverConfig:
    trials: int = 50
    live_s: float = 30.0
    blocked_s: float = 30.0
    sim_s: float = 20.0
    pr_noise_m: float = 2.0
    n_sats: int = 8


@dataclass(frozen=True)
class SweepConfig:
    min_offset_ms: float = -250.0
    max_offset_ms: float = 250.0
    step_ms: float = 50.0
    trials: int = 3

    def grid_size(self) -> int:
        """Offsets in the sweep grid, min to max inclusive in steps of ``step_ms``."""
        return math.floor((self.max_offset_ms - self.min_offset_ms) / self.step_ms + 1e-9) + 1

    def offsets_ms(self) -> list[float]:
        """The sweep grid, min to max inclusive in steps of ``step_ms``."""
        return [self.min_offset_ms + i * self.step_ms for i in range(self.grid_size())]


@dataclass(frozen=True)
class SyncConfig:
    duration_s: float = 1800.0


@dataclass(frozen=True)
class Config:
    deployment: DeploymentConfig = DeploymentConfig()
    delay_model: DelayModelConfig = DelayModelConfig()
    budget: BudgetConfig = BudgetConfig()
    handover: HandoverConfig = HandoverConfig()
    sweep: SweepConfig = SweepConfig()
    sync: SyncConfig = SyncConfig()


_SECTIONS = {f.name: f.type for f in dataclasses.fields(Config)}

DEFAULTS = Config()


def _unknown_key_error(key: str, known: list[str], path: str) -> ConfigError:
    where = f"{path}.{key}" if path else key
    msg = f"unknown config key {where!r}"
    close = difflib.get_close_matches(key, known, n=1)
    if close:
        msg += f" (did you mean {close[0]!r}?)"
    return ConfigError(msg)


def _coerce_scalar(expected: type, value: object, path: str) -> object:
    # bool is an int subclass; reject it explicitly for numeric fields
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        # compared, not passed to isfinite: an int past float range overflows there
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported field type {expected!r}")


def _section_from_dict(cls: type, data: object, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise _unknown_key_error(key, sorted(fields), path)
        kwargs[key] = _coerce_scalar(fields[key], value, f"{path}.{key}")
    return cls(**kwargs)


def _positive(value: float, path: str) -> None:
    if value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value}")


def _validate(cfg: Config) -> Config:
    from .ntp import POLL_INTERVAL_S
    from .placement import kmh_to_ms
    from .receiver import PROFILES
    from .timebase import NS_PER_MS, ns_from_millis

    _positive(cfg.deployment.radius_m, "deployment.radius_m")
    # positive in m/s too: the smallest subnormal km/h rounds to 0 m/s
    _positive(kmh_to_ms(cfg.deployment.max_speed_kmh), "deployment.max_speed_kmh (in m/s)")
    if cfg.deployment.separation_m < 2 * cfg.deployment.radius_m:
        raise ConfigError(
            "deployment.separation_m: coverages overlap "
            f"({cfg.deployment.separation_m} < 2 * {cfg.deployment.radius_m})"
        )
    if cfg.deployment.receiver not in PROFILES:
        raise ConfigError(
            f"deployment.receiver: unknown profile {cfg.deployment.receiver!r}, "
            f"expected one of {sorted(PROFILES)}"
        )
    mean_ms = cfg.delay_model.mean_delay_ms
    if not (mean_ms > 0 and math.isfinite(mean_ms * NS_PER_MS)):
        raise ConfigError(f"delay_model.mean_delay_ms: must be positive and finite in ns, got {mean_ms}")
    if cfg.delay_model.wander_sigma_ms < 0:
        raise ConfigError("delay_model.wander_sigma_ms: must be non-negative")
    if cfg.delay_model.noise_sigma_ms < 0:
        raise ConfigError("delay_model.noise_sigma_ms: must be non-negative")
    if not 1 <= cfg.delay_model.sample_count <= MAX_TIMELINE_STEPS:
        raise ConfigError(
            f"delay_model.sample_count: must be 1 to {MAX_TIMELINE_STEPS}, got {cfg.delay_model.sample_count}"
        )
    # calibration sums the squared nanosecond deviations of the whole sample
    # run, and the walk's spread grows with the square root of its length
    count = cfg.delay_model.sample_count
    for name, run_sigma_ms in (
        ("wander_sigma_ms", cfg.delay_model.wander_sigma_ms * math.sqrt(count)),
        ("noise_sigma_ms", cfg.delay_model.noise_sigma_ms),
    ):
        deviation_ns = run_sigma_ms * NS_PER_MS * DEVIATION_SIGMAS
        if not math.isfinite(deviation_ns * deviation_ns * count):
            value = getattr(cfg.delay_model, name)
            raise ConfigError(
                f"delay_model.{name}: squared deviations of {count} samples overflow in ns, got {value}"
            )
    limit_ms = cfg.budget.limit_ms
    if not math.isfinite(limit_ms * NS_PER_MS) or ns_from_millis(limit_ms) < 1:
        raise ConfigError(f"budget.limit_ms: must be at least 1 ns and finite in ns, got {limit_ms}")
    if not 1 <= cfg.handover.trials <= MAX_TRIAL_RUNS:
        raise ConfigError(f"handover.trials: must be 1 to {MAX_TRIAL_RUNS}, got {cfg.handover.trials}")
    if not 4 <= cfg.handover.n_sats <= MAX_SATELLITES:
        raise ConfigError(
            f"handover.n_sats: need 4 satellites to solve and at most {MAX_SATELLITES} PRNs, "
            f"got {cfg.handover.n_sats}"
        )
    for name in ("live_s", "blocked_s", "sim_s", "pr_noise_m"):
        _positive(getattr(cfg.handover, name), f"handover.{name}")
    if cfg.sweep.step_ms <= 0:
        raise ConfigError("sweep.step_ms: must be positive")
    if cfg.sweep.min_offset_ms > cfg.sweep.max_offset_ms:
        raise ConfigError("sweep.min_offset_ms: must not exceed sweep.max_offset_ms")
    if cfg.sweep.trials < 1:
        raise ConfigError("sweep.trials: must be at least 1")
    # the grid compared as floats first: the span may overflow to inf, which floor() refuses
    grid = (cfg.sweep.max_offset_ms - cfg.sweep.min_offset_ms) / cfg.sweep.step_ms + 1
    if grid > MAX_TRIAL_RUNS or cfg.sweep.trials * cfg.sweep.grid_size() > MAX_TRIAL_RUNS:
        raise ConfigError(
            "sweep.trials, sweep.min_offset_ms, sweep.max_offset_ms, sweep.step_ms: trials times grid "
            f"offsets must not exceed {MAX_TRIAL_RUNS}, got {cfg.sweep.trials} trials"
        )
    if not POLL_INTERVAL_S <= cfg.sync.duration_s <= MAX_TIMELINE_STEPS * POLL_INTERVAL_S:
        raise ConfigError(
            f"sync.duration_s: must cover 1 to {MAX_TIMELINE_STEPS} polls of {POLL_INTERVAL_S} s, "
            f"got {cfg.sync.duration_s}"
        )
    return cfg


def config_from_dict(data: object) -> Config:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    kwargs = {}
    for key, value in data.items():
        if key not in _SECTIONS:
            raise _unknown_key_error(key, sorted(_SECTIONS), "")
        kwargs[key] = _section_from_dict(_SECTIONS[key], value, key)
    return _validate(Config(**kwargs))


def config_to_dict(cfg: Config) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    # a directory, bytes that are not UTF-8, an integer past Python's digit
    # limit or nesting past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}")
    return config_from_dict(data)
