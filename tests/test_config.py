import json

import pytest

from gpsimlab.config import (
    DEFAULTS,
    MAX_TRIAL_RUNS,
    Config,
    ConfigError,
    SweepConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)


class TestRoundTrip:
    def test_defaults_survive_round_trip(self):
        cfg = DEFAULTS
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_partial_sections_merge_with_defaults(self):
        cfg = config_from_dict({"deployment": {"radius_m": 120.0}})
        assert cfg.deployment.radius_m == 120.0
        assert cfg.deployment.separation_m == DEFAULTS.deployment.separation_m
        assert cfg.sweep == DEFAULTS.sweep

    def test_empty_object_is_all_defaults(self):
        assert config_from_dict({}) == DEFAULTS

    def test_int_accepted_for_float_field(self):
        cfg = config_from_dict({"budget": {"limit_ms": 40}})
        assert cfg.budget.limit_ms == 40.0
        assert isinstance(cfg.budget.limit_ms, float)


class TestRejection:
    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="'deploymnet'"):
            config_from_dict({"deploymnet": {}})

    def test_unknown_key_carries_dotted_path(self):
        with pytest.raises(ConfigError, match=r"deployment\.radius_km"):
            config_from_dict({"deployment": {"radius_km": 0.08}})

    def test_suggestion_for_near_miss(self):
        with pytest.raises(ConfigError, match="did you mean 'radius_m'"):
            config_from_dict({"deployment": {"radius_mm": 80}})

    def test_bool_rejected_for_number(self):
        with pytest.raises(ConfigError, match=r"budget\.limit_ms"):
            config_from_dict({"budget": {"limit_ms": True}})

    def test_float_rejected_for_int(self):
        with pytest.raises(ConfigError, match=r"handover\.trials"):
            config_from_dict({"handover": {"trials": 2.5}})

    def test_string_rejected_for_number(self):
        with pytest.raises(ConfigError, match=r"sync\.duration_s"):
            config_from_dict({"sync": {"duration_s": "long"}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="deployment"):
            config_from_dict({"deployment": 7})

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            config_from_dict([1, 2])


class TestValidation:
    def test_overlapping_separation(self):
        with pytest.raises(ConfigError, match="overlap"):
            config_from_dict({"deployment": {"radius_m": 80.0, "separation_m": 100.0}})

    def test_unknown_receiver(self):
        with pytest.raises(ConfigError, match="receiver"):
            config_from_dict({"deployment": {"receiver": "mainframe"}})

    def test_sweep_grid_validated(self):
        with pytest.raises(ConfigError, match="step_ms"):
            config_from_dict({"sweep": {"step_ms": 0.0}})
        with pytest.raises(ConfigError, match="min_offset_ms"):
            config_from_dict({"sweep": {"min_offset_ms": 50.0, "max_offset_ms": -50.0}})

    def test_n_sats_floor(self):
        with pytest.raises(ConfigError, match="n_sats"):
            config_from_dict({"handover": {"n_sats": 3}})

    def test_budget_positive(self):
        with pytest.raises(ConfigError, match="limit_ms"):
            config_from_dict({"budget": {"limit_ms": 0.0}})

    @pytest.mark.parametrize("limit_ms", [4e-7, 1e308])
    def test_budget_must_be_a_whole_nanosecond_count(self, limit_ms):
        # the budget is held in whole nanoseconds: 4e-7 ms rounds to 0 ns,
        # 1e308 ms overflows the conversion
        with pytest.raises(ConfigError, match=r"budget\.limit_ms"):
            config_from_dict({"budget": {"limit_ms": limit_ms}})
        assert config_from_dict({"budget": {"limit_ms": 1e-6}}).budget.limit_ms == 1e-6

    @pytest.mark.parametrize(
        "key, accepted, rejected",
        [("noise_sigma_ms", 1.5e145, 1.6e145), ("wander_sigma_ms", 3.7e143, 3.8e143)],
    )
    def test_delay_spread_keeps_squared_nanoseconds_finite(self, key, accepted, rejected):
        # calibration sums the squared nanosecond deviations of all 1800
        # samples; the walk's spread grows with the square root of the run
        assert getattr(config_from_dict({"delay_model": {key: accepted}}).delay_model, key) == accepted
        with pytest.raises(ConfigError, match=rf"delay_model\.{key}"):
            config_from_dict({"delay_model": {key: rejected}})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("budget", "limit_ms", float("nan")),
            ("deployment", "radius_m", float("inf")),
            ("sweep", "min_offset_ms", float("-inf")),
        ],
    )
    def test_non_finite_numbers_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected a finite number"):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "section, accepted, refused, named, cap",
        [
            ({"delay_model": {}}, {"sample_count": 1_000_000}, {"sample_count": 1_000_001}, "sample_count", 1_000_000),
            ({"delay_model": {}}, {"sample_count": 1_000_000}, {"sample_count": 10**12}, "sample_count", 1_000_000),
            # 16 s polls
            ({"sync": {}}, {"duration_s": 16e6}, {"duration_s": 16e6 + 16.0}, "duration_s", 1_000_000),
            ({"sync": {}}, {"duration_s": 16e6}, {"duration_s": 1e15}, "duration_s", 1_000_000),
            # the grid holds (max - min) / step + 1 offsets, each run once per trial
            (
                {"sweep": {"min_offset_ms": 0.0, "trials": 1}},
                {"max_offset_ms": 9_999.0, "step_ms": 1.0},
                {"max_offset_ms": 10_000.0, "step_ms": 1.0},
                "step_ms",
                10_000,
            ),
            ({"sweep": {"trials": 1}}, {"step_ms": 0.1}, {"step_ms": 1e-300}, "step_ms", 10_000),
            (
                {"sweep": {"trials": 1}},
                {"min_offset_ms": -250.0, "max_offset_ms": 250.0},
                {"min_offset_ms": -1e300, "max_offset_ms": 1e300},
                "max_offset_ms",
                10_000,
            ),
            # max - min overflows to inf, which floor() could not take
            ({"sweep": {"trials": 1}}, {"step_ms": 50.0}, {"min_offset_ms": -1e308, "max_offset_ms": 1e308}, "max_offset_ms", 10_000),
            # one satellite per GPS L1 C/A PRN
            ({"handover": {}}, {"n_sats": 32}, {"n_sats": 33}, "n_sats", 32),
        ],
        ids=[
            "sample_count", "sample_count-1e12", "duration_s", "duration_s-1e15",
            "sweep-span", "sweep-step-1e-300", "sweep-span-1e300", "sweep-span-inf", "n_sats",
        ],
    )
    def test_counts_that_size_arrays_are_capped(self, section, accepted, refused, named, cap):
        # the first case of each key sits exactly at its cap
        [(name, base)] = section.items()
        cfg = config_from_dict({name: {**base, **accepted}})
        for key, value in accepted.items():
            assert getattr(getattr(cfg, name), key) == value
        with pytest.raises(ConfigError, match=rf"{name}\.{named}.*\b{cap}\b"):
            config_from_dict({name: {**base, **refused}})

    def test_sync_duration_covers_one_poll(self):
        with pytest.raises(ConfigError, match=r"sync\.duration_s"):
            config_from_dict({"sync": {"duration_s": 10.0}})
        assert config_from_dict({"sync": {"duration_s": 16.0}}).sync.duration_s == 16.0


class TestWorkBound:
    def test_handover_trials_capped(self):
        assert config_from_dict({"handover": {"trials": MAX_TRIAL_RUNS}}).handover.trials == MAX_TRIAL_RUNS
        for trials in (MAX_TRIAL_RUNS + 1, 10**400):
            with pytest.raises(ConfigError, match=rf"handover\.trials.*\b{MAX_TRIAL_RUNS}\b"):
                config_from_dict({"handover": {"trials": trials}})

    def test_sweep_runs_capped(self):
        # 1,000 offsets: 0 to 999 ms in 1 ms steps
        grid = {"min_offset_ms": 0.0, "max_offset_ms": 999.0, "step_ms": 1.0}
        trials = MAX_TRIAL_RUNS // 1000
        assert config_from_dict({"sweep": {**grid, "trials": trials}}).sweep.trials == trials
        for refused in ({**grid, "trials": trials + 1}, {**grid, "max_offset_ms": 1000.0, "trials": trials}):
            with pytest.raises(ConfigError, match=rf"sweep\.trials.*\b{MAX_TRIAL_RUNS}\b"):
                config_from_dict({"sweep": refused})

    @pytest.mark.parametrize("offsets", [42_700, 76_600])
    def test_fuzz_found_sweep_grids_refused(self, offsets):
        # grids a fuzzer found the validator accepting: at the default 3 trials and about 6 ms per
        # offset and trial, each would run for over ten minutes
        sweep = {"min_offset_ms": 0.0, "max_offset_ms": float(offsets - 1), "step_ms": 1.0}
        assert SweepConfig(**sweep).trials == 3
        with pytest.raises(ConfigError, match=r"sweep\.trials.*sweep\.step_ms"):
            config_from_dict({"sweep": sweep})

    def test_defaults_sit_far_below_the_bound(self):
        assert DEFAULTS.handover.trials * 100 <= MAX_TRIAL_RUNS
        assert DEFAULTS.sweep.trials * len(DEFAULTS.sweep.offsets_ms()) * 100 <= MAX_TRIAL_RUNS


class TestFileLoading:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"deployment": {"radius_m": 90.0}}))
        cfg = load_config(str(path))
        assert cfg.deployment.radius_m == 90.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot be read"),
            (b'{"deployment": {"receiver": "\xff"}}', "cannot be read"),
            (b"[" * 100_000 + b"]" * 100_000, "cannot be read"),
            (b"1" * 5000, "cannot be read"),
        ],
        ids=["directory", "non-utf8", "deep-nesting", "5000-digit-integer"],
    )
    def test_unreadable_file_names_its_path(self, tmp_path, content, message):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=message) as excinfo:
            load_config(str(path))
        assert str(path) in str(excinfo.value)

    def test_integer_past_float_range_for_float_field(self):
        with pytest.raises(ConfigError, match=r"deployment\.radius_m: expected a finite number"):
            config_from_dict({"deployment": {"radius_m": 10**400}})

    def test_config_is_frozen(self):
        cfg = DEFAULTS
        with pytest.raises(Exception):
            cfg.deployment.radius_m = 10.0
        assert isinstance(cfg, Config)
