import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from dpdispatch.cli import main
from dpdispatch.scenario import (
    SECTIONS,
    BuildingParams,
    ConfigError,
    ScenarioConfig,
    TraceSources,
    build_simulation,
    build_traces,
    load_config,
    synth_pv,
    synth_weather,
)
from dpdispatch.thermal import ContinuousThermalModel, discretize
from dpdispatch.traces import Trace, TraceError, load_trace, write_csv


class TestLoadTrace:
    def _write(self, tmp_path, rows, header="step,pv_kw"):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def test_well_formed(self, tmp_path):
        path = self._write(tmp_path, [f"{i},{i * 0.5}" for i in range(432)])
        trace = load_trace(path, "kW", 600)
        assert len(trace) == 432
        assert trace.values[2] == 1.0

    def test_nan_names_row(self, tmp_path):
        rows = [f"{i},1.0" for i in range(16)] + ["16,nan"] + ["17,1.0"]
        path = self._write(tmp_path, rows)
        with pytest.raises(TraceError, match="row 17"):
            load_trace(path, "kW", 600)

    def test_row_numbers_count_blank_lines(self, tmp_path):
        rows = [f"{i},1.0" for i in range(3)] + [""] + ["3,inf"]
        path = self._write(tmp_path, rows)
        with pytest.raises(TraceError, match="row 5$"):
            load_trace(path, "kW", 600)

    def test_trace_names_first_non_finite_step(self):
        values = [1.0, 2.0, 3.0, float("inf"), 5.0, float("nan")]
        with pytest.raises(TraceError, match="step 3$"):
            Trace(values=values, unit="kW", step_seconds=600)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_trace(path, "kW", 600)

    @pytest.mark.parametrize("row", ["5,1.0,2.0", "5,1.0,"])
    def test_extra_cell_names_row(self, tmp_path, row):
        rows = [f"{i},1.0" for i in range(5)] + [row] + ["6,1.0"]
        path = self._write(tmp_path, rows)
        with pytest.raises(TraceError, match="row 6 has 3 cells"):
            load_trace(path, "kW", 600)

    @pytest.mark.parametrize("cell", ["1_5", "１.５", "٣"])
    def test_python_only_float_syntax_names_row(self, tmp_path, cell):
        rows = [f"{i},1.0" for i in range(5)] + [f"5,{cell}"] + ["6,1.0"]
        path = self._write(tmp_path, rows)
        with pytest.raises(TraceError, match=f"row 6: could not convert string to float: '{cell}'$"):
            load_trace(path, "kW", 600)

    def test_gap_detected(self, tmp_path):
        path = self._write(tmp_path, ["0,1.0", "2,1.0"])
        with pytest.raises(TraceError, match="gap"):
            load_trace(path, "kW", 600)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "nope.csv", "kW", 600)

    def test_round_trip(self, tmp_path):
        trace = Trace(values=(0.1, 1.0 / 3.0, -2.718281828459045), unit="kW", step_seconds=600)
        path = tmp_path / "rt.csv"
        write_csv(path, ["step", "pv_kw"], enumerate(trace.values))
        back = load_trace(path, "kW", 600)
        assert back.values == trace.values


class TestSynthPv:
    def test_clear_sky_zero_at_night(self):
        trace = synth_pv(n_steps=144, step_seconds=600, peak_kw=100.0, cloud_intensity=0.0, seed=1)
        values = np.asarray(trace.values)
        hours = np.arange(len(values)) * 600 / 3600.0
        night = (hours < 6.0) | (hours > 18.0)
        assert (values[night] == 0.0).all()
        # pure half-sine during the day
        day = ~night
        expected = 100.0 * np.sin(np.pi * (hours[day] - 6.0) / 12.0)
        assert values[day] == pytest.approx(expected)

    def test_zero_peak_all_zero(self):
        trace = synth_pv(n_steps=288, step_seconds=600, peak_kw=0.0, cloud_intensity=0.5, seed=1)
        assert all(v == 0.0 for v in trace.values)

    def test_three_days_432_steps(self):
        trace = synth_pv(n_steps=432, step_seconds=600, peak_kw=250.0, cloud_intensity=0.3, seed=1)
        assert len(trace) == 432

    # one to four steps, fewer than the cloud smoothing kernel's five taps
    @pytest.mark.parametrize("step_seconds", [86400, 43200, 28800, 21600])
    def test_short_trace_has_one_value_per_step(self, step_seconds):
        trace = synth_pv(86400 // step_seconds, step_seconds, 250.0, 0.3, seed=1)
        assert len(trace) == 86400 // step_seconds

    def test_deterministic(self):
        a = synth_pv(432, 600, 250.0, 0.3, seed=9)
        b = synth_pv(432, 600, 250.0, 0.3, seed=9)
        assert a.values == b.values

    def test_cloud_factor_stays_in_unit_interval(self):
        cloudy = synth_pv(432, 600, 250.0, 1.0, seed=4)
        clear = synth_pv(432, 600, 250.0, 0.0, seed=4)
        for c, k in zip(cloudy.values, clear.values):
            assert 0.0 <= c <= k + 1e-12


class TestSynthWeather:
    def test_zero_swing_constant(self):
        trace = synth_weather(n_steps=144, step_seconds=600, mean_c=28.0, swing_c=0.0, seed=3)
        assert all(v == 28.0 for v in trace.values)

    def test_three_days_432_steps(self):
        assert len(synth_weather(432, 600, 30.0, 5.0, seed=3)) == 432

    def test_deterministic(self):
        a = synth_weather(432, 600, 30.0, 5.0, seed=8)
        b = synth_weather(432, 600, 30.0, 5.0, seed=8)
        assert a.values == b.values


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.n_buildings == 100
        assert cfg.horizon_steps == 432
        assert cfg.dp.epsilon == 0.1
        assert cfg.mpc.comfort_min == 22.5

    def test_yaml_sections(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "n_buildings: 10\nseed: 5\ndp:\n  epsilon: 0.5\nmpc:\n  horizon_np: 3\n"
        )
        cfg = load_config(path)
        assert cfg.n_buildings == 10
        assert cfg.dp.epsilon == 0.5
        assert cfg.mpc.horizon_np == 3

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ndp:\n  epsilon: 0.5\n")
        cfg = load_config(path, {"epsilon": 1.0, "seed": 77})
        assert cfg.dp.epsilon == 1.0
        assert cfg.seed == 77

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("dp:\n  budget: 0.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("data, reason", [
        (b"n_buildings: [1\n", "while parsing a flow sequence"),
        (b"seed: 5\n\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["yaml-syntax-error", "not-utf-8"])
    def test_unreadable_config_named(self, tmp_path, data, reason):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not a YAML config: {reason}")):
            load_config(path)

    def test_code_built_default_is_the_loaded_default(self):
        assert ScenarioConfig() == load_config(None)

    def test_master_seed_alone_derives_the_noise_seed(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\n")
        cfg = load_config(path)
        assert cfg == ScenarioConfig(seed=5)
        assert cfg.dp.seed != ScenarioConfig().dp.seed

    def test_explicit_noise_seed_is_kept(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ndp:\n  seed: 12\n")
        assert load_config(path).dp.seed == 12

    def test_null_noise_seed_is_derived(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ndp:\n  seed: null\n")
        assert load_config(path) == ScenarioConfig(seed=5)

    def test_config_dict_is_complete(self, tmp_path):
        assert main(["simulate", "--n-buildings", "1", "--out", str(tmp_path)]) == 0
        d = json.loads((tmp_path / "manifest.json").read_text())["config"]
        cfg = load_config(None)
        assert set(d) == {f.name for f in dataclasses.fields(cfg)}
        for section in ("dp", "mpc", "buildings", "traces"):
            assert set(d[section]) == {f.name for f in dataclasses.fields(getattr(cfg, section))}
        assert d["dp"]["epsilon"] == 0.1
        assert d["mpc"]["horizon_np"] == 6
        assert d["traces"]["days"] == 3


EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "examples_config.yaml"

# the declared field types that check_fields has a rule for
FIELD_TYPES = ("int", "float", "str | None", "int | None")


def has_declared_type(kind, value):
    if kind == "int | None":
        return value is None or type(value) is int
    if kind == "int":
        return type(value) is int
    if kind == "float":
        return type(value) in (int, float) and math.isfinite(value)
    return value is None or type(value) is str


class TestFieldTypes:
    def test_every_field_has_a_rule(self):
        # a field of any other type would bypass the check
        assert {f.name: f.type for f in dataclasses.fields(ScenarioConfig)
                if f.type not in FIELD_TYPES} == {
            name: cls.__name__ for name, cls in SECTIONS.items()}
        for cls in SECTIONS.values():
            for f in dataclasses.fields(cls):
                assert f.type in FIELD_TYPES, (cls.__name__, f.name, f.type)

    @settings(max_examples=300, deadline=None)
    @given(
        where=st.sampled_from([None, *SECTIONS]).flatmap(lambda section: st.tuples(
            st.just(section),
            st.sampled_from([f.name for f in dataclasses.fields(
                ScenarioConfig if section is None else SECTIONS[section])
                if f.type in FIELD_TYPES]),
        )),
        value=st.one_of(
            st.integers(), st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
            st.booleans(), st.none(), st.sampled_from(["1e-5", "5"]),
            st.lists(st.integers(), max_size=2),
        ),
    )
    def test_only_config_error_and_declared_types(self, where, value):
        section, name = where
        text = yaml.safe_dump({name: value} if section is None else {section: {name: value}})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.yaml"
            path.write_text(text)
            try:
                cfg = load_config(path)
            except ConfigError:
                return
        for cls_obj in (cfg, *(getattr(cfg, sec) for sec in SECTIONS)):
            for f in dataclasses.fields(cls_obj):
                if f.type in FIELD_TYPES:
                    assert has_declared_type(f.type, getattr(cls_obj, f.name)), f.name


class TestExampleConfig:
    """examples_config.yaml lists every recognized key at its default."""

    def test_equals_the_defaults(self):
        assert load_config(EXAMPLE_CONFIG) == load_config(None)

    def test_names_every_field(self):
        # a section runs from its top-level key to the next; a field is
        # listed as a key or as a commented-out key
        text = EXAMPLE_CONFIG.read_text()
        blocks = dict(re.findall(r"^(\w+):\n((?:[ #].*\n|\n)*)", text, re.MULTILINE))
        for f in dataclasses.fields(ScenarioConfig):
            assert re.search(rf"^{f.name}:", text, re.MULTILINE), f.name
        for section, cls in SECTIONS.items():
            for f in dataclasses.fields(cls):
                assert re.search(rf"^ +(# )?{f.name}:", blocks[section], re.MULTILINE), (
                    section, f.name)


class TestBuildTraces:
    @pytest.mark.parametrize("days, step_seconds, n_steps",
                             [(3, 600, 432), (1, 700, 123), (1, 43200, 2)])
    def test_synthetic_length_is_horizon_steps(self, days, step_seconds, n_steps):
        cfg = ScenarioConfig(traces=TraceSources(days=days, step_seconds=step_seconds))
        dist, pv = build_traces(cfg)
        assert len(pv) == len(dist) == cfg.horizon_steps == n_steps

    def test_csv_length_is_the_files(self, csv_traces_config):
        # days and step_seconds give 432 steps; the CSVs hold 100
        cfg = load_config(csv_traces_config)
        dist, pv = build_traces(cfg)
        assert cfg.horizon_steps == 432
        assert len(pv) == len(dist) == 100


class TestBuildSimulation:
    def test_fleet_size(self):
        cfg = ScenarioConfig(n_buildings=100)
        models, temps, dist, pv = build_simulation(cfg)
        assert len(models) == 100
        assert len(temps) == 100
        assert len(dist) == len(pv) == 432

    def test_identical_fleet_without_jitter(self):
        models, _, _, _ = build_simulation(ScenarioConfig(n_buildings=5))
        assert all(m == models[0] for m in models)

    def test_unjittered_fleet_is_the_nominal_model(self):
        bp = BuildingParams()
        nominal = discretize(ContinuousThermalModel(
            a=bp.a, b=bp.b, g_temp=bp.g_temp, g_solar=bp.g_solar, p_rate=bp.p_rate))
        models, _, _, _ = build_simulation(ScenarioConfig(n_buildings=5))
        assert models == [nominal] * 5

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_draws_are_python_floats(self, jitter):
        # np.float64 coefficients make every predict_temp call several times slower
        cfg = ScenarioConfig(n_buildings=5, buildings=BuildingParams(jitter=jitter))
        models, temps, _, _ = build_simulation(cfg)
        values = [getattr(m, f.name) for m in models for f in dataclasses.fields(m)
                  if f.name != "dt_seconds"]
        assert {type(v) for v in values + temps} == {float}

    def test_negative_seed_names_seed(self):
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            build_simulation(ScenarioConfig(seed=-1))

    def test_jitter_varies_fleet(self):
        cfg = ScenarioConfig(n_buildings=5, buildings=BuildingParams(jitter=0.1))
        models, _, _, _ = build_simulation(cfg)
        assert len({m.a_d for m in models}) > 1

    def test_init_temps_inside_band(self):
        _, temps, _, _ = build_simulation(ScenarioConfig(n_buildings=50))
        for temp in temps:
            assert 22.5 <= temp <= 23.5

    def test_seed_determinism(self):
        a = build_simulation(ScenarioConfig(n_buildings=4, seed=13))
        b = build_simulation(ScenarioConfig(n_buildings=4, seed=13))
        assert a[1] == b[1]
        assert a[3].values == b[3].values
        assert a[2].t_out == b[2].t_out

    def test_csv_override(self, tmp_path):
        pv_path = tmp_path / "pv.csv"
        pv_path.write_text("step,pv_kw\n" + "".join(f"{i},{10.0}\n" for i in range(432)))
        cfg = ScenarioConfig(
            n_buildings=2,
            traces=ScenarioConfig().traces.__class__(pv_csv=str(pv_path)),
        )
        _, _, _, pv = build_simulation(cfg)
        assert all(v == 10.0 for v in pv.values)

    def test_weather_csv(self, tmp_path):
        path = tmp_path / "weather.csv"
        path.write_text("step,q_solar_kw_m2,t_out_c\n"
                        + "".join(f"{i},{i / 1000},{25.0 + i / 100}\n" for i in range(432)))
        cfg = ScenarioConfig(
            n_buildings=2,
            traces=TraceSources(weather_csv=str(path)),
        )
        _, _, dist, _ = build_simulation(cfg)
        assert dist.t_out == tuple(25.0 + i / 100 for i in range(432))
        assert dist.q_solar == tuple(i / 1000 for i in range(432))
