"""Config parsing, experiment drivers, CSV contract and CLI behavior."""

import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_sim import experiments
from cellfree_sim.cli import main
from cellfree_sim.errors import ConfigError, NumericalError
from cellfree_sim.experiments import (
    DEFAULT_SEED,
    DESK_AREA_DEFAULTS,
    EXPERIMENTS,
    ExperimentConfig,
    config_from_dict,
    parse_config,
    run_experiment,
    write_csv,
)
from cellfree_sim.scenario import _COUNT_FIELDS, MAX_COUNT

TINY_AREA = {
    "side_length_m": 350.0,
    "ap_count": 4,
    "ue_count": 3,
    "antennas_per_ap": 1,
    "pilot_count": 2,
}


# The smallest area on which every scheme has several APs per cluster.
TOY_AREA = {**TINY_AREA, "ap_count": 9, "ue_count": 4, "antennas_per_ap": 2}


def tiny_config(tmp_path, experiment="kappa_sweep", **overrides):
    raw = {
        "experiment": experiment,
        "area": TINY_AREA,
        "setups": 2,
        "stat_budget": 20,
        "eval_budget": 20,
        "kappa_grid": [0.0, 100.0],
        "d_grid": [{"d_m": 250.0}, {"d_m": 1000.0}],
        "seed": 99,
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return config_from_dict(raw)


# JSON-like values: None, bools, integers (some beyond the largest count,
# some beyond the float range), floats including NaN and +-inf, short strings,
# nested lists and objects.
HUGE_INT = 10**400
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 50),
    st.integers(MAX_COUNT - 1, 2**64),
    st.integers(HUGE_INT, 2 * HUGE_INT) | st.integers(-2 * HUGE_INT, -HUGE_INT),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
fuzzed_area = st.dictionaries(st.sampled_from(sorted(DESK_AREA_DEFAULTS)) | st.text(max_size=4),
                              json_values, max_size=4)
fuzzed_d_grid = st.lists(
    st.dictionaries(st.sampled_from(["d_m", "p_max_w"]) | st.text(max_size=4), json_values,
                    max_size=3) | json_values,
    max_size=3,
)
fuzzed_config = st.fixed_dictionaries({}, optional={
    "experiment": st.sampled_from(EXPERIMENTS) | json_values,
    "area": fuzzed_area | json_values,
    "schemes": st.lists(st.sampled_from(["MMSE", "LMMSE_LSFD", "LTMMSE"]) | json_values,
                        max_size=4) | json_values,
    "pc_exponent": json_values,
    "kappa_grid": st.lists(json_values, max_size=3) | json_values,
    "d_grid": fuzzed_d_grid | json_values,
    "setups": json_values,
    "stat_budget": json_values,
    "eval_budget": json_values,
    "seed": json_values,
    "out_dir": json_values,
})


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def se_and_ci(csv_path) -> list[float]:
    """Every `se` and `ci` value of a result CSV."""
    lines = csv_path.read_text().splitlines()[2:]
    return [float(value) for line in lines for value in line.split(",")[6:8]]


class TestParseConfig:
    def test_empty_file_reports_missing_experiment(self, tmp_path):
        path = write_config(tmp_path, "")
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(path)

    def test_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"experiment": "cdf"}))
        (area, points), = cfg.grid
        assert points == ((0.0, None),)
        assert cfg.seed == DEFAULT_SEED == 0xCE11F4EE
        assert area.ap_count == 25
        assert area.ue_count == 8
        assert area.antennas_per_ap == 2
        assert area.pilot_count == 4
        assert area.pilot_power_w == area.p_max_w
        assert cfg.setups == 10
        assert cfg.stat_budget == cfg.eval_budget == 300
        assert len(cfg.schemes) == 3

    def test_default_density_grid_scales_power_proportionally(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"experiment": "density_sweep"}))
        grid = {area.side_length_m: area.p_max_w for area, _ in cfg.grid}
        assert grid[200.0] == pytest.approx(0.02)
        assert grid[1000.0] == pytest.approx(0.1)

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(write_config(tmp_path, {"experiment": "cdf", "bogus": 1}))
        with pytest.raises(ConfigError, match="unknown area keys"):
            parse_config(write_config(tmp_path, {"experiment": "cdf", "area": {"nope": 2}}))

    def test_all_violations_reported_at_once(self, tmp_path):
        payload = {"experiment": "bad_name", "setups": 0, "stat_budget": 1, "seed": -4}
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, payload))
        message = str(err.value)
        for fragment in ("experiment", "setups", "stat_budget", "seed"):
            assert fragment in message

    def test_json_syntax_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            parse_config(write_config(tmp_path, "{\n  broken"))

    def test_unusual_exponent_accepted_with_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            cfg = parse_config(write_config(
                tmp_path, {"experiment": "cdf", "pc_exponent": -0.5}
            ))
        assert cfg.pc_exponent == -0.5
        assert any("pc_exponent" in record.message for record in caplog.records)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"kappa_grid": 5}, id="kappa_grid-not-list"),
        pytest.param({"schemes": 5}, id="schemes-not-list"),
        pytest.param({"out_dir": 5}, id="out_dir-not-path"),
        pytest.param({"kappa_grid": [0.0, math.nan]}, id="kappa_grid-nan"),
        pytest.param({"pc_exponent": math.nan}, id="pc_exponent-nan"),
        pytest.param({"area": {"side_length_m": math.nan}}, id="side_length_m-nan"),
        pytest.param({"d_grid": [{"d_m": math.inf}]}, id="d_m-inf"),
        pytest.param({"kappa_grid": [True]}, id="kappa_grid-bool"),
        pytest.param({"area": {"ap_count": 2.5}}, id="ap_count-fractional"),
        pytest.param({"d_grid": [{"d_m": "300"}]}, id="d_m-string"),
        pytest.param({"d_grid": [{"d_m": True}]}, id="d_m-bool"),
        pytest.param({"d_grid": [{"d_m": 300.0, "p_max_w": "0.01"}]}, id="p_max_w-string"),
        pytest.param({"schemes": ["MMSE", "MMSE"]}, id="schemes-repeated"),
        pytest.param({"kappa_grid": [HUGE_INT]}, id="kappa_grid-huge-int"),
        pytest.param({"pc_exponent": HUGE_INT}, id="pc_exponent-huge-int"),
        pytest.param({"area": {"side_length_m": HUGE_INT}}, id="side_length_m-huge-int"),
        pytest.param({"d_grid": [{"d_m": HUGE_INT}]}, id="d_m-huge-int"),
        pytest.param({"d_grid": ["ab"]}, id="d_grid-entry-not-object"),
        pytest.param({"area": {"ap_count": HUGE_INT}}, id="ap_count-huge-int"),
        pytest.param({"area": {"ue_count": MAX_COUNT + 1}}, id="ue_count-above-max-count"),
        pytest.param({"setups": MAX_COUNT + 1}, id="setups-above-max-count"),
        pytest.param({"stat_budget": HUGE_INT}, id="stat_budget-huge-int"),
        pytest.param({"eval_budget": MAX_COUNT + 1}, id="eval_budget-above-max-count"),
    ])
    def test_malformed_values_raise_config_error(self, overrides):
        experiment = "density_sweep" if "d_grid" in overrides else "kappa_sweep"
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": experiment, **overrides})

    def test_unknown_experiment_is_rejected_at_parse_naming_it(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="'bogus'"):
            config_from_dict({"experiment": "bogus", "out_dir": str(out)})
        assert not out.exists()

    @pytest.mark.parametrize("carrier_freq_mhz", [0, -5])
    def test_nonpositive_carrier_frequency_is_rejected_at_parse(self, carrier_freq_mhz):
        with pytest.raises(ConfigError, match="carrier_freq_mhz must be > 0"):
            config_from_dict({"experiment": "cdf",
                              "area": {"carrier_freq_mhz": carrier_freq_mhz}})

    def test_invalid_density_area_fails_before_any_setup(self, tmp_path, capsys, monkeypatch):
        # the 200 m point is valid; the 1e300 m one would overflow a squared distance
        raw = {"experiment": "density_sweep", "area": TINY_AREA, "setups": 3,
               "d_grid": [{"d_m": 200.0}, {"d_m": 1e300}], "out_dir": str(tmp_path / "r")}
        with pytest.raises(ConfigError, match=r"d_grid d_m=1e\+300: side_length_m"):
            config_from_dict(raw)
        deployed = []
        monkeypatch.setattr(experiments, "deploy", lambda *args: deployed.append(args))
        assert main(["--config", write_config(tmp_path, raw)]) == 2
        assert "d_m" in capsys.readouterr().err
        assert deployed == []
        assert not (tmp_path / "r").exists()

    def test_non_object_d_grid_entry_is_named_in_the_message(self):
        with pytest.raises(ConfigError, match="d_grid must be a list of objects"):
            config_from_dict({"experiment": "density_sweep", "d_grid": ["ab"]})

    @given(raw=fuzzed_config)
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_config_gives_config_or_config_error(self, raw):
        try:
            cfg = config_from_dict(raw)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.grid and all(points for _, points in cfg.grid)
        for area, _ in cfg.grid:
            area.validate()
        counts = [cfg.setups, cfg.stat_budget, cfg.eval_budget,
                  *(getattr(area, name) for area, _ in cfg.grid for name in _COUNT_FIELDS)]
        assert all(count <= MAX_COUNT for count in counts)


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records `max_workers`, runs tasks inline."""

    def __init__(self, created, max_workers):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestRunExperiment:
    def test_unusable_out_dir_fails_before_any_setup(self, tmp_path, monkeypatch):
        def no_setup(*args):
            raise AssertionError("a setup ran before out_dir was checked")

        monkeypatch.setattr(experiments, "_setup_reports", no_setup)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for out_dir in (blocker, blocker / "sub"):
            cfg = tiny_config(tmp_path, experiment="cdf", out_dir=str(out_dir))
            with pytest.raises(ConfigError, match="output directory"):
                run_experiment(cfg)

    @pytest.mark.parametrize("threads, pools", [(64, [2]), (2, [2]), (1, [])])
    def test_workers_are_capped_at_the_task_count(self, tmp_path, monkeypatch, threads, pools):
        created = []
        monkeypatch.setattr(experiments, "ThreadPoolExecutor",
                            lambda max_workers: RecordingPool(created, max_workers))
        cfg = tiny_config(tmp_path, kappa_grid=[1.0])  # 2 setups: 2 tasks
        rows, _ = run_experiment(cfg, threads=threads)
        assert created == pools
        assert len(rows) == cfg.setups * len(cfg.schemes) * 2 * (cfg.grid[0][0].ue_count + 2)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_first_setup_does_not_depend_on_the_setup_count(self, tmp_path, experiment):
        one, _ = run_experiment(tiny_config(tmp_path, experiment=experiment, setups=1))
        three, _ = run_experiment(tiny_config(tmp_path, experiment=experiment, setups=3))
        first = [row for row in three if row.setup == 0]
        if experiment == "cdf":
            # the CDF coordinates depend on the pooled sample size
            def key(row):
                return (row.scheme, row.bound, row.ue, row.se, row.ci)
            one, first = [key(row) for row in one], [key(row) for row in first]
        assert first == one

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_toy_run_raises_no_runtime_warning(self, tmp_path, experiment):
        # a NaN or an overflow that numpy only warns about fails the run here;
        # the default kappa and d grids span the distance law's whole range
        cfg = config_from_dict({"experiment": experiment, "area": TOY_AREA, "setups": 2,
                                "stat_budget": 20, "eval_budget": 20, "seed": 99,
                                "out_dir": str(tmp_path / "out")})
        rows, _ = run_experiment(cfg)
        assert rows and all(math.isfinite(row.se) and math.isfinite(row.ci) for row in rows)


class TestCsvContract:
    def test_row_count_and_schema(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows, path = run_experiment(cfg)
        (area, points), = cfg.grid
        K = area.ue_count
        expected = len(points) * cfg.setups * len(cfg.schemes) * 2 * (K + 2)
        assert len(rows) == expected

        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "experiment,setup,sweep,scheme,bound,ue,se,ci,stat_draws,eval_draws,seed"
        assert len(lines) == expected + 2

    def test_aggregates_recompute_from_per_ue_rows(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows, _ = run_experiment(cfg)
        groups = {}
        for row in rows:
            groups.setdefault((row.sweep, row.setup, row.scheme, row.bound), []).append(row)
        for rows_in_group in groups.values():
            per_ue = [r for r in rows_in_group if r.ue not in ("min", "sum")]
            agg = {r.ue: r for r in rows_in_group if r.ue in ("min", "sum")}
            values = [r.se for r in per_ue]
            assert agg["min"].se == min(values)
            assert agg["sum"].se == pytest.approx(sum(values), rel=1e-15)

    def test_rerun_is_byte_identical_apart_from_timestamp(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, path_a = run_experiment(cfg)
        body_a = path_a.read_text().splitlines()[1:]
        _, path_b = run_experiment(cfg)
        body_b = path_b.read_text().splitlines()[1:]
        assert body_a == body_b

    def test_thread_count_does_not_change_results(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows_1, path = run_experiment(cfg, threads=1)
        body_1 = path.read_text().splitlines()[1:]
        rows_2, path = run_experiment(cfg, threads=2)
        body_2 = path.read_text().splitlines()[1:]
        rows_4, path = run_experiment(cfg, threads=4)
        body_4 = path.read_text().splitlines()[1:]
        assert body_1 == body_2 == body_4
        assert rows_1 == rows_2 == rows_4

    def test_float_serialization_keeps_17_significant_digits(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows, path = run_experiment(cfg)
        line = path.read_text().splitlines()[2].split(",")
        assert float(line[6]) == rows[0].se  # round-trips exactly


class TestDensitySweep:
    def test_rows_cover_grid_and_power_pairing(self, tmp_path):
        cfg = tiny_config(tmp_path, experiment="density_sweep", setups=1)
        rows, _ = run_experiment(cfg)
        assert sorted({row.sweep for row in rows}) == [250.0, 1000.0]
        # default pairing: p_max proportional to d
        paired = {area.side_length_m: area.p_max_w for area, _ in cfg.grid}
        assert paired[250.0] == pytest.approx(0.025)
        assert paired[1000.0] == pytest.approx(0.1)


class TestCrossExperimentConsistency:
    def test_density_endpoint_matches_cdf_at_same_operating_point(self, tmp_path):
        # the 1000 m density point with the reference p_max is exactly the
        # same configuration the cdf experiment evaluates directly
        area = {**TINY_AREA, "side_length_m": 1000.0, "p_max_w": 0.1}
        common = dict(area=area, setups=2, stat_budget=20, eval_budget=20, seed=7)
        dens = tiny_config(tmp_path, experiment="density_sweep",
                           d_grid=[{"d_m": 1000.0, "p_max_w": 0.1}], **common)
        cdf = tiny_config(tmp_path, experiment="cdf", **common)
        dens_rows, _ = run_experiment(dens)
        cdf_rows, _ = run_experiment(cdf)

        def per_ue(rows):
            return sorted((r.scheme.value, r.bound, r.setup, r.ue, r.se)
                          for r in rows if r.ue not in ("min", "sum"))

        assert per_ue(dens_rows) == per_ue(cdf_rows)


class TestCdfExperiment:
    def test_cdf_coordinates_and_sample_counts(self, tmp_path):
        cfg = tiny_config(tmp_path, experiment="cdf", setups=3)
        rows, _ = run_experiment(cfg)
        K = cfg.grid[0][0].ue_count
        for scheme in cfg.schemes:
            for bound in ("uatf", "cd"):
                sample = [r for r in rows if r.scheme == scheme and r.bound == bound]
                assert len(sample) == cfg.setups * K
                coords = [r.sweep for r in sample]
                ses = [r.se for r in sample]
                assert all(0.0 < c <= 1.0 for c in coords)
                assert coords == sorted(coords)
                assert ses == sorted(ses)

    def test_centralized_curve_dominates_local_curve(self, tmp_path):
        cfg = tiny_config(tmp_path, experiment="cdf", setups=3,
                          stat_budget=80, eval_budget=80)
        rows, _ = run_experiment(cfg)

        def samples(scheme):
            return np.sort([r.se for r in rows
                            if r.scheme.value == scheme and r.bound == "uatf"])

        mmse, lmmse = samples("MMSE"), samples("LMMSE_LSFD")
        grid = np.union1d(mmse, lmmse)
        cdf_m = np.searchsorted(mmse, grid, side="right") / len(mmse)
        cdf_l = np.searchsorted(lmmse, grid, side="right") / len(lmmse)
        # two-sample 95% KS-style allowance
        eps = 1.36 * np.sqrt(2.0 / len(mmse))
        assert np.all(cdf_m <= cdf_l + eps)


class TestCli:
    def test_successful_run_writes_csv(self, tmp_path, capsys):
        payload = {
            "experiment": "kappa_sweep",
            "area": TINY_AREA,
            "setups": 1,
            "stat_budget": 10,
            "eval_budget": 10,
            "kappa_grid": [1.0],
            "out_dir": str(tmp_path / "results"),
        }
        code = main(["--config", write_config(tmp_path, payload)])
        assert code == 0
        assert (tmp_path / "results" / "kappa_sweep.csv").exists()

    def test_experiment_and_out_overrides(self, tmp_path):
        payload = {
            "experiment": "kappa_sweep",
            "area": TINY_AREA,
            "setups": 1,
            "stat_budget": 10,
            "eval_budget": 10,
            "kappa_grid": [1.0],
            "d_grid": [{"d_m": 300.0}],
            "out_dir": str(tmp_path / "unused"),
        }
        out = tmp_path / "o2"
        code = main(["--config", write_config(tmp_path, payload),
                     "--experiment", "density_sweep", "--out", str(out), "--seed", "5"])
        assert code == 0
        assert (out / "density_sweep.csv").exists()
        content = (out / "density_sweep.csv").read_text()
        assert content.splitlines()[2].endswith(",5")

    @pytest.mark.parametrize("experiment, keys, args", [
        ("kappa_sweep", {"d_grid": []}, ["--experiment", "density_sweep"]),
        ("density_sweep", {"kappa_grid": []}, ["--experiment", "kappa_sweep"]),
        ("cdf", {}, ["--seed", "-1"]),
    ])
    def test_overrides_are_validated_like_config_keys(self, tmp_path, experiment, keys, args):
        # each override makes a config that is a ConfigError when written in the file
        out = tmp_path / "r"
        payload = {"experiment": experiment, "area": TINY_AREA, "setups": 1,
                   "stat_budget": 10, "eval_budget": 10, "out_dir": str(out), **keys}
        assert main(["--config", write_config(tmp_path, payload), *args]) == 2
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["--config", write_config(tmp_path, "{}")]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 2
        not_utf8 = tmp_path / "utf16.json"
        not_utf8.write_bytes(b'\xff\xfe{"experiment": "cdf"}')
        assert main(["--config", str(not_utf8)]) == 2
        # an output directory that is a regular file, or lies under one
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for out_dir in (blocker, blocker / "sub"):
            payload = {"experiment": "cdf", "area": TINY_AREA, "setups": 1,
                       "stat_budget": 10, "eval_budget": 10, "out_dir": str(out_dir)}
            assert main(["--config", write_config(tmp_path, payload)]) == 2

    def test_huge_count_exits_with_config_error(self, tmp_path, capsys):
        payload = {"experiment": "cdf", "area": {**TINY_AREA, "ap_count": HUGE_INT},
                   "setups": 1, "out_dir": str(tmp_path / "r")}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert "ap_count" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent", [50.0, -50.0])
    def test_extreme_power_control_exponent_runs(self, tmp_path, exponent):
        # sums**v over- or underflows at |v| = 50, which once ended in a LinAlgError
        payload = {"experiment": "cdf", "area": TOY_AREA,
                   "setups": 1, "stat_budget": 20, "eval_budget": 20,
                   "pc_exponent": exponent, "out_dir": str(tmp_path / "r")}
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        values = se_and_ci(tmp_path / "r" / "cdf.csv")
        assert values and all(math.isfinite(value) for value in values)

    @pytest.mark.parametrize("key, value", [
        ("shadow_std_db", 400.0), ("shadow_std_db", 1e6),
        ("height_diff_m", 0.0), ("height_diff_m", 1e300),
        ("side_length_m", 1e-300), ("side_length_m", 1e130), ("side_length_m", 1e160),
        ("side_length_m", 1e300),
        *[(key, value) for key in ("p_max_w", "pilot_power_w", "noise_power_w")
          for value in (1e-300, 1e300)],
        ("carrier_freq_mhz", 1e300),
        ("d_m", 1e-300), ("d_m", 1e130), ("d_m", 1e300),
    ])
    def test_extreme_area_values_end_in_a_defined_exit(self, tmp_path, capsys, key, value):
        # a run, not only a parse: success with finite results, or exit 2 or 3
        if key == "d_m":
            payload = {"experiment": "density_sweep", "area": TOY_AREA,
                       "d_grid": [{"d_m": value}]}
        else:
            payload = {"experiment": "cdf", "area": {**TOY_AREA, key: value}}
        out = tmp_path / "r"
        payload.update(setups=1, stat_budget=10, eval_budget=10, seed=3, out_dir=str(out))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", write_config(tmp_path, payload)])
        assert code in (0, 2, 3)
        if code == 0:
            values = se_and_ci(out / f"{payload['experiment']}.csv")
            assert values and all(math.isfinite(value) for value in values)
        if (key in ("side_length_m", "d_m", "carrier_freq_mhz") and value > 1e100
                or (key, value) == ("shadow_std_db", 1e6)):
            # every gain underflows (1e130), a squared distance would
            # overflow (1e160, 1e300) or a linear gain would (shadow 1e6):
            # a config error that names the key, raised before numpy warns
            # about anything
            assert code == 2
            assert key in capsys.readouterr().err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_height_with_overflowing_square_exits_with_config_error(self, tmp_path, capsys):
        payload = {"experiment": "cdf", "area": {**TOY_AREA, "height_diff_m": 1e300},
                   "setups": 1, "out_dir": str(tmp_path / "r")}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert "height_diff_m" in capsys.readouterr().err

    @pytest.mark.parametrize("shadow_std_db", [400.0])
    def test_linear_algebra_failure_exits_with_numerical_error(self, tmp_path, capsys,
                                                               shadow_std_db):
        # 400 dB makes a local MMSE system singular in the statistics pass
        payload = {"experiment": "cdf", "area": {**TOY_AREA, "shadow_std_db": shadow_std_db},
                   "setups": 1, "stat_budget": 10, "eval_budget": 10, "seed": 3,
                   "out_dir": str(tmp_path / "r")}
        assert main(["--config", write_config(tmp_path, payload)]) == 3
        assert "setup 0" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch):
        payload = {"experiment": "cdf", "area": TINY_AREA, "setups": 1,
                   "stat_budget": 10, "eval_budget": 10}
        monkeypatch.setattr(
            "cellfree_sim.cli.run_experiment",
            lambda cfg, threads: (_ for _ in ()).throw(NumericalError("diverged")),
        )
        assert main(["--config", write_config(tmp_path, payload)]) == 3
