"""Experiment runner, config grammar, output schemas and the CLI."""

import json
import math

import numpy as np
import pytest

from mddkit import harness
from mddkit.cli import main as cli_main
from mddkit.errors import ConfigError
from mddkit.harness import (
    ESTIMATOR_IDS,
    ExperimentConfig,
    config_from_mapping,
    emit_outputs,
    load_data,
    parse_config_file,
    run_experiment,
)
from mddkit.lpm import lpm_read_csv
from mddkit.models import MODELS
from mddkit.sfm import sfm_read_csv
from mddkit.var import var_read_csv

TINY = dict(model="var-conjugate", synth={"seed": 5, "n": 2, "t": 50},
            options={"p": 1}, draws=1200, burn_in=0, repetitions=3, base_seed=7)


@pytest.fixture(scope="module")
def tiny_table():
    cfg = ExperimentConfig(estimators=["ris-vb", "bs-vb", "ris-prior"], **TINY)
    return cfg, run_experiment(cfg)


class TestConfig:
    def test_grammar_roundtrip(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# comment\n"
            "model = var-conjugate\n"
            "estimators = ris-vb,bs-vb\n"
            "draws = 500\n"
            "upper_bound = 12.5\n"
            "synth.seed = 3\n"
            "synth.n = 2\n"
            "options.p = 2\n")
        mapping = parse_config_file(path)
        assert mapping["model"] == "var-conjugate"
        assert mapping["estimators"] == ["ris-vb", "bs-vb"]
        assert mapping["draws"] == 500 and isinstance(mapping["draws"], int)
        assert mapping["upper_bound"] == 12.5
        assert mapping["synth"] == {"seed": 3, "n": 2}
        cfg = config_from_mapping(mapping)
        assert cfg.options == {"p": 2}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("model var-conjugate\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="unknown estimators"):
            ExperimentConfig(model="var-conjugate", estimators=["ris-bogus"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping({"model": "var-conjugate", "bogus_key": 1})

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="var-conjugate", repetitions=0)

    def test_unread_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"synth keys \['nn'\]; it reads \['ar_diag', "
                                              r"'n', 'seed', 't'\]"):
            ExperimentConfig(model="var-conjugate", synth={"nn": 5})
        with pytest.raises(ConfigError, match=r"options keys \['prior_scal'\]; it reads "
                                              r"\['p', 'prior_dof', 'prior_scale'\]"):
            ExperimentConfig(model="var-conjugate", options={"prior_scal": 3.0})
        # the exponential frontier has no shape parameter
        with pytest.raises(ConfigError, match="theta"):
            ExperimentConfig(model="sfm-exponential", synth={"theta": 2.0})
        # data from a CSV reads no synth key
        with pytest.raises(ConfigError, match=r"it reads \[\] \(data_csv is set\)"):
            ExperimentConfig(model="lpm", data_csv="panel.csv", synth={"seed": 2})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model 'var'"):
            ExperimentConfig(model="var")


class TestRunExperiment:
    def test_rows_and_benchmarks(self, tiny_table):
        _, table = tiny_table
        assert {r["method"] for r in table.rows} == {"ris-vb", "bs-vb", "ris-prior"}
        assert "exact" in table.benchmarks and "vblb" in table.benchmarks
        for row in table.rows:
            assert row["status"] == "ok"
            assert row["repetitions"] == 3

    def test_estimates_near_exact(self, tiny_table):
        _, table = tiny_table
        exact = table.benchmarks["exact"]
        for row in table.rows:
            if row["method"] == "ris-prior":
                continue
            assert row["mean_log_mdd"] == pytest.approx(exact, abs=3 * row["nse"] + 1e-6)

    def test_ris_vb_always_in_bounds(self, tiny_table):
        _, table = tiny_table
        vb_row = next(r for r in table.rows if r["method"] == "ris-vb")
        assert vb_row["pct_in_bounds"] == 100.0

    def test_single_repetition_has_no_nse(self):
        cfg = ExperimentConfig(estimators=["ris-vb"], **{**TINY, "repetitions": 1})
        table = run_experiment(cfg)
        assert table.rows[0]["nse"] is None

    def test_failed_cell_recorded_and_run_continues(self):
        # chib needs a full conditional for every block; the Poisson panel has none for beta
        cfg = ExperimentConfig(model="lpm", estimators=["ris-vb", "chib"],
                               synth={"seed": 2, "n": 4, "t": 3, "k": 1, "m": 1,
                                      "beta": [0.2], "mu": [0.1]},
                               draws=400, burn_in=200, repetitions=2, base_seed=3)
        table = run_experiment(cfg)
        by_method = {r["method"]: r for r in table.rows}
        assert by_method["ris-vb"]["status"] == "ok"
        assert by_method["chib"]["status"].startswith("FAILED(")

    def test_non_finite_estimate_fails_only_its_repetition(self, monkeypatch, tiny_table):
        run_method = harness._run_method

        def nan_at_rep_1(method, bundle):
            result = run_method(method, bundle)
            if method == "ris-vb" and bundle.rep == 1:
                result.log_mdd = math.nan
            return result

        monkeypatch.setattr(harness, "_run_method", nan_at_rep_1)
        table = run_experiment(ExperimentConfig(estimators=["ris-vb", "ris-prior"], **TINY))
        rows = {r["method"]: r for r in table.rows}
        assert rows["ris-vb"]["status"] == "FAILED(NumericError: non-finite log_mdd (nan))"
        assert rows["ris-vb"]["repetitions"] == 2
        assert rows["ris-prior"]["status"] == "ok" and rows["ris-prior"]["repetitions"] == 3
        # the other repetitions keep the values an unpatched run gives them
        kept = [v for r, m, v in tiny_table[1].scatter if m == "ris-vb" and r != 1]
        assert rows["ris-vb"]["mean_log_mdd"] == pytest.approx(np.mean(kept), rel=1e-15)
        assert math.isnan(next(v for r, m, v in table.scatter if (r, m) == (1, "ris-vb")))

    def test_sfm_gamma_default_list_all_ok(self):
        # every default estimator, bs-vb and is-vb included, samples the VB weighting
        cfg = ExperimentConfig(model="sfm-gamma", synth={"seed": 1, "n": 6, "t": 4},
                               draws=500, burn_in=200, repetitions=2, base_seed=9)
        table = run_experiment(cfg)
        assert [r["method"] for r in table.rows] == cfg.estimators
        assert all(r["status"] == "ok" for r in table.rows)
        assert all(math.isfinite(v) for _, _, v in table.scatter)

    def test_seed_isolation_across_estimator_lists(self):
        full = ExperimentConfig(estimators=["ris-vb", "bs-vb", "ris-prior"], **TINY)
        subset = ExperimentConfig(estimators=["ris-vb"], **TINY)
        t_full = run_experiment(full)
        t_sub = run_experiment(subset)
        vals_full = {(r, m): v for r, m, v in t_full.scatter if m == "ris-vb"}
        vals_sub = {(r, m): v for r, m, v in t_sub.scatter}
        assert vals_full == vals_sub

    def test_estimator_ids_are_stable(self):
        # frozen registry: renumbering silently breaks seed isolation
        assert ESTIMATOR_IDS["ris-vb"] == 1
        assert ESTIMATOR_IDS["chib"] == 13
        assert len(set(ESTIMATOR_IDS.values())) == len(ESTIMATOR_IDS)


class TestOutputs:
    def test_byte_identical_reruns(self, tmp_path, tiny_table):
        cfg, _ = tiny_table
        a = emit_outputs(run_experiment(cfg), tmp_path / "a", formats=("csv", "json", "svg"))
        b = emit_outputs(run_experiment(cfg), tmp_path / "b", formats=("csv", "json", "svg"))
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_json_schema(self, tmp_path, tiny_table):
        cfg, table = tiny_table
        emit_outputs(table, tmp_path, formats=("json",))
        payload = json.loads((tmp_path / "table.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["model"] == "var-conjugate"
        assert len(payload["rows"]) == 3
        assert all("mean_log_mdd" in r for r in payload["rows"])

    def test_scatter_has_reps_times_methods_rows(self, tmp_path, tiny_table):
        cfg, table = tiny_table
        emit_outputs(table, tmp_path, formats=("csv",))
        lines = (tmp_path / "scatter.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == cfg.repetitions * len(cfg.estimators)

    def test_svg_renders_one_point_per_estimate(self, tmp_path, tiny_table):
        cfg, table = tiny_table
        emit_outputs(table, tmp_path, formats=("svg",))
        svg = (tmp_path / "scatter.svg").read_text()
        # one circle per estimate plus one legend swatch per method
        assert svg.count("<circle") == cfg.repetitions * len(cfg.estimators) + len(cfg.estimators)


class TestDataCsv:
    # the family reader of each model and the data fields it must give back
    READERS = {
        "var-conjugate": (lambda path: var_read_csv(path, 1)[0], ("Y", "X")),
        "var-independent": (lambda path: var_read_csv(path, 1)[0], ("Y", "X")),
        "sfm-exponential": (sfm_read_csv, ("y", "x")),
        "sfm-gamma": (sfm_read_csv, ("y", "x")),
        "lpm": (lpm_read_csv, ("y", "x", "z", "offsets")),
    }

    # period labels past 9 and unit labels past 999 must come back in order
    @pytest.mark.parametrize("model, synth", [pytest.param(m, {}, id=m) for m in sorted(MODELS)] + [
        pytest.param(m, {key: size}, id=f"{m}-{key}{size}")
        for m in ("sfm-exponential", "lpm") for key, size in (("t", 12), ("n", 1001))])
    def test_writer_round_trips(self, tmp_path, model, synth):
        data = load_data(ExperimentConfig(model=model, synth=synth))
        MODELS[model].write_csv(data, tmp_path / "data.csv")
        reader, fields = self.READERS[model]
        back = reader(tmp_path / "data.csv")
        for name in fields:
            assert np.array_equal(getattr(back, name), getattr(data, name)), name

    def test_lpm_writer_rejects_two_effects(self, tmp_path):
        # the CSV would read back as a one-effect panel
        data = load_data(ExperimentConfig(model="lpm", synth={"m": 2}))
        with pytest.raises(ConfigError, match="no z columns"):
            MODELS["lpm"].write_csv(data, tmp_path / "data.csv")
        assert not (tmp_path / "data.csv").exists()
        conf = tmp_path / "exp.conf"
        conf.write_text("model = lpm\nsynth.m = 2\n")
        rc = cli_main(["synth", "--config", str(conf), "--out", str(tmp_path / "cli")])
        assert rc == 2
        assert not (tmp_path / "cli" / "synthetic.csv").exists()


class TestCli:
    def test_experiment_roundtrip_and_exit_codes(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("model = var-conjugate\nestimators = ris-vb\n"
                        "draws = 800\nburn_in = 0\nrepetitions = 2\nbase_seed = 11\n"
                        "synth.seed = 4\nsynth.n = 2\nsynth.t = 40\noptions.p = 1\n")
        rc = cli_main(["experiment", "--config", str(conf), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "table.csv").exists()
        assert (tmp_path / "out" / "table.json").exists()

    def test_cli_flag_overrides(self, tmp_path):
        rc = cli_main(["estimate", "--model", "var-conjugate", "--draws", "600",
                       "--burn-in", "0", "--estimators", "ris-vb", "--seed", "3",
                       "--out", str(tmp_path / "o2")])
        assert rc == 0

    def test_failing_cell_gives_nonzero_exit(self, tmp_path):
        rc = cli_main(["estimate", "--model", "lpm", "--draws", "300",
                       "--burn-in", "100", "--estimators", "ris-vb,chib",
                       "--out", str(tmp_path / "o3")])
        assert rc == 1

    def test_synth_then_ingest(self, tmp_path):
        rc = cli_main(["synth", "--model", "sfm-exponential", "--out", str(tmp_path)])
        assert rc == 0
        rc = cli_main(["estimate", "--model", "sfm-exponential",
                       "--data", str(tmp_path / "synthetic.csv"),
                       "--draws", "500", "--burn-in", "100",
                       "--estimators", "ris-vb", "--out", str(tmp_path / "o4")])
        assert rc == 0

    def test_missing_model_is_config_error(self, tmp_path):
        rc = cli_main(["estimate", "--out", str(tmp_path / "o5")])
        assert rc == 2
