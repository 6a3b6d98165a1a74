"""Experiment runner, config grammar, output schemas and the CLI."""

import dataclasses
import functools
import gc
import json
import math
import weakref

import numpy as np
import pytest

from mddkit import harness, lpm, sfm, var
from mddkit.cli import main as cli_main
from mddkit.errors import ConfigError, NumericError
from mddkit.harness import (
    ESTIMATORS,
    ExperimentConfig,
    config_from_mapping,
    emit_outputs,
    load_data,
    parse_config_file,
    run_experiment,
)
from mddkit.lpm import lpm_read_csv
from mddkit.models import MODELS
from mddkit.sfm import SfmExpCdlKernel, SfmExpKernel, sfm_read_csv
from mddkit.var import var_read_csv

# every kernel class with a VB fit of its own, the refusing default included
_VB_FIT_CLASSES = list(dict.fromkeys(
    cls for module in (var, sfm, lpm) for cls in vars(module).values()
    if isinstance(cls, type) and "vb_fit" in vars(cls)))

TINY = dict(model="var-conjugate", synth={"seed": 5, "n": 2, "t": 50},
            options={"p": 1}, draws=1200, burn_in=0, repetitions=3, base_seed=7)


@pytest.fixture(scope="module")
def gibbs_table():
    """A short sfm-exponential experiment, its three chains sampled as one group."""
    cfg = ExperimentConfig(model="sfm-exponential", synth={"seed": 2},
                           estimators=["ris-vb", "chib"], draws=200, burn_in=50, repetitions=3,
                           base_seed=5)
    return cfg, run_experiment(cfg)


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

    def test_is_prior_is_retired(self):
        # the prior weighting has no sampler, so is-prior could run on no model
        with pytest.raises(ConfigError, match=r"unknown estimators: \['is-prior'\]"):
            ExperimentConfig(model="var-conjugate", estimators=["is-prior"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping({"model": "var-conjugate", "bogus_key": 1})

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="var-conjugate", repetitions=0)

    @pytest.mark.parametrize("lengths", [{"draws": 0}, {"draws": -5}, {"burn_in": -3},
                                         {"thin": 0}, {"thin": -1}])
    def test_bad_chain_lengths_rejected(self, lengths):
        name = next(iter(lengths))
        with pytest.raises(ConfigError, match=f"{name} must be >= "):
            ExperimentConfig(model="sfm-exponential", **lengths)

    @pytest.mark.parametrize("counts", [{"pmd_components": 0}, {"pmd_components": -3},
                                        {"is_draws": -5}, {"weighting_draws": -5}])
    def test_bad_counts_rejected(self, counts):
        name = next(iter(counts))
        with pytest.raises(ConfigError, match=f"{name} must be "):
            ExperimentConfig(model="var-conjugate", **counts)

    @pytest.mark.parametrize("counts", [{"repetitions": 2.5}, {"draws": "lots"},
                                        {"burn_in": 100.0}, {"thin": True},
                                        {"pmd_components": 2.5}, {"is_draws": "500"},
                                        {"weighting_draws": 1e3}])
    def test_non_integer_counts_rejected(self, counts):
        name = next(iter(counts))
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got "):
            ExperimentConfig(model="var-conjugate", **counts)

    # each as the config grammar parses its one bad line
    @pytest.mark.parametrize("mapping", [{"upper_bound": True}, {"upper_bound": "abc"},
                                         {"upper_bound": math.nan}, {"estimators": 3},
                                         {"synth": 5}, {"synth": 0}, {"options": "abc"},
                                         {"data_csv": 7}])
    def test_values_of_the_wrong_type_rejected(self, mapping):
        name = next(iter(mapping))
        with pytest.raises(ConfigError, match=f"{name} must be "):
            config_from_mapping({"model": "var-conjugate", **mapping})

    def test_upper_bound_is_stored_as_float(self):
        assert repr(ExperimentConfig(model="var-conjugate", upper_bound=-3).upper_bound) == "-3.0"

    def test_zero_draw_counts_mean_unset(self):
        ExperimentConfig(model="var-conjugate", is_draws=0, weighting_draws=0)

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

    def test_programming_error_propagates(self, monkeypatch):
        run_method = harness._run_method

        def type_error_at_rep_1(method, bundle):
            if method == "ris-prior" and bundle.rep == 1:
                raise TypeError("a bug, not a failed cell")
            return run_method(method, bundle)

        monkeypatch.setattr(harness, "_run_method", type_error_at_rep_1)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(ExperimentConfig(estimators=["ris-vb", "ris-prior"], **TINY))

    def test_failed_chain_fails_only_its_repetition(self, monkeypatch, tiny_table):
        cfg, unpatched = tiny_table
        sample_chains = harness.sample_chains

        def fail_at_rep_1(kernel, config, reps):
            if 1 in reps:
                raise NumericError("chain left the support")
            return sample_chains(kernel, config, reps)

        monkeypatch.setattr(harness, "sample_chains", fail_at_rep_1)
        seen = []
        table = run_experiment(cfg, progress=seen.append)
        assert seen == [0, 1, 2]
        for row in table.rows:
            assert row["status"] == "FAILED(NumericError: chain left the support)"
            assert row["repetitions"] == 2
        # the other repetitions keep the values an unpatched run gives them
        kept = {(r, m): v for r, m, v in unpatched.scatter if r != 1}
        assert {(r, m): v for r, m, v in table.scatter if r != 1} == kept
        assert all(math.isnan(v) for r, _, v in table.scatter if r == 1)
        assert len(table.scatter) == len(unpatched.scatter)

    def test_programming_error_in_the_chain_propagates(self, monkeypatch, tiny_table):
        sample_chains = harness.sample_chains

        def type_error_at_rep_1(kernel, config, reps):
            if 1 in reps:
                raise TypeError("a bug, not a failed chain")
            return sample_chains(kernel, config, reps)

        monkeypatch.setattr(harness, "sample_chains", type_error_at_rep_1)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(tiny_table[0])

    def test_failed_chain_in_a_group_fails_only_its_repetition(self, monkeypatch, gibbs_table):
        # repetition 1's chain raises mid-run inside a group of three lockstep chains
        cfg, unpatched = gibbs_table
        tagged, sweeps, stacks = [], {}, []
        make_rng, sweep = harness.make_rng, SfmExpKernel.gibbs_sweep

        def tag_rep_1(base_seed, *path):
            rng = make_rng(base_seed, *path)
            if path == (1, 0):
                tagged.append(rng)  # kept alive, so its id stays its own
            return rng

        def fail_at_sweep_100(self, state, rngs, clamped, steps):
            stacks.append(len(rngs))
            for rng in rngs:
                if any(rng is t for t in tagged):
                    sweeps[id(rng)] = sweeps.get(id(rng), 0) + 1
                    if sweeps[id(rng)] == 100:
                        raise NumericError("chain left the support")
            return sweep(self, state, rngs, clamped, steps)

        monkeypatch.setattr(harness, "make_rng", tag_rep_1)
        monkeypatch.setattr(SfmExpKernel, "gibbs_sweep", fail_at_sweep_100)
        table = run_experiment(cfg)
        assert stacks[0] == 3 and len(tagged) == 2  # the group, then rep 1 alone
        for row in table.rows:
            assert row["status"] == "FAILED(NumericError: chain left the support)"
            assert row["repetitions"] == 2
        kept = {(r, m): v for r, m, v in unpatched.scatter if r != 1}
        assert {(r, m): v for r, m, v in table.scatter if r != 1} == kept
        assert all(math.isnan(v) for r, _, v in table.scatter if r == 1)
        assert len(table.scatter) == len(unpatched.scatter)

    def test_programming_error_in_a_group_propagates(self, monkeypatch, gibbs_table):
        sweep = SfmExpKernel.gibbs_sweep

        def type_error(self, state, rngs, clamped, steps):
            if len(rngs) == 3:
                raise TypeError("a bug, not a failed chain")
            return sweep(self, state, rngs, clamped, steps)

        monkeypatch.setattr(SfmExpKernel, "gibbs_sweep", type_error)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(gibbs_table[0])

    def test_results_do_not_depend_on_the_group_size(self, monkeypatch, gibbs_table):
        # 5 repetitions: groups of one, of three then two, and one group of five
        cfg = dataclasses.replace(gibbs_table[0], repetitions=5)
        kernel = harness.build_context(cfg)
        per_chain = cfg.draws * (kernel.layout.dim + kernel.latent_layout.dim)
        tables = []
        for group, expected in ((1, 1), (3, 3), (16, 5)):
            monkeypatch.setattr(harness, "_GROUP_ELEMENTS", group * per_chain)
            assert harness._group_size(kernel, cfg) == expected
            tables.append(run_experiment(cfg))
        for table in tables[1:]:
            assert table.scatter == tables[0].scatter and table.rows == tables[0].rows

    def test_group_size_bounds_the_draws_a_group_holds(self):
        # 2**21 entries over 2,000 draws of 4 parameters and 20 latents: 43 chains
        cfg = ExperimentConfig(model="sfm-exponential", synth={"seed": 2}, draws=2000,
                               repetitions=100)
        kernel = harness.build_context(cfg)
        assert harness._group_size(kernel, cfg) == 2 ** 21 // (2000 * 24) == 43
        assert harness._group_size(kernel, dataclasses.replace(cfg, repetitions=5)) == 5
        assert harness._group_size(kernel, dataclasses.replace(cfg, draws=10 ** 6)) == 1
        # a kernel that draws its chains one by one gains nothing from a group
        exact = harness.build_context(ExperimentConfig(**TINY))
        assert harness._group_size(exact, ExperimentConfig(**TINY)) == 1

    def test_each_chain_of_a_group_owns_its_draws(self, gibbs_table):
        # no chain is a view into a group array, so each is freed with its repetition
        cfg = gibbs_table[0]
        chains = harness.sample_chains(harness.build_context(cfg), cfg, range(3))
        for chain in chains:
            assert chain.thetas.base is None and chain.latents.base is None

    @pytest.mark.parametrize("estimators, chain_calls", [
        pytest.param(None, 0, id="default-list"),
        pytest.param(["ris-vb", "ris-vb-cdl", "bs-vb-cdl"], 1, id="both-cdl-cells"),
    ])
    def test_complete_data_route_built_on_first_use(self, monkeypatch, estimators, chain_calls):
        # the complete-data draws are evaluated once per repetition, and only when a cell asks
        rows = []
        log_kernel_batch = SfmExpCdlKernel.log_kernel_batch

        def counted(self, thetas):
            rows.append(len(thetas))
            return log_kernel_batch(self, thetas)

        monkeypatch.setattr(SfmExpCdlKernel, "log_kernel_batch", counted)
        listed = {} if estimators is None else {"estimators": estimators}
        cfg = ExperimentConfig(model="sfm-exponential", synth={"seed": 2}, draws=300,
                               burn_in=100, weighting_draws=200, repetitions=2, base_seed=5,
                               **listed)
        table = run_experiment(cfg)
        assert all(r["status"] == "ok" for r in table.rows)
        assert rows.count(cfg.draws) == chain_calls * cfg.repetitions
        # the only other calls: bs-vb-cdl's weighting draws, one call per repetition
        assert rows.count(cfg.weighting_draws) == chain_calls * cfg.repetitions
        assert len(rows) == 2 * chain_calls * cfg.repetitions

    def test_repetition_is_freed_without_the_cycle_collector(self):
        # a cycle through a route would keep each repetition's draws alive until a collection
        cfg = ExperimentConfig(model="sfm-exponential", synth={"seed": 2}, draws=200,
                               burn_in=50, repetitions=1, base_seed=5,
                               estimators=["ris-vb", "ris-pmd", "bs-vb-cdl"])
        kernel = harness.build_context(cfg)
        bundle = harness._RepBundle(kernel, cfg, 0, harness.sample_chain(kernel, cfg, 0))
        for method in cfg.estimators:
            harness._run_method(method, bundle)
        freed = weakref.ref(bundle)
        gc.disable()
        try:
            del bundle
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_one_fit_per_experiment(self, model, monkeypatch):
        # build_context fits once; the chains of both groups and every VB
        # weighting read that fit, and no later step fits again
        cfg = ExperimentConfig(model=model, draws=100, burn_in=20, repetitions=2, base_seed=3,
                               estimators=["ris-vb", "bs-vb", "ris-vb-cdl"])
        fits, built, groups, weighted = [], [], [], []
        for cls in _VB_FIT_CLASSES:
            def counted(self, fit=cls.vb_fit):
                fits.append((self, fit(self)))
                return fits[-1][1]
            monkeypatch.setattr(cls, "vb_fit", counted)
        build_context, sample_chains = harness.build_context, harness.sample_chains
        monkeypatch.setattr(harness, "build_context",
                            lambda config: built.append(build_context(config)) or built[-1])
        monkeypatch.setattr(harness, "sample_chains",
                            lambda *args: groups.append(args[2]) or sample_chains(*args))
        monkeypatch.setattr(harness, "_GROUP_ELEMENTS", 1)  # one chain per group
        lpm_vb, lpm_fits = lpm.lpm_vb, []  # lpm's start once fitted again past vb_fit
        monkeypatch.setattr(lpm, "lpm_vb", lambda kernel: lpm_fits.append(1) or lpm_vb(kernel))
        for module, name in ((harness.est, "make_vb_weighting"),
                             (sfm, "make_sfm_exp_cdl_weighting")):
            def recorded(vb, *args, build=getattr(module, name)):
                weighted.append(vb)
                return build(vb, *args)
            monkeypatch.setattr(module, name, recorded)
        run_experiment(cfg)
        assert [kernel for kernel, _ in fits] == built
        assert len(lpm_fits) == (model == "lpm")
        assert built[0].vb is fits[0][1]
        assert [list(reps) for reps in groups] == [[0], [1]]
        # per repetition: the vb weighting, and sfm-exponential's vb-cdl one
        per_rep = 2 if model == "sfm-exponential" else 1
        assert len(weighted) == 2 * per_rep and all(vb is fits[0][1] for vb in weighted)

    def test_sfm_gamma_vb_cells_use_the_vb_weighting(self):
        # the gamma kernel carries the u's and so does its q: "vb" is the fit's q itself
        cfg = ExperimentConfig(model="sfm-gamma", estimators=["ris-vb", "bs-vb", "is-vb"],
                               synth={"seed": 1, "n": 6, "t": 4}, draws=300, burn_in=100,
                               repetitions=1, base_seed=9)
        kernel = harness.build_context(cfg)
        bundle = harness._RepBundle(kernel, cfg, 0, harness.sample_chain(kernel, cfg, 0))
        assert [harness._run_method(m, bundle).method for m in cfg.estimators] == cfg.estimators

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
        assert {name: spec.stream for name, spec in ESTIMATORS.items()} == {
            "ris-vb": 1, "ris-geweke": 2, "ris-swz": 3, "ris-pmd": 4, "ris-prior": 5,
            "bs-vb": 6, "bs-pmd": 7, "bs-normal": 8, "is-vb": 9, "is-pmd": 10,
            "chm": 12, "chib": 13, "ris-vb-cdl": 14, "bs-vb-cdl": 15,
        }


# the status of every estimator on every model at the matrix config; a pair
# missing here runs ("ok")
_NO_PMD_SAMPLER = "UnsupportedModelError: weighting 'pmd' cannot be sampled from"
_MATRIX_FAILURES = {
    **{(model, method): _NO_PMD_SAMPLER
       for model in ("lpm", "sfm-gamma") for method in ("bs-pmd", "is-pmd")},
    ("var-conjugate", "chib"):
        "UnsupportedModelError: VarConjugateKernel lacks a clampable Gibbs sweep",
    ("sfm-gamma", "chib"): "UnsupportedModelError: chib needs a full conditional for "
                           "every block; SfmGammaKernel has none for theta and u",
    ("lpm", "chib"): "UnsupportedModelError: chib needs a full conditional for every "
                     "block; LpmKernel has none for beta",
    **{(model, method): f"UnsupportedModelError: {model} has no complete-data route"
       for model in MODELS if model != "sfm-exponential"
       for method in ("ris-vb-cdl", "bs-vb-cdl")},
}


@functools.cache
def _matrix_row_status(model):
    cfg = ExperimentConfig(model=model, estimators=list(ESTIMATORS), draws=400,
                           burn_in=100, repetitions=2, base_seed=5, synth={"seed": 2})
    return {r["method"]: r["status"] for r in run_experiment(cfg).rows}


@pytest.mark.parametrize("method", list(ESTIMATORS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_estimator_availability_matrix(model, method):
    failure = _MATRIX_FAILURES.get((model, method))
    status = _matrix_row_status(model)[method]
    assert status == ("ok" if failure is None else f"FAILED({failure})")


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

    def test_unknown_format_raises_and_writes_nothing(self, tmp_path, tiny_table):
        _, table = tiny_table
        with pytest.raises(ValueError, match="'jsn'"):
            emit_outputs(table, tmp_path / "out", formats=("csv", "jsn"))
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("args", [["--draws", "0"], ["--draws", "-5"], ["--burn-in", "-3"],
                                      ["--config", "thin = 0"]])
    def test_bad_chain_length_is_config_error(self, tmp_path, capsys, args):
        if args[0] == "--config":
            conf = tmp_path / "exp.conf"
            conf.write_text(args[1] + "\n")
            args = ["--config", str(conf)]
        rc = cli_main(["experiment", "--model", "sfm-exponential", *args,
                       "--out", str(tmp_path / "o6")])
        assert rc == 2
        assert "must be >= " in capsys.readouterr().err
        assert not (tmp_path / "o6").exists()

    @pytest.mark.parametrize("line", ["pmd_components = 0", "is_draws = -5",
                                      "weighting_draws = -5", "draws = lots",
                                      "pmd_components = 2.5"])
    def test_bad_count_is_config_error(self, tmp_path, capsys, line):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"model = var-conjugate\n{line}\n")
        rc = cli_main(["experiment", "--config", str(conf), "--out", str(tmp_path / "o7")])
        assert rc == 2
        assert f"{line.split()[0]} must be " in capsys.readouterr().err
        assert not (tmp_path / "o7").exists()

    def test_value_of_the_wrong_type_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("model = var-conjugate\nupper_bound = true\n")
        rc = cli_main(["experiment", "--config", str(conf), "--out", str(tmp_path / "o10")])
        assert rc == 2
        assert "configuration error: upper_bound must be " in capsys.readouterr().err
        assert not (tmp_path / "o10").exists()

    def test_upper_bound_below_vb_bound_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_chains(*args):
            raise AssertionError("a chain was sampled")

        monkeypatch.setattr(harness, "sample_chains", no_chains)
        rc = cli_main(["experiment", "--model", "var-conjugate", "--draws", "200",
                       "--burn-in", "0", "--reps", "2", "--estimators", "ris-vb",
                       "--upper-bound", "-300", "--out", str(tmp_path / "o8")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "upper_bound -300.0 is below the VB lower bound -" in err
        assert not (tmp_path / "o8").exists()

    def test_missing_model_is_config_error(self, tmp_path):
        rc = cli_main(["estimate", "--out", str(tmp_path / "o5")])
        assert rc == 2

    @pytest.mark.parametrize("model, text", [
        pytest.param("var-conjugate", "", id="var-empty"),
        pytest.param("var-conjugate", "y1,y2\n\n1.0,2.0\n3.0,4.0\n", id="var-blank-first-row"),
        pytest.param("var-conjugate", "y1,y2\n1.0,2.0\n", id="var-shorter-than-lags"),
        pytest.param("sfm-exponential", "", id="panel-empty"),
        pytest.param("sfm-exponential", "firm_id,period,y,x1\nf0,0,1.0,0.5\n\nf0,1,1.2,0.3\n",
                     id="panel-blank-row"),
        pytest.param("sfm-exponential", "firm_id,period,y,x1\nf0,0,1.0\nf0,1,1.2,0.3\n",
                     id="panel-short-row"),
        pytest.param("sfm-gamma", "firm_id,period,y,x1\n", id="panel-header-only"),
        pytest.param("sfm-gamma", "firm_id,period,y,x1\nf0,0,1.0,0.5\nf0,1,1.2,0.3\n"
                     "f0,0,9.0,0.5\n", id="panel-repeated-row"),
        pytest.param("lpm", "", id="lpm-empty"),
        pytest.param("lpm", "subject_id,period,count,x1\n", id="lpm-header-only"),
    ])
    def test_malformed_data_csv_is_config_error(self, tmp_path, capsys, model, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        rc = cli_main(["fit-vb", "--model", model, "--data", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"configuration error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, model, line", [
        ("fit-vb", "sfm-gamma", "options.a_theta = -1"),
        ("fit-vb", "var-conjugate", "options.p = -1"),
        ("fit-vb", "var-conjugate", "options.prior_dof = 1"),
        ("fit-vb", "var-conjugate", "options.prior_scale = 0"),
        ("fit-vb", "lpm", "options.prior_scale_sigma = 0"),
        ("fit-vb", "lpm", "synth.sigma_diag = -1"),
        ("fit-vb", "lpm", "synth.m = 3"),
        ("fit-vb", "sfm-exponential", "options.sign = sideways"),
        ("fit-vb", "sfm-exponential", "synth.k = 0"),
        ("fit-vb", "var-conjugate", "synth.n = 0"),
        ("fit-vb", "var-conjugate", "synth.ar_diag = 1.5"),
        ("fit-vb", "sfm-gamma", "synth.n = abc"),
        ("experiment", "var-conjugate", "base_seed = -1"),
        ("experiment", "var-conjugate", "base_seed = abc"),
        ("experiment", "var-conjugate", "base_seed = 1.5"),
    ])
    def test_value_out_of_range_is_config_error(self, tmp_path, capsys, command, model, line):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"model = {model}\n{line}\nrepetitions = 1\ndraws = 50\nburn_in = 0\n")
        rc = cli_main([command, "--config", str(conf), "--out", str(tmp_path / "o11")])
        assert rc == 2
        assert f"configuration error: {line.split()[0]} must be " in capsys.readouterr().err
        assert not (tmp_path / "o11").exists()

    def test_unknown_format_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "o9"
        out.mkdir()
        rc = cli_main(["estimate", "--model", "var-conjugate", "--format", "csv,jsn",
                       "--out", str(out)])
        assert rc == 2
        assert "unknown output format(s) 'jsn'" in capsys.readouterr().err
        assert not any(out.iterdir())
