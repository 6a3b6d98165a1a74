"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a pass line on success; a failing criterion shows up as a
normal pytest failure. The heavyweight conjugate-VAR experiment (criteria
1, 4, 11) runs once as a module fixture and must finish within its wall
budget.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.special import gammaln

from mddkit import estimators as est
from mddkit import lpm as lpm_mod
from mddkit import sfm as sfm_mod
from mddkit import var as var_mod
from mddkit.harness import ExperimentConfig, emit_outputs, run_experiment
from mddkit.modelapi import SamplerConfig
from mddkit.statscore import make_rng, quadrature_1d
from toys import ToyNormalGammaKernel

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def _ok(num, name):
    print(f"[acceptance] criterion {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def conjugate_var_run():
    """Criterion 1's experiment: synthetic N=2, T=80, p=1, 100 reps, S=10^4."""
    cfg = ExperimentConfig(
        model="var-conjugate",
        estimators=["ris-vb", "bs-vb", "is-vb", "ris-pmd", "bs-pmd",
                    "ris-geweke", "ris-prior", "ris-swz"],
        synth={"seed": 1, "n": 2, "t": 80}, options={"p": 1},
        draws=10_000, burn_in=0, repetitions=100, base_seed=99)
    start = time.time()
    table = run_experiment(cfg)
    elapsed = time.time() - start
    rows = {r["method"]: r for r in table.rows}
    return cfg, table, rows, elapsed


@pytest.fixture(scope="module")
def sfm_exp_fixture():
    data = sfm_mod.sfm_synthetic(11, 12, 5, 2, "exponential", [1.0, 0.5], 0.04, 2.0)
    prior = sfm_mod.SfmExpPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 2.0, 1.0)
    kernel = sfm_mod.SfmExpKernel(prior, data)
    vb = kernel.vb_fit()
    return prior, data, kernel, vb


@pytest.fixture(scope="module")
def toy_fixture():
    y = make_rng(200).normal(1.4, 0.8, 20)
    kernel = ToyNormalGammaKernel(y)
    return kernel, kernel.vb_fit(), kernel.exact_log_mdd()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_oracle_agreement(conjugate_var_run):
    cfg, table, rows, elapsed = conjugate_var_run
    exact = table.benchmarks["exact"]
    for method in ("ris-vb", "bs-vb", "is-vb", "ris-pmd", "bs-pmd"):
        row = rows[method]
        assert row["status"] == "ok"
        assert abs(row["mean_log_mdd"] - exact) <= 3.0 * row["nse"], method
    assert rows["ris-vb"]["nse"] < 0.1
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s exceeds the 5 minute budget"
    _ok(1, "exact-oracle agreement, conjugate VAR")


def test_criterion_02_no_factorization_equivalence():
    coeffs = np.array([[0.1, -0.2], [0.5, 0.1], [0.2, 0.4]])
    data = var_mod.var_synthetic(7, 2, 80, 1, coeffs, np.eye(2))
    prior = var_mod.VarConjugatePrior(np.zeros((3, 2)), 10 * np.eye(3), np.eye(2), 4.0)
    vb = var_mod.var_vb_conjugate(prior, data, factorized=False)
    exact = var_mod.var_exact_log_mdd(prior, data)
    assert vb.elbo == pytest.approx(exact, abs=1e-6)
    _ok(2, "joint-family bound equals exact evidence")


def test_criterion_03_lower_bound_law(sfm_exp_fixture):
    # VAR conjugate: exact benchmark available
    coeffs = np.array([[0.1, -0.2], [0.5, 0.1], [0.2, 0.4]])
    var_data = var_mod.var_synthetic(7, 2, 80, 1, coeffs, np.eye(2))
    var_prior = var_mod.VarConjugatePrior(np.zeros((3, 2)), 10 * np.eye(3), np.eye(2), 4.0)
    vb_c = var_mod.var_vb_conjugate(var_prior, var_data)
    assert vb_c.elbo <= var_mod.var_exact_log_mdd(var_prior, var_data)

    # VAR independent prior
    ind_prior = var_mod.VarIndependentPrior(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
    kernel_i = var_mod.VarIndependentKernel(ind_prior, var_data)
    vb_i = kernel_i.vb_fit()
    assert np.all(np.diff(vb_i.elbo_trace) >= -1e-10)
    chains = kernel_i.posterior_chains(SamplerConfig(draws=2500, burn_in=300),
                                       [make_rng(301, r) for r in range(6)], [None] * 6)
    vals = [est.ris_estimate(kernel_i, draws, est.make_vb_weighting(vb_i)).log_mdd
            for draws in chains]
    assert vb_i.elbo <= np.mean(vals) + 3 * np.std(vals, ddof=1)

    # frontier, exponential inefficiency
    prior_e, data_e, kernel_e, vb_e = sfm_exp_fixture
    assert np.all(np.diff(vb_e.elbo_trace) >= -1e-10)
    chains = kernel_e.posterior_chains(SamplerConfig(draws=2500, burn_in=400),
                                       [make_rng(302, r) for r in range(6)], [None] * 6)
    vals = [est.ris_estimate(kernel_e, draws, est.make_vb_weighting(vb_e)).log_mdd
            for draws in chains]
    assert vb_e.elbo <= np.mean(vals) + 3 * np.std(vals, ddof=1)

    # frontier, gamma inefficiency (complete-data kernel; grid-quadrature noise
    # in the bound evaluation justifies the looser per-step slack)
    data_g = sfm_mod.sfm_synthetic(21, 10, 5, 2, "gamma", [1.0, 0.5], 0.04, 2.0, theta=1.5)
    prior_g = sfm_mod.SfmGammaPrior(np.zeros(2), 4 * np.eye(2), 2.0, 0.1, 1.0, 2.0, 2.0)
    kernel_g = sfm_mod.SfmGammaKernel(prior_g, data_g)
    vb_g = kernel_g.vb_fit()
    assert np.all(np.diff(vb_g.elbo_trace) >= -1e-8)
    w_g = sfm_mod.make_sfm_gamma_cdl_weighting(vb_g, kernel_g)
    chains = kernel_g.posterior_chains(SamplerConfig(draws=2500, burn_in=800),
                                       [make_rng(303, r) for r in range(4)], [None] * 4)
    vals = [est.ris_estimate(kernel_g, draws, w_g).log_mdd for draws in chains]
    assert vb_g.elbo <= np.mean(vals) + 3 * np.std(vals, ddof=1)

    # Poisson panel: damped fixed-point updates are exempt from per-step
    # monotonicity but the final bound must hold
    data_l = lpm_mod.lpm_synthetic(40, 15, 5, 2, 1, [0.3, -0.2], [0.1], [[0.3]])
    prior_l = lpm_mod.LpmPrior(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 3.0)
    kernel_l = lpm_mod.LpmKernel(prior_l, data_l)
    vb_l = kernel_l.vb_fit()
    chains = kernel_l.posterior_chains(SamplerConfig(draws=2000, burn_in=600),
                                       [make_rng(304, r) for r in range(5)], [None] * 5, vb=vb_l)
    vals = [est.ris_estimate(kernel_l, draws, est.make_vb_weighting(vb_l)).log_mdd
            for draws in chains]
    assert vb_l.elbo <= np.mean(vals) + 3 * np.std(vals, ddof=1)
    _ok(3, "lower-bound law on all five fixtures")


def test_criterion_04_minimum_variance_ordering(conjugate_var_run):
    _, _, rows, _ = conjugate_var_run
    ris_nse = {m[4:]: rows[m]["nse"] for m in rows if m.startswith("ris-")}
    best = min(ris_nse.values())
    assert ris_nse["vb"] <= 1.1 * best
    assert ris_nse["vb"] < ris_nse["geweke"]
    assert ris_nse["vb"] < ris_nse["prior"]
    _ok(4, "reciprocal-sampling NSE ordering")


def test_criterion_05_reciprocal_unbiasedness(toy_fixture):
    kernel, vb, exact = toy_fixture
    start = time.time()
    weighting = est.make_vb_weighting(vb)
    scaled = np.empty(200)
    # the 200 chains advance in lockstep; each is the chain it gives alone
    chains = kernel.posterior_chains(SamplerConfig(draws=2000, burn_in=300),
                                     [make_rng(500, rep) for rep in range(200)], [None] * 200)
    for rep, draws in enumerate(chains):
        log_recip = -est.ris_estimate(kernel, draws, weighting).log_mdd
        scaled[rep] = math.exp(log_recip + exact)  # target value 1
    se = scaled.std(ddof=1) / math.sqrt(scaled.size)
    assert abs(scaled.mean() - 1.0) <= 3.0 * se
    assert time.time() - start <= 120.0
    _ok(5, "reciprocal estimator unbiasedness")


def test_criterion_06_variance_identity(toy_fixture):
    kernel, vb, exact = toy_fixture
    # p-side: variance of q/p over a long chain
    draws = kernel.posterior_sampler(SamplerConfig(draws=100_000, burn_in=1000),
                                     make_rng(600))
    ratio_p = np.exp(vb.log_q(draws.thetas)
                     - (kernel.log_kernel_batch(draws.thetas) - exact))
    var_p = ratio_p.var(ddof=1)
    # q-side: E_q(q/p) - 1 over i.i.d. draws
    thetas = vb.sample(make_rng(601), 100_000)
    ratio_q = np.exp(vb.log_q(thetas) - (kernel.log_kernel_batch(thetas) - exact))
    rhs = ratio_q.mean() - 1.0
    assert var_p == pytest.approx(rhs, rel=0.20)
    _ok(6, "variance identity Var_p(q/p) = E_q(q/p) - 1")


def test_criterion_07_bridge_sampling_behavior(sfm_exp_fixture, toy_fixture):
    runs = []
    # conjugate VAR
    coeffs = np.array([[0.1, -0.2], [0.5, 0.1], [0.2, 0.4]])
    var_data = var_mod.var_synthetic(7, 2, 80, 1, coeffs, np.eye(2))
    var_prior = var_mod.VarConjugatePrior(np.zeros((3, 2)), 10 * np.eye(3), np.eye(2), 4.0)
    kernel_c = var_mod.VarConjugateKernel(var_prior, var_data)
    runs.append((kernel_c, kernel_c.posterior_sampler(SamplerConfig(draws=4000), make_rng(700)),
                 est.make_vb_weighting(kernel_c.vb_fit())))
    # independent VAR
    ind_prior = var_mod.VarIndependentPrior(np.zeros(6), 10 * np.eye(6), np.eye(2), 4.0)
    kernel_i = var_mod.VarIndependentKernel(ind_prior, var_data)
    runs.append((kernel_i,
                 kernel_i.posterior_sampler(SamplerConfig(draws=3000, burn_in=400), make_rng(701)),
                 est.make_vb_weighting(kernel_i.vb_fit())))
    # exponential frontier
    prior_e, data_e, kernel_e, vb_e = sfm_exp_fixture
    runs.append((kernel_e,
                 kernel_e.posterior_sampler(SamplerConfig(draws=3000, burn_in=400), make_rng(702)),
                 est.make_vb_weighting(vb_e)))
    # toy (normal-gamma)
    kernel_t, vb_t, _ = toy_fixture
    runs.append((kernel_t,
                 kernel_t.posterior_sampler(SamplerConfig(draws=3000, burn_in=300), make_rng(703)),
                 est.make_vb_weighting(vb_t)))
    # Poisson panel
    data_l = lpm_mod.lpm_synthetic(40, 15, 5, 2, 1, [0.3, -0.2], [0.1], [[0.3]])
    prior_l = lpm_mod.LpmPrior(np.zeros(2), 4 * np.eye(2), [0.0], [[4.0]], [[0.5]], 3.0)
    kernel_l = lpm_mod.LpmKernel(prior_l, data_l)
    vb_l = kernel_l.vb_fit()
    runs.append((kernel_l,
                 kernel_l.posterior_sampler(SamplerConfig(draws=2000, burn_in=600),
                                            make_rng(704), vb=vb_l),
                 est.make_vb_weighting(vb_l)))
    for idx, (kernel, draws, weighting) in enumerate(runs):
        result = est.bs_estimate(kernel, draws, weighting, rng=make_rng(705, idx))
        assert result.iterations <= 20, f"fixture {idx}: {result.iterations} iterations"
        trace = result.extras["trace"]
        assert abs(trace[-1] - trace[-2]) < 1e-10
    _ok(7, "bridge recursion converges within budget with a tight fixed point")


def test_criterion_08_sfm_integrated_oracle(sfm_exp_fixture):
    prior, data, kernel, vb = sfm_exp_fixture
    rng = make_rng(800)
    t, c = data.num_periods, data.c
    for _ in range(50):
        beta = rng.normal([1.0, 0.5], 0.3)
        prec = rng.gamma(15.0, 2.0)
        lam = rng.gamma(3.0, 0.8)
        got = sfm_mod.sfm_exp_integrated_loglik(beta, prec, lam, data)[0]
        resid = (data.y - data.x @ beta).reshape(data.num_firms, t)
        oracle = 0.0
        for i in range(data.num_firms):
            e = resid[i]

            def f(u, e=e):
                ll = (-0.5 * t * np.log(2 * np.pi / prec)
                      - 0.5 * prec * ((e[None, :] - c * u[:, None]) ** 2).sum(axis=1))
                return ll + np.log(lam) - lam * u

            oracle += quadrature_1d(f, 0.0, np.inf, tol=1e-12)
        assert got == pytest.approx(oracle, abs=1e-8)

    # repeated-estimation comparison of the integrated vs complete-data routes
    cdl = kernel.as_complete_data()
    w_int = est.make_vb_weighting(vb)
    w_cdl = sfm_mod.make_sfm_exp_cdl_weighting(vb, cdl)
    vals_int, vals_cdl = [], []
    for draws in kernel.posterior_chains(SamplerConfig(draws=3000, burn_in=400),
                                         [make_rng(801, rep) for rep in range(16)], [None] * 16):
        vals_int.append(est.ris_estimate(kernel, draws, w_int).log_mdd)
        cdl_draws = draws.complete_data(cdl.layout)
        vals_cdl.append(est.ris_estimate(cdl, cdl_draws, w_cdl).log_mdd)
    nse_int = np.std(vals_int, ddof=1)
    nse_cdl = np.std(vals_cdl, ddof=1)
    combined = math.hypot(nse_int, nse_cdl)
    assert abs(np.mean(vals_int) - np.mean(vals_cdl)) <= 3.0 * combined
    assert nse_cdl >= nse_int
    _ok(8, "integrated-likelihood oracle and efficiency ordering")


def test_criterion_09_gamma_special_functions():
    for shape in (0.5, 1.0, 2.0, 5.0):
        for slope in (-3.0, 0.0, 3.0):
            for prec in (0.5, 4.0):
                factor = sfm_mod.GammaCaseInefficiency(shape, prec, slope)
                norm = quadrature_1d(lambda u: factor.logpdf_batch(u), 0.0, np.inf, tol=1e-10)
                assert abs(norm) < 1e-6
                m1 = math.exp(quadrature_1d(lambda u: np.log(u) + factor.logpdf_batch(u),
                                            0.0, np.inf, tol=1e-12))
                m2 = math.exp(quadrature_1d(lambda u: 2 * np.log(u) + factor.logpdf_batch(u),
                                            0.0, np.inf, tol=1e-12))
                assert factor.moment(1) == pytest.approx(m1, rel=1e-6, abs=1e-9)
                assert factor.moment(2) == pytest.approx(m2, rel=1e-6, abs=1e-9)
    _ok(9, "nonstandard factor normalization and moment ratios")


def test_criterion_10_lpm_micro_oracle():
    data = lpm_mod.lpm_synthetic(32, 2, 2, 1, 1, [0.3], [0.2], [[0.3]])
    prior = lpm_mod.LpmPrior([0.0], [[4.0]], [0.2], [[1e-8]], [[0.3e8]], 1e8)
    kernel = lpm_mod.LpmKernel(prior, data, nodes=41)
    vb = lpm_mod.lpm_vb(lpm_mod.LpmKernel(prior, data), tol=1e-10, max_iter=2000)

    def subject_integral(beta, i):
        t = data.num_periods
        yi = data.y[t * i: t * (i + 1)]
        xi = data.x[t * i: t * (i + 1), 0]
        ai = data.offsets[t * i: t * (i + 1)]

        def f(u):
            eta = ai[None, :] + xi[None, :] * beta + u[:, None]
            ll = np.sum(yi[None, :] * eta - np.exp(eta) - gammaln(yi + 1)[None, :], axis=1)
            return ll - 0.5 * np.log(2 * np.pi * 0.3) - 0.5 * (u - 0.2) ** 2 / 0.3

        return quadrature_1d(f, -12.0, 12.0, tol=1e-11)

    def outer(bv):
        out = np.empty(len(bv))
        for idx, b in enumerate(bv):
            out[idx] = (subject_integral(b, 0) + subject_integral(b, 1)
                        - 0.5 * math.log(2 * math.pi * 4.0) - 0.5 * b * b / 4.0)
        return out

    evidence = quadrature_1d(outer, -8.0, 8.0, tol=1e-9)
    weighting = est.make_vb_weighting(vb)
    ris_vals, bs_vals = [], []
    chains = kernel.posterior_chains(SamplerConfig(draws=3000, burn_in=500),
                                     [make_rng(1000, rep) for rep in range(8)], [None] * 8, vb=vb)
    for rep, draws in enumerate(chains):
        log_k = kernel.log_kernel_batch(draws.thetas)
        ris_vals.append(est.ris_estimate(kernel, draws, weighting, log_k).log_mdd)
        bs_vals.append(est.bs_estimate(kernel, draws, weighting, rng=make_rng(1001, rep),
                                       log_kernel_values=log_k).log_mdd)
    for vals in (ris_vals, bs_vals):
        nse = np.std(vals, ddof=1)
        assert abs(np.mean(vals) - evidence) <= 3.0 * nse + 1e-4
    assert vb.elbo <= evidence
    _ok(10, "Poisson-panel micro oracle via three-dimensional quadrature")


def test_criterion_11_harmonic_mean_pathology(conjugate_var_run):
    _, table, rows, _ = conjugate_var_run
    exact = table.benchmarks["exact"]
    prior_row, vb_row = rows["ris-prior"], rows["ris-vb"]
    assert prior_row["mean_log_mdd"] - exact >= 5.0
    assert prior_row["nse"] >= 5.0 * vb_row["nse"]
    _ok(11, "prior-weighting pathology reproduced")


def test_criterion_12_experiment_determinism(tmp_path):
    cfg = ExperimentConfig(model="var-conjugate", estimators=["ris-vb", "bs-vb"],
                           synth={"seed": 5, "n": 2, "t": 50}, options={"p": 1},
                           draws=1200, burn_in=0, repetitions=3, base_seed=7)
    first = emit_outputs(run_experiment(cfg), tmp_path / "a", formats=("csv", "json", "svg"))
    second = emit_outputs(run_experiment(cfg), tmp_path / "b", formats=("csv", "json", "svg"))
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes()
    _ok(12, "byte-identical repeated experiment outputs")


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "us_macro.csv")),
                    reason="original macro dataset not supplied (place data/us_macro.csv)")
def test_criterion_13a_var_paper_targets():
    data, _ = var_mod.var_read_csv(os.path.join(DATA_DIR, "us_macro.csv"), 4)
    prior = var_mod.VarConjugatePrior(np.zeros((data.K, data.N)),
                                      10 * np.eye(data.K), np.eye(data.N), data.N + 2.0)
    assert var_mod.var_exact_log_mdd(prior, data) == pytest.approx(2910.1, abs=0.2)


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "us_macro.csv")),
                    reason="original macro dataset not supplied (place data/us_macro.csv)")
def test_criterion_13a2_var_independent_paper_target():
    data, _ = var_mod.var_read_csv(os.path.join(DATA_DIR, "us_macro.csv"), 4)
    nk = data.N * data.K
    prior = var_mod.VarIndependentPrior(np.zeros(nk), 10 * np.eye(nk),
                                        np.eye(data.N), data.N + 2.0)
    kernel = var_mod.VarIndependentKernel(prior, data)
    vb = kernel.vb_fit()
    draws = kernel.posterior_sampler(SamplerConfig(draws=10_000, burn_in=1000), make_rng(12))
    result = est.ris_estimate(kernel, draws, est.make_vb_weighting(vb))
    assert result.log_mdd == pytest.approx(2882.1, abs=0.2)


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "rice_farms.csv")),
                    reason="original rice-farm panel not supplied (place data/rice_farms.csv)")
def test_criterion_13b_sfm_paper_target():
    data = sfm_mod.sfm_read_csv(os.path.join(DATA_DIR, "rice_farms.csv"))
    prior = sfm_mod.SfmExpPrior(np.zeros(data.k), 4 * np.eye(data.k), 2.0, 0.1, 2.0, 1.0)
    kernel = sfm_mod.SfmExpKernel(prior, data)
    vb = kernel.vb_fit()
    draws = kernel.posterior_sampler(SamplerConfig(draws=10_000, burn_in=1000), make_rng(13))
    result = est.ris_estimate(kernel, draws, est.make_vb_weighting(vb))
    assert result.log_mdd == pytest.approx(-117.1, abs=0.1)


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "seizures.csv")),
                    reason="original seizure panel not supplied (place data/seizures.csv)")
def test_criterion_13c_lpm_paper_target():
    data = lpm_mod.lpm_read_csv(os.path.join(DATA_DIR, "seizures.csv"))
    prior = lpm_mod.LpmPrior(np.zeros(data.k), 4 * np.eye(data.k), np.zeros(data.m),
                             4 * np.eye(data.m), np.eye(data.m) * 0.5, data.m + 2.0)
    kernel = lpm_mod.LpmKernel(prior, data)
    vb = kernel.vb_fit()
    draws = kernel.posterior_sampler(SamplerConfig(draws=10_000, burn_in=1000),
                                     make_rng(14), vb=vb)
    result = est.ris_estimate(kernel, draws, est.make_vb_weighting(vb))
    assert result.log_mdd == pytest.approx(-915.3, abs=0.2)
