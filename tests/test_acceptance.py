"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criteria 6 and 7 share a 30-trial experiment on a fixed synthetic panel and
dominate the runtime (a few minutes); everything else is fast. Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import time
import numpy as np
import pytest
from scipy import stats

from htsreg.baselines import es_forecast, ma_forecast, select_param
from htsreg.cli import main
from htsreg.evaluate import make_epoch_hook
from htsreg.hierarchy import (
    aggregate_bottom,
    build_hierarchy,
    check_coherence,
    structure_matrix,
    summing_matrix,
)
from htsreg.neuralnet import NetworkDims, init_params
from htsreg.panel import SeriesPanel, standardize
from htsreg.reconcile import (
    check_unbiasedness,
    estimate_w_sample,
    mint_reconcile,
)
from htsreg.synthgen import generate_dataset, generate_factors, preset_hierarchy, preset_params
from htsreg.trainer import (
    RegWeights,
    TrainConfig,
    loss_and_grads,
    predict_all_nodes,
    forecast_timepoints,
    train,
    train_all_node_base,
    training_timepoints,
)

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
PANEL_SEED = 7
TRIAL_SEEDS = list(range(1, 31))


def report(number: int, description: str, passed: bool) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def ngtvc_panel():
    panel, _ = standardize(generate_dataset("NgtvC", seed=PANEL_SEED))
    return panel


@pytest.fixture(scope="module")
def paired_trials(ngtvc_panel):
    """30 paired NN+SR(0.0, 2.1) / NN+BU runs at the published settings."""
    h = preset_hierarchy()
    t0 = time.perf_counter()
    runs = {"sr": [], "bu": []}
    for seed in TRIAL_SEEDS:
        cfg = TrainConfig(eta=1e-5, eps=5e-5, max_epochs=10_000, activation="sigmoid", lag=2, seed=seed)
        for key, lam in (("sr", (0.0, 2.1)), ("bu", (0.0, 0.0))):
            result = train(ngtvc_panel, h, RegWeights.build(h, *lam), cfg,
                           epoch_hook=make_epoch_hook(ngtvc_panel, h, cfg))
            runs[key].append(result)
    elapsed = time.perf_counter() - t0
    print(f"[paired trials] 30 seeds x 2 methods in {elapsed:.0f}s")
    return runs


def test_criterion_01_gradient_correctness():
    """Training's analytic gradients match central finite differences at 1e-5/1e-8.

    Both sides come from trainer.loss_and_grads, the function every
    training epoch calls, on a batch of three timepoints.
    """
    t0 = time.perf_counter()
    h = build_hierarchy(SMALL_PARENTS)
    hm = structure_matrix(h)
    rng = np.random.default_rng(0)
    dims = NetworkDims(input_dim=4, hidden_dim=8, output_dim=4)  # lag 1, |B| = 4
    eps = 1e-6
    ok = True
    for lam in (0.0, 0.7, 2.4):
        reg = RegWeights.build(h, lam, lam)
        params = init_params(dims, seed=int(10 * lam) + 1)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((3, 7))
        yu, yb = y[:, :3], y[:, 3:]
        _, g = loss_and_grads(params, x, yb, yu, hm, reg.vec, "sigmoid")
        for arr, ga in ((params.w2, g.w2), (params.b2, g.b2), (params.w3, g.w3), (params.b3, g.b3)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                e_up = loss_and_grads(params, x, yb, yu, hm, reg.vec, "sigmoid")[0]
                arr[idx] = orig - eps
                e_dn = loss_and_grads(params, x, yb, yu, hm, reg.vec, "sigmoid")[0]
                arr[idx] = orig
                fd = (e_up - e_dn) / (2 * eps)
                ok = ok and abs(ga[idx] - fd) <= max(1e-5 * abs(fd), 1e-8)
    elapsed = time.perf_counter() - t0
    report(1, f"gradients match finite differences for lambda in {{0, 0.7, 2.4}} ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_02_zero_lambda_reduction(ngtvc_panel):
    """NN+SR(0,0) and NN+BU share every parameter bit over 100 epochs."""
    t0 = time.perf_counter()
    h = preset_hierarchy()
    cfg = TrainConfig(max_epochs=100, seed=12)

    def run(reg):
        snaps = []

        def hook(epoch, params):
            snaps.append((params.w2.copy(), params.b2.copy(), params.w3.copy(), params.b3.copy()))
            return None

        result = train(ngtvc_panel, h, reg, cfg, epoch_hook=hook)
        trace_hook = make_epoch_hook(ngtvc_panel, h, cfg)
        trace = [trace_hook(i + 1, type("P", (), {"w2": s[0], "b2": s[1], "w3": s[2], "b3": s[3]})())
                 for i, s in enumerate(snaps)]
        return result, snaps, trace

    res_sr, snaps_sr, trace_sr = run(RegWeights.build(h, 0.0, 0.0))
    res_bu, snaps_bu, trace_bu = run(RegWeights.build(h, 0.0, 0.0))
    ok = len(snaps_sr) == len(snaps_bu) == 100
    for sa, sb in zip(snaps_sr, snaps_bu):
        for arr_a, arr_b in zip(sa, sb):
            ok = ok and np.array_equal(arr_a, arr_b)
    ok = ok and np.array_equal(res_sr.objective, res_bu.objective)
    ok = ok and trace_sr == trace_bu
    elapsed = time.perf_counter() - t0
    report(2, f"zero-weight run is bitwise identical to bottom-up training ({elapsed:.2f}s)",
           ok and elapsed < 10.0)


def test_criterion_03_coherence(ngtvc_panel):
    """Bottom-up exact; trace-minimized within 1e-9; SPS = S within 1e-8."""
    h = preset_hierarchy()
    rng = np.random.default_rng(1)
    bu_report = check_coherence(h, aggregate_bottom(h, rng.standard_normal((9, 30))), tol=0.0)

    cfg = TrainConfig(max_epochs=50, seed=2)
    base_run = train_all_node_base(ngtvc_panel, cfg)
    fit_tps = training_timepoints(ngtvc_panel, cfg.lag)
    base_fit = predict_all_nodes(base_run.params, ngtvc_panel, cfg, fit_tps)
    w = estimate_w_sample(base_fit, ngtvc_panel.values[:, [t - 1 for t in fit_tps]])
    base_test = predict_all_nodes(base_run.params, ngtvc_panel, cfg, forecast_timepoints(ngtvc_panel))
    coherent, info = mint_reconcile(h, base_test, w, return_info=True)
    mint_report = check_coherence(h, coherent, tol=1e-9)
    sps = check_unbiasedness(info.p_matrix, summing_matrix(h), tol=1e-8)

    ok = bu_report.max_violation == 0.0 and mint_report.ok and sps.within_tol
    report(3, "bottom-up exactly coherent; trace-minimized within 1e-9; SPS=S within 1e-8", ok)


def test_criterion_04_mint_algebra():
    """Identity-weight projection, fixed points, and scale invariance."""
    h = build_hierarchy(SMALL_PARENTS)
    s = summing_matrix(h)
    rng = np.random.default_rng(2)
    base = rng.standard_normal((7, 12))

    got = mint_reconcile(h, base, np.eye(7))
    b, *_ = np.linalg.lstsq(s, base, rcond=None)
    ols_ok = np.max(np.abs(got - s @ b)) < 1e-10

    coherent_in = aggregate_bottom(h, rng.standard_normal((4, 12)))
    fixed = mint_reconcile(h, coherent_in, np.eye(7))
    fixed_ok = np.max(np.abs(fixed - coherent_in)) < 1e-12

    a = rng.standard_normal((7, 11))
    w = (a @ a.T) / 11 + 0.1 * np.eye(7)
    scale_ok = np.max(np.abs(mint_reconcile(h, base, w) - mint_reconcile(h, base, 5.0 * w))) < 1e-10

    report(4, "identity-W equals least squares; coherent inputs fixed; W scaling immaterial",
           ols_ok and fixed_ok and scale_ok)


def test_criterion_05_generator_statistics():
    """AR(1) variance, negative sibling correlation, positive correlations."""
    t0 = time.perf_counter()
    h = preset_hierarchy()

    params = preset_params("WeakC", t_total=100_000, seed=3)
    psi = generate_factors(params, h).psi
    target = 0.09 / (1 - 0.09)
    var_ok = abs(psi[0].var() - target) / target < 0.05

    mid_of = {b: h.parent[b] for b in h.bottom_ids}
    from htsreg.synthgen import generate_bottom

    ngtvc = preset_params("NgtvC", t_total=10_000, seed=4)
    yb_n = generate_bottom(ngtvc, generate_factors(ngtvc, h, keep_burn_in=True), mid_of)
    neg_ok = np.corrcoef(yb_n[0], yb_n[1])[0, 1] < 0.0  # nodes 5 and 6

    pstvc = preset_params("PstvC", t_total=10_000, seed=5)
    yb_p = generate_bottom(pstvc, generate_factors(pstvc, h, keep_burn_in=True), mid_of)
    corr = np.corrcoef(yb_p)
    pos_ok = np.min(corr[~np.eye(9, dtype=bool)]) > 0.0

    elapsed = time.perf_counter() - t0
    report(5, f"AR variance within 5%; sibling correlation negative; pairwise positive ({elapsed:.1f}s)",
           var_ok and neg_ok and pos_ok and elapsed < 30.0)


def test_criterion_06_regularization_beats_bottom_up(paired_trials):
    """Mean all-node RMSE: NN+SR(0.0, 2.1) below NN+BU, paired CI excludes 0."""
    sr = np.array([r.epoch_eval[-1]["average"] for r in paired_trials["sr"]])
    bu = np.array([r.epoch_eval[-1]["average"] for r in paired_trials["bu"]])
    diff = sr - bu
    hw = float(stats.t.ppf(0.975, len(diff) - 1) * diff.std(ddof=1) / np.sqrt(len(diff)))
    ok = sr.mean() < bu.mean() and diff.mean() + hw < 0.0
    report(6, f"SR {sr.mean():.4f} < BU {bu.mean():.4f}; paired diff {diff.mean():.4f} +/- {hw:.4f}", ok)


def test_criterion_07_regularization_converges_no_later(paired_trials):
    """SR's mid-level test RMSE reaches 5% of final no later than BU, >= 20/30 seeds."""

    def first_within(result):
        trace = np.array([e["mid"] for e in result.epoch_eval])
        final = trace[-1]
        hits = np.abs(trace - final) <= 0.05 * abs(final)
        return int(np.argmax(hits)) + 1

    wins = sum(
        1 for r_sr, r_bu in zip(paired_trials["sr"], paired_trials["bu"])
        if first_within(r_sr) <= first_within(r_bu)
    )
    report(7, f"SR mid-level RMSE converged no later than BU in {wins}/30 seeds", wins >= 20)


def test_criterion_08_baseline_identities():
    """MA(1) = ES(1) = naive exactly; ES(0) frozen; persistence selects 1."""
    rng = np.random.default_rng(6)
    y = rng.standard_normal(40) + 5.0
    ma1 = ma_forecast(y, 1)
    es1 = es_forecast(y, 1.0)
    naive_ok = np.array_equal(ma1[1:], y) and np.array_equal(es1[1:], y)

    es0 = es_forecast(y, 0.0)
    frozen_ok = np.array_equal(es0, np.full(41, y[0]))

    # Persistence-perfect data: the last value is strictly the best predictor.
    h = build_hierarchy(SMALL_PARENTS)
    ramp = np.arange(1.0, 25.0)
    bottoms = np.vstack([ramp, 2 * ramp, ramp + 3, 0.5 * ramp])
    panel = SeriesPanel.from_values(h, aggregate_bottom(h, bottoms), train_len=18)
    select_ok = (select_param(panel, "MA").param == 1
                 and select_param(panel, "ES").param == 1.0)

    report(8, "MA(1) = ES(1) = naive; ES(0) constant; persistence selects n=1, alpha=1",
           naive_ok and frozen_ok and select_ok)


def test_criterion_09_reproducible_runs(tmp_path):
    """Two benchmark runs from one config produce byte-identical outputs."""
    cfg = {
        "panel": {"preset": "NgtvC", "seed": 5},
        "methods": [
            {"name": "MA"},
            {"name": "ES"},
            {"name": "NN+BU"},
            {"name": "NN+MinT"},
            {"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1},
        ],
        "train": {"max_epochs": 30},
        "trial_seeds": [1, 2],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["run", "--config", str(cfg_path), "--out-dir", str(d1)])
    code2 = main(["run", "--config", str(cfg_path), "--out-dir", str(d2)])
    ok = (code1 == 0 and code2 == 0
          and (d1 / "table.csv").read_bytes() == (d2 / "table.csv").read_bytes()
          and (d1 / "trials.json").read_bytes() == (d2 / "trials.json").read_bytes())
    report(9, "repeated runs emit byte-identical table.csv and trials.json", ok)
