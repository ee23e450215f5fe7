"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criteria 6 and 7 share a 30-trial experiment on a fixed synthetic panel,
trained as one stack of 60 networks (and a stack of 30 NN+MinT base
networks for the README's table), and dominate the runtime (under a
minute on two cores); everything else is fast. Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from kernel import loss_and_grads
from scipy import stats

from htsreg.baselines import es_forecast, ma_forecast, select_param
from htsreg.cli import _write_table, main
from htsreg.evaluate import MethodSpec, _bottom_weights, make_epoch_hook, run_benchmark, summarize_trials
from htsreg.hierarchy import (
    LEVELS,
    aggregate_bottom,
    build_hierarchy,
    check_coherence,
    structure_matrix,
    summing_matrix,
)
from htsreg.neuralnet import NetworkDims, init_params
from htsreg.panel import SeriesPanel, lagged_design, standardize
from htsreg.reconcile import (
    check_unbiasedness,
    estimate_w_sample,
    mint_reconcile,
)
from htsreg.synthgen import BURN_IN, _series, generate_dataset, preset_hierarchy
from htsreg.trainer import _fit, TrainConfig, predict, train_batch

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
PANEL_SEED = 7
TRIAL_SEEDS = list(range(1, 31))
README = Path(__file__).resolve().parents[1] / "README.md"


def report(number: int, description: str, passed: bool) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def ngtvc_panel():
    return standardize(generate_dataset("NgtvC", seed=PANEL_SEED))


PUBLISHED = TrainConfig(eta=1e-5, eps=5e-5, max_epochs=10_000, activation="sigmoid", lag=2)


@pytest.fixture(scope="module")
def paired_trials(ngtvc_panel):
    """30 paired NN+SR(0.0, 2.1) / NN+BU runs at the published settings, and 30 NN+MinT trials.

    They run through the benchmark runner, which trains the 60 bottom
    networks as one stack with the epoch-trace hook on, as ``htsreg run``
    does; NN+MinT's 30 base networks form a second stack, so the bottom
    stack's bits do not depend on them. Besides the fits of the paired
    methods, ``summaries`` holds the trial summaries that fill the network
    columns of ``table.csv``.
    """
    methods = [MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=2.1), MethodSpec(name="NN+BU"), MethodSpec(name="NN+MinT")]
    t0 = time.perf_counter()
    result = run_benchmark(ngtvc_panel, methods, TRIAL_SEEDS, PUBLISHED)
    elapsed = time.perf_counter() - t0
    print(f"[paired trials] 30 seeds x 3 methods in {elapsed:.0f}s")
    assert all([rep.params["seed"] for rep in reports] == TRIAL_SEEDS for reports in result.values())
    return {**{key: [rep.fit for rep in result[label]] for key, label in (("sr", "NN+SR(0.0, 2.1)"), ("bu", "NN+BU"))},
            "summaries": {label: summarize_trials(reports) for label, reports in result.items()}}


def test_criterion_01_gradient_correctness():
    """Training's analytic gradients match central finite differences at 1e-5/1e-8.

    Both sides come from trainer._Workspace.loss_and_grads, the method
    every training epoch calls, on a batch of three timepoints.
    """
    t0 = time.perf_counter()
    h = build_hierarchy(SMALL_PARENTS)
    hm = structure_matrix(h)
    rng = np.random.default_rng(0)
    dims = NetworkDims(input_dim=4, hidden_dim=8, output_dim=4)  # lag 1, |B| = 4
    eps = 1e-6
    ok = True
    for lam in (0.0, 0.7, 2.4):
        lam_row = np.full(len(hm), lam)  # the root's and each mid node's weight
        params = init_params(dims, seed=int(10 * lam) + 1)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((3, 7))
        yu, yb = y[:, :3], y[:, 3:]
        _, g = loss_and_grads(params, x, yb, yu, hm, lam_row, "sigmoid")
        for arr, ga in ((params.w2, g.w2), (params.b2, g.b2), (params.w3, g.w3), (params.b3, g.b3)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                e_up = loss_and_grads(params, x, yb, yu, hm, lam_row, "sigmoid")[0]
                arr[idx] = orig - eps
                e_dn = loss_and_grads(params, x, yb, yu, hm, lam_row, "sigmoid")[0]
                arr[idx] = orig
                fd = (e_up - e_dn) / (2 * eps)
                ok = ok and abs(ga[idx] - fd) <= max(1e-5 * abs(fd), 1e-8)
    elapsed = time.perf_counter() - t0
    report(1, f"gradients match finite differences for lambda in {{0, 0.7, 2.4}} ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_02_zero_lambda_reduction(ngtvc_panel):
    """NN+SR(0,0) trains bit for bit like the objective with no upper block; NN+SR(0,2.1) does not.

    The reference run drops the regularizer altogether: ``_fit`` on the
    bottom rows' own lags and targets alone, with an empty upper block and
    H. Parameters and per-epoch test RMSE over 100 epochs, from seed 12,
    must be bitwise equal.
    """
    t0 = time.perf_counter()
    h = preset_hierarchy()
    cfg = TrainConfig(max_epochs=100)
    rows, train_len = ngtvc_panel.bottom_values, ngtvc_panel.train_len
    x, xw = (lagged_design(rows, cfg.lag, *cols) for cols in ((cfg.lag, train_len), (train_len, ngtvc_panel.n_time)))
    yb = rows[:, cfg.lag:train_len].T
    hook = make_epoch_hook(ngtvc_panel)
    plain = _fit(x, yb, yb[:, :0], np.zeros((0, 9)), np.zeros((1, 0)), [init_params(NetworkDims(18, 36, 9), 12)], cfg,
                 hook, xw)[0]

    def equals_plain(lam):
        res = train_batch(ngtvc_panel, *_bottom_weights(h, [lam]), [12], cfg, hook)[0]
        return (res.epochs == plain.epochs == 100 and np.array_equal(res.params.theta, plain.params.theta)
                and np.array_equal(res.epoch_eval, plain.epoch_eval))

    ok = equals_plain((0.0, 0.0)) and not equals_plain((0.0, 2.1))
    elapsed = time.perf_counter() - t0
    report(2, f"zero-weight run is bitwise identical to training without the upper term ({elapsed:.2f}s)",
           ok and elapsed < 10.0)


def test_criterion_03_coherence(ngtvc_panel):
    """Bottom-up exact; trace-minimized within 1e-9; SPS = S within 1e-8."""
    h = preset_hierarchy()
    rng = np.random.default_rng(1)
    bu_violation = check_coherence(h, aggregate_bottom(h, rng.standard_normal((9, 30))))

    cfg = TrainConfig(max_epochs=50)
    base_run = train_batch(ngtvc_panel, np.zeros((0, 13)), np.zeros((1, 0)), [2], cfg)[0]  # the all-node MinT base
    train_len = ngtvc_panel.train_len
    base_fit = predict(base_run.params, ngtvc_panel, cfg, cfg.lag, train_len)
    w = estimate_w_sample(base_fit, ngtvc_panel.values[:, cfg.lag:train_len])
    base_test = predict(base_run.params, ngtvc_panel, cfg, train_len, ngtvc_panel.n_time)
    coherent = mint_reconcile(h, base_test, w)[0]
    p = mint_reconcile(h, np.eye(h.n_nodes), w)[0][len(h.upper_ids):]  # P: the bottom block of S P I
    sps = check_unbiasedness(p, summing_matrix(h))

    ok = bu_violation == 0.0 and check_coherence(h, coherent) <= 1e-9 and sps <= 1e-8
    report(3, "bottom-up exactly coherent; trace-minimized within 1e-9; SPS=S within 1e-8", ok)


def test_criterion_04_mint_algebra():
    """Identity-weight projection, fixed points, and scale invariance."""
    h = build_hierarchy(SMALL_PARENTS)
    s = summing_matrix(h)
    rng = np.random.default_rng(2)
    base = rng.standard_normal((7, 12))

    got = mint_reconcile(h, base, np.eye(7))[0]
    b, *_ = np.linalg.lstsq(s, base, rcond=None)
    ols_ok = np.max(np.abs(got - s @ b)) < 1e-10

    coherent_in = aggregate_bottom(h, rng.standard_normal((4, 12)))
    fixed = mint_reconcile(h, coherent_in, np.eye(7))[0]
    fixed_ok = np.max(np.abs(fixed - coherent_in)) < 1e-12

    a = rng.standard_normal((7, 11))
    w = (a @ a.T) / 11 + 0.1 * np.eye(7)
    scale_ok = np.max(np.abs(mint_reconcile(h, base, w)[0] - mint_reconcile(h, base, 5.0 * w)[0])) < 1e-10

    report(4, "identity-W equals least squares; coherent inputs fixed; W scaling immaterial",
           ols_ok and fixed_ok and scale_ok)


def test_criterion_05_generator_statistics():
    """AR(1) variance, negative sibling correlation, positive correlations."""
    t0 = time.perf_counter()

    psi = _series("WeakC", 3, t_total=100_000)[0][:, BURN_IN:]
    target = 0.09 / (1 - 0.09)
    var_ok = abs(psi[0].var() - target) / target < 0.05

    yb_n = _series("NgtvC", 4, t_total=10_000)[1]
    neg_ok = np.corrcoef(yb_n[0], yb_n[1])[0, 1] < 0.0  # nodes 5 and 6

    yb_p = _series("PstvC", 5, t_total=10_000)[1]
    corr = np.corrcoef(yb_p)
    pos_ok = np.min(corr[~np.eye(9, dtype=bool)]) > 0.0

    elapsed = time.perf_counter() - t0
    report(5, f"AR variance within 5%; sibling correlation negative; pairwise positive ({elapsed:.1f}s)",
           var_ok and neg_ok and pos_ok and elapsed < 30.0)


def test_criterion_06_regularization_beats_bottom_up(paired_trials):
    """Mean all-node RMSE: NN+SR(0.0, 2.1) below NN+BU, paired CI excludes 0."""
    average = LEVELS.index("average")
    sr = np.array([r.epoch_eval[-1, average] for r in paired_trials["sr"]])
    bu = np.array([r.epoch_eval[-1, average] for r in paired_trials["bu"]])
    diff = sr - bu
    hw = float(stats.t.ppf(0.975, len(diff) - 1) * diff.std(ddof=1) / np.sqrt(len(diff)))
    ok = sr.mean() < bu.mean() and diff.mean() + hw < 0.0
    report(6, f"SR {sr.mean():.4f} < BU {bu.mean():.4f}; paired diff {diff.mean():.4f} +/- {hw:.4f}", ok)


def test_criterion_07_regularization_converges_no_later(paired_trials):
    """SR's mid-level test RMSE reaches 5% of final no later than BU, >= 20/30 seeds."""

    def first_within(result):
        trace = result.epoch_eval[:, LEVELS.index("mid")]
        final = trace[-1]
        hits = np.abs(trace - final) <= 0.05 * abs(final)
        return int(np.argmax(hits)) + 1

    wins = sum(
        1 for r_sr, r_bu in zip(paired_trials["sr"], paired_trials["bu"])
        if first_within(r_sr) <= first_within(r_bu)
    )
    report(7, f"SR mid-level RMSE converged no later than BU in {wins}/30 seeds", wins >= 20)


def test_published_models_run_to_the_epoch_cap(paired_trials):
    """At the published eta, eps and epoch cap the stopping rule never fires: every model runs 10 000 epochs."""
    fits = paired_trials["sr"] + paired_trials["bu"]
    assert len(fits) == 60
    assert {(r.reason, r.epochs, r.epoch_eval.shape) for r in fits} == {("max_epochs", 10_000, (10_000, 4))}


README_LEVELS = {"Root": "root", "Mid-level": "mid", "Bottom-level": "bottom", "Average": "average"}


def readme_table():
    """The README's published table: its column labels, and per row label a cell per column label."""
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("|")]
    header, body = rows[0], rows[2:]  # rows[1] is the |---| rule
    return header[1:], {row[0]: dict(zip(header[1:], row[1:])) for row in body}


def test_readme_table_matches_the_paired_trials(paired_trials):
    """The README's NN+BU, NN+MinT and NN+SR(0.0, 2.1) level cells: the paired trials' summaries, as table.csv
    writes them."""
    table = readme_table()[1]
    for label in ("NN+BU", "NN+MinT", "NN+SR(0.0, 2.1)"):
        summary = paired_trials["summaries"][label]
        want = {row: "{:.2f}±{:.2f}".format(*summary.levels[level]) for row, level in README_LEVELS.items()}
        assert {row: table[row][label] for row in README_LEVELS} == want, label


def test_readme_table_baseline_columns_match_a_baselines_run(ngtvc_panel, tmp_path):
    """The README's first two columns, MA(17) and ES(0.29), label and level cells: a baselines-only run of the
    published panel, as table.csv writes it."""
    h = preset_hierarchy()
    result = run_benchmark(ngtvc_panel, [MethodSpec(name="MA"), MethodSpec(name="ES")], TRIAL_SEEDS, TrainConfig())
    _write_table(result, h, tmp_path / "table.csv")
    written = [line.split(",") for line in (tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()]
    written = {row[0]: dict(zip(written[0][1:], row[1:])) for row in written[1:]}
    labels, table = readme_table()
    assert list(result) == labels[:2] == ["MA(17)", "ES(0.29)"]
    for label in labels[:2]:
        assert {row: table[row][label] for row in README_LEVELS} == {row: written[row][label] for row in README_LEVELS}


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
    panel = SeriesPanel(h, aggregate_bottom(h, bottoms), train_len=18)
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
