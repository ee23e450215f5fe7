"""Tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import htsreg
from htsreg.cli import _write_traces, main
from htsreg.evaluate import BenchmarkResult
from htsreg.hierarchy import LEVELS, build_hierarchy
from htsreg.panel import load_panel_csv, standardize
from htsreg.synthgen import preset_hierarchy
from htsreg.trainer import RegWeights, TrainConfig, TrainResult, train_batch

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_setup(tmp_path):
    """Hierarchy JSON plus a small coherent panel CSV on disk."""
    h = build_hierarchy(SMALL_PARENTS)
    hier = tmp_path / "h.json"
    hier.write_text(json.dumps({"nodes": list(h.node_ids), "parent": SMALL_PARENTS}))
    rng = np.random.default_rng(1)
    bottoms = rng.standard_normal((4, 30)).cumsum(axis=1) * 0.3 + rng.standard_normal((4, 30))
    from htsreg.hierarchy import aggregate_bottom
    from htsreg.panel import SeriesPanel, write_panel_csv

    panel = SeriesPanel.from_values(h, aggregate_bottom(h, bottoms), train_len=20)
    pcsv = tmp_path / "p.csv"
    write_panel_csv(panel, pcsv)
    return h, hier, pcsv


def run_config(tmp_path, **overrides):
    cfg = {
        "panel": {"preset": "NgtvC", "seed": 3},
        "methods": [
            {"name": "MA", "grid": [1, 2]},
            {"name": "NN+BU"},
            {"name": "NN+SR", "lambda1": 0.0, "lambdaM": 0.0},
        ],
        "train": {"max_epochs": 5},
        "trial_seeds": [1, 2],
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_panel_and_sidecar(tmp_path):
    out = tmp_path / "panel.csv"
    assert main(["generate", "--preset", "WeakC", "--seed", "4", "--out", str(out)]) == 0
    panel = load_panel_csv(out, preset_hierarchy(), train_len=70)
    assert panel.values.shape == (13, 100)
    meta = json.loads((tmp_path / "panel.json").read_text())
    assert meta["preset"] == "WeakC"
    assert meta["seed"] == 4
    assert "PCG64" in meta["prng"]


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", "--preset", "PstvC", "--seed", "9", "--out", str(a)])
    main(["generate", "--preset", "PstvC", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--preset", "Nope", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_reconcile_bottom_up(tmp_path, small_setup):
    h, hier, pcsv = small_setup
    out = tmp_path / "coherent.csv"
    code = main([
        "reconcile", "--method", "bu", "--hierarchy", str(hier),
        "--base", str(pcsv), "--out", str(out),
    ])
    assert code == 0
    coherent = load_panel_csv(out, h)
    diag = json.loads((tmp_path / "coherent.diag.json").read_text())
    assert diag["sps_max_deviation"] == 0.0
    assert diag["coherence_max_violation"] == 0.0


def bad_base(tmp_path, pcsv, edit):
    """The panel CSV with ``edit(header, rows)`` applied, as a base-forecast file."""
    lines = [ln.split(",") for ln in pcsv.read_text().splitlines()]
    header, rows = lines[0], lines[1:]
    edit(header, rows)
    path = tmp_path / "base.csv"
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    return path


def set_nan(header, rows):
    rows[4][3] = "nan"


def duplicate_column(header, rows):
    header.append(header[4])
    for r in rows:
        r.append(r[4])


def swap_timestamps(header, rows):
    rows[2][0], rows[3][0] = rows[3][0], rows[2][0]


def foreign_column(header, rows):
    header.append("99")
    for r in rows:
        r.append(r[4])


@pytest.mark.parametrize("edit, message", [(set_nan, "non-finite cell 'nan'"),
                                           (duplicate_column, "duplicate node column"),
                                           (swap_timestamps, "strictly increasing"),
                                           (foreign_column, "column 99 is not a node of the hierarchy")],
                         ids=["nan_cell", "duplicate_column", "timestamps_out_of_order", "foreign_column"])
def test_reconcile_rejects_bad_base_file(tmp_path, small_setup, capsys, edit, message):
    """NaN cells, repeated or foreign node columns and out-of-order timestamps end with exit 2, not output."""
    _, hier, pcsv = small_setup
    out = tmp_path / "coherent.csv"
    code = main(["reconcile", "--method", "bu", "--hierarchy", str(hier),
                 "--base", str(bad_base(tmp_path, pcsv, edit)), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_reconcile_mint_identity_weights(tmp_path, small_setup):
    h, hier, pcsv = small_setup
    out = tmp_path / "coherent.csv"
    diag_path = tmp_path / "d.json"
    code = main([
        "reconcile", "--method", "mint", "--hierarchy", str(hier),
        "--base", str(pcsv), "--out", str(out), "--diagnostics", str(diag_path),
    ])
    assert code == 0
    diag = json.loads(diag_path.read_text())
    assert diag["sps_max_deviation"] < 1e-8
    assert diag["coherence_max_violation"] < 1e-9
    assert diag["gamma"] == 1e-8


def test_reconcile_top_down_needs_panel(tmp_path, small_setup):
    _, hier, pcsv = small_setup
    code = main([
        "reconcile", "--method", "td", "--hierarchy", str(hier),
        "--base", str(pcsv), "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 2


def test_run_produces_output_directory(tmp_path):
    cfg = run_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    for name in ("table.csv", "trials.json", "epoch_trace.csv", "manifest.json"):
        assert (out_dir / name).exists()
    table = (out_dir / "table.csv").read_text().splitlines()
    assert table[0].startswith("node,MA(")
    assert table[1].startswith("Root,")
    assert table[-1].startswith("Average,")
    assert len(table) == 1 + 13 + 3  # header + nodes + three aggregate rows
    assert any(p.name.endswith("seed1.json") for p in (out_dir / "checkpoints").iterdir())


def test_help_lists_the_four_commands_and_train_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "{generate,reconcile,run,sweep}" in usage
    with pytest.raises(SystemExit) as exc:
        main(["train", "--panel", "p.csv", "--hierarchy", "h.json", "--out", "t.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'train'" in capsys.readouterr().err


@pytest.mark.parametrize("train", [{"max_epochs": 400}, {"eps": 0.01, "max_epochs": 400}], ids=["cap", "converged"])
@pytest.mark.parametrize("epoch_trace", [True, False], ids=["trace", "no_trace"])
def test_one_seed_run_checkpoint_equals_train_batch(tmp_path, small_setup, train, epoch_trace):
    """A one-seed, one-method run trains the network train_batch trains: same weights, epochs and stop reason."""
    h, hier, pcsv = small_setup
    cfg = run_config(tmp_path, panel={"csv": pcsv.name, "train_len": 20}, hierarchy=hier.name,
                     methods=[{"name": "NN+SR", "lambda1": 0.4, "lambdaM": 1.5}], train=train, trial_seeds=[3],
                     epoch_trace=epoch_trace)
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    panel = standardize(load_panel_csv(pcsv, h, train_len=20))
    want = train_batch(panel, h, [RegWeights.build(h, 0.4, 1.5)], TrainConfig(**train, seed=3))[0]
    ckpt, = (out_dir / "checkpoints").iterdir()
    saved = json.loads(ckpt.read_text())
    assert saved["seed"] == 3
    for key, arr in zip(("w2", "b2", "w3", "b3"), want.params):
        assert np.asarray(saved[key]).tobytes() == arr.tobytes()
    trial, = json.loads((out_dir / "trials.json").read_text())["methods"]["NN+SR(0.4, 1.5)"]["trials"]
    assert (trial["epochs"], trial["reason"]) == (want.epochs, want.reason)
    assert want.reason == ("max_epochs" if "eps" not in train else "converged")


def test_run_zero_lambda_rows_match_bottom_up(tmp_path):
    cfg = run_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
    trials = json.loads((out_dir / "trials.json").read_text())
    bu = trials["methods"]["NN+BU"]["trials"]
    sr = trials["methods"]["NN+SR(0.0, 0.0)"]["trials"]
    assert bu == sr


def test_run_twice_is_byte_identical(tmp_path):
    cfg = run_config(tmp_path)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(cfg), "--out-dir", str(d1)])
    main(["run", "--config", str(cfg), "--out-dir", str(d2)])
    assert (d1 / "table.csv").read_bytes() == (d2 / "table.csv").read_bytes()
    assert (d1 / "trials.json").read_bytes() == (d2 / "trials.json").read_bytes()


def test_run_from_manifest_matches_original(tmp_path):
    cfg = run_config(tmp_path)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(cfg), "--out-dir", str(d1)])
    assert main(["run", "--config", str(d1 / "manifest.json"), "--out-dir", str(d2)]) == 0
    assert (d1 / "trials.json").read_bytes() == (d2 / "trials.json").read_bytes()


def test_run_missing_panel_fails_fast(tmp_path):
    cfg = run_config(tmp_path, panel={"csv": "missing.csv"}, hierarchy="nope.json")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_run_rejects_bad_method(tmp_path):
    cfg = run_config(tmp_path, methods=[{"name": "ARIMA"}])
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("option", [{"hidden_dim": "8"}, {"hidden_dim": 2.5}, {"hidden_dim": True},
                                    {"bias": "no"}, {"eps": 2.0}, {"eps": 1.0}, {"eps": float("inf")},
                                    {"eta": float("inf")}],
                         ids=["hidden_dim_string", "hidden_dim_fraction", "hidden_dim_bool", "bias_string",
                              "eps_two", "eps_one", "eps_infinity", "eta_infinity"])
def test_run_rejects_mistyped_train_option(tmp_path, capsys, option):
    cfg = run_config(tmp_path, train={"max_epochs": 5, **option})
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert f"train: {next(iter(option))} must be" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", [1.7, True], ids=["fraction", "bool"])
def test_run_rejects_non_integer_trial_seed(tmp_path, seed):
    cfg = run_config(tmp_path, trial_seeds=[seed, 2])
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_rejects_nonpositive_jobs(tmp_path, jobs):
    cfg = run_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--jobs", jobs])
    assert exc.value.code == 2


ALL_METHODS = [{"name": "MA", "grid": [1, 2]}, {"name": "NN+BU"}, {"name": "NN+MinT"},
               {"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1}]


def run_files(out_dir):
    """Every file a run wrote (table, trials, epoch trace, manifest, checkpoints), by relative path."""
    files = {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
    assert {"table.csv", "trials.json", "epoch_trace.csv", "checkpoints/nn_mint_seed3.json"} <= set(files)
    return files


def test_run_parallel_jobs_match_serial(tmp_path):
    """Seeds split into two shards give the bytes of one process, checkpoints and traces included."""
    cfg = run_config(tmp_path, methods=ALL_METHODS, trial_seeds=[1, 2, 3], train={"max_epochs": 40})
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out-dir", str(d1)]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(d2), "--jobs", "2"]) == 0
    assert run_files(d1) == run_files(d2)


def test_run_is_byte_identical_across_blas_threads(tmp_path):
    cfg = run_config(tmp_path, methods=ALL_METHODS, trial_seeds=[1, 2, 3], train={"max_epochs": 40})
    src = str(Path(htsreg.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out_dir = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "htsreg.cli", "run", "--config", str(cfg), "--out-dir", str(out_dir)],
                       env=env, check=True, capture_output=True)
        runs.append(run_files(out_dir))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("first", ["NN+BU", "NN+MinT"])
def test_run_divergence_exits_3_with_first_trial_epoch(tmp_path, capsys, jobs, first):
    """The first trial in task order (NN+BU or NN+MinT, seed 1) overflows at epoch 2; NN+SR seed 1 at epoch 1.

    A trial-by-trial run reports epoch 2, and so must the stacked run, whichever
    trial overflows first in time, whichever stack it is in and however the
    seeds are sharded.
    """
    nets = [{"name": first}, {"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1}]
    cfg = run_config(tmp_path, panel={"preset": "NgtvC", "seed": 7}, methods=[{"name": "MA"}, {"name": "ES"}] + nets,
                     train={"eta": 1e148, "max_epochs": 50})
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--jobs", jobs])
    assert code == 3
    assert capsys.readouterr().err.splitlines()[-1] == "training diverged: objective became non-finite at epoch 2"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_exits_3_when_the_objective_rises(tmp_path, capsys, jobs):
    """At eta 10 the objective jumps from about 2e14 to 1.5e24 at epoch 2: a divergence, not convergence."""
    cfg = run_config(tmp_path, panel={"preset": "NgtvC", "seed": 7}, trial_seeds=[1, 2],
                     methods=[{"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1}], train={"eta": 10.0, "max_epochs": 50})
    out_dir = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs])
    assert code == 3
    assert capsys.readouterr().err.splitlines()[-1] == "training diverged: objective rose at epoch 2"
    assert not (out_dir / "table.csv").exists()


@pytest.mark.parametrize("field, method", [
    ("tune", {"name": "NN+SR", "tune": "false", "tune_grid1": [0.0], "tune_gridM": [0.0]}),
    ("lambda1", {"name": "NN+SR", "lambda1": True, "lambdaM": 0.0}),
    ("lambdaM", {"name": "NN+SR", "lambda1": 0.0, "lambdaM": "2.1"}),
    ("grid", {"name": "MA", "grid": "357"}),
    ("tune_grid1", {"name": "NN+SR", "tune": True, "tune_grid1": [0.0, "1"], "tune_gridM": [0.0]}),
    ("tune_gridM", {"name": "NN+SR", "tune": True, "tune_grid1": [0.0], "tune_gridM": "0"}),
    ("lambda1", {"name": "NN+SR", "lambda1": float("inf"), "lambdaM": 0.0}),
    ("tune_grid1", {"name": "NN+SR", "tune": True, "tune_grid1": [float("nan")], "tune_gridM": [0.0]}),
], ids=["tune_string", "lambda1_bool", "lambdaM_string", "grid_string", "tune_grid1_item", "tune_gridM_string",
        "lambda1_infinity", "tune_grid1_nan"])
def test_run_rejects_mistyped_method_field(tmp_path, capsys, field, method):
    cfg = run_config(tmp_path, methods=[{"name": "NN+BU"}, method])
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert f"methods[1].{field}: must be" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("key, value", [("standardize", "false"), ("epoch_trace", "no"), ("epoch_trace", 0)],
                         ids=["standardize_string", "epoch_trace_string", "epoch_trace_int"])
def test_run_rejects_non_boolean_switch(tmp_path, capsys, key, value):
    cfg = run_config(tmp_path, **{key: value})
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert f"{key}: must be true or false, got {value!r}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("x_grid", [["0", 2.1], [0.0, True], [0.0, float("inf")]], ids=["string", "bool", "infinity"])
def test_sweep_rejects_non_numeric_grid(tmp_path, capsys, x_grid):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"panel": {"preset": "NgtvC", "seed": 3}, "trial_seeds": [1], "x_grid": x_grid,
                               "train": {"max_epochs": 2}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert "x_grid: must be a nonempty list of finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("modes, message", [
    (5, "modes: must be a list of sweep modes, got 5"),
    ("(x,0)", "modes: must be a list of sweep modes, got '(x,0)'"),
    ([], "sweep: modes must be a nonempty list of sweep modes"),
    (["(x,0)", "(y,0)"], "sweep: modes must be a nonempty list of sweep modes"),
    (["(x,0)", "(x,0)"], "sweep: modes must not repeat, got ['(x,0)', '(x,0)']"),
], ids=["int", "string", "empty", "unknown", "repeated"])
def test_sweep_rejects_bad_modes(tmp_path, capsys, modes, message):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"panel": {"preset": "NgtvC", "seed": 3}, "trial_seeds": [1], "x_grid": [0.0, 1.0],
                               "modes": modes, "train": {"max_epochs": 2}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("key", ["csv", "hierarchy"])
def test_run_rejects_non_string_csv_paths(tmp_path, small_setup, capsys, key):
    _, hier, pcsv = small_setup
    paths = {"csv": pcsv.name, "hierarchy": hier.name, key: 7}
    cfg = run_config(tmp_path, panel={"csv": paths["csv"]}, hierarchy=paths["hierarchy"])
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    path = "panel.csv" if key == "csv" else "hierarchy"
    assert f"{path}: must be a file path, got 7" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"methods": [{"name": "MA", "grd": [1, 2]}]}, "methods[0].grd: unknown method option"),
    ({"panel": {"preset": "NgtvC", "sed": 3}}, "panel.sed: unknown panel option"),
    ({"epoch_trac": False}, "epoch_trac: unknown config key"),
    ({"x_grid": [0.0, 1.0]}, "x_grid: unknown config key"),
    ({"methods": [{"name": "MA"}], "train": {"activation": "tanh"}}, "train: activation must be"),
    ({"methods": [{"name": "NN+SR", "lambda1": 1.0}]}, "methods[0]: NN+SR needs lambda1 and lambdaM"),
    ({"methods": [{"name": "ARIMA"}]}, "methods[0]: unknown method 'ARIMA'"),
    ({"methods": [{"name": "NN+SR", "tune": True, "tune_grid1": []}]}, "methods[0]: tune_grid1 and tune_gridM must be"),
], ids=["method_key", "panel_key", "top_level_key", "sweep_key_in_run", "activation", "sr_lambdas", "method_name",
        "empty_tune_grid"])
def test_run_rejects_unknown_or_incomplete_config(tmp_path, capsys, overrides, message):
    cfg = run_config(tmp_path, **overrides)
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("x_grid", [[0.0, 1.0, 1.0], [1, 0.0, 1.0]], ids=["float", "int_and_float"])
def test_sweep_rejects_repeated_x(tmp_path, capsys, x_grid):
    """A repeated x would train its networks again and write its rows twice."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"panel": {"preset": "NgtvC", "seed": 3}, "trial_seeds": [1], "x_grid": x_grid,
                               "train": {"max_epochs": 2}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert "sweep: x_grid values must not repeat, got [0.0, 1.0, 1.0]" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("case", ["preset_and_csv", "seed_on_csv", "hierarchy_beside_preset"])
def test_run_rejects_panel_keys_without_effect(tmp_path, small_setup, capsys, case):
    """Keys the chosen panel source would ignore are errors, even when the files they name exist."""
    _, hier, pcsv = small_setup
    overrides, message = {
        "preset_and_csv": ({"panel": {"preset": "NgtvC", "csv": pcsv.name}},
                           "panel.csv: a panel takes either 'preset' or 'csv', not both"),
        "seed_on_csv": ({"panel": {"csv": pcsv.name, "seed": 99}, "hierarchy": hier.name},
                        "panel.seed: only a preset panel takes a seed"),
        "hierarchy_beside_preset": ({"panel": {"preset": "NgtvC"}, "hierarchy": hier.name},
                                    "hierarchy: only a csv panel takes a hierarchy file"),
    }[case]
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(run_config(tmp_path, **overrides)), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"panel": {"preset": "NgtvC", "seed": 3}, "trial_seeds": [1], "x_grid": [0.0, 1.0],
                               "methods": [{"name": "MA"}], "train": {"max_epochs": 2}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert "methods: unknown config key" in capsys.readouterr().err


RUN_BASE = {"panel": {"preset": "NgtvC", "seed": 3}, "methods": [{"name": "MA", "grid": [1, 2]}, {"name": "NN+BU"}],
            "train": {"max_epochs": 5}, "trial_seeds": [1, 2]}
SWEEP_BASE = {"panel": {"preset": "NgtvC", "seed": 3}, "trial_seeds": [1], "x_grid": [0.0, 1.0],
              "train": {"max_epochs": 2}}
DROP = object()  # an override that removes the key


# Per case: the command, the config (the base with overrides, or raw file text) and the whole stderr line,
# where {cfg} is the config path and {dir} its resolved folder; an empty line means the command exits 0.
CONFIG_LOADING = {
    "invalid_json": ("run", "not json", "{cfg}: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    "not_an_object": ("run", "[1, 2]", "{cfg}: config must be a JSON object"),
    "panel_missing": ("run", {"panel": DROP}, "panel: missing key"),
    "panel_not_an_object": ("run", {"panel": 5}, "panel: must be an object, got 5"),
    "panel_without_source": ("run", {"panel": {"seed": 3}}, "panel: needs either 'preset' or 'csv'"),
    "unknown_preset": ("run", {"panel": {"preset": "Nope"}},
                       "panel.preset: unknown preset; choose from ('NgtvC', 'WeakC', 'PstvC')"),
    "csv_without_hierarchy": ("run", {"panel": {"csv": "p.csv"}}, "hierarchy: a csv panel needs a hierarchy file"),
    "hierarchy_file_missing": ("run", {"panel": {"csv": "p.csv"}, "hierarchy": "nope.json"},
                               "hierarchy: file not found: {dir}/nope.json"),
    "csv_file_missing": ("run", {"panel": {"csv": "nope.csv"}, "hierarchy": "h.json"},
                         "panel.csv: file not found: {dir}/nope.csv"),
    "train_not_an_object": ("run", {"train": 5}, "train: must be an object, got 5"),
    "train_unknown_key": ("run", {"train": {"max_epochs": 5, "epochs": 5}}, "train.epochs: unknown training option"),
    "methods_missing": ("run", {"methods": DROP}, "methods: missing key"),
    "methods_empty": ("run", {"methods": []}, "methods: must be a nonempty list, got []"),
    "method_not_an_object": ("run", {"methods": ["MA"]}, "methods[0]: must be an object with 'name', got 'MA'"),
    "seeds_missing": ("run", {"trial_seeds": DROP}, "trial_seeds: missing key"),
    "seeds_empty": ("run", {"trial_seeds": []}, "trial_seeds: must be a nonempty list of integers, got []"),
    "seeds_not_integers": ("run", {"trial_seeds": [1, 2.5]},
                           "trial_seeds: must be a nonempty list of integers, got [1, 2.5]"),
    "seeds_repeated": ("run", {"trial_seeds": [1, 2, 1]}, "trial_seeds: seeds must be distinct"),
    "sweep_invalid_json": ("sweep", "{", "{cfg}: invalid JSON (Expecting property name enclosed in double quotes: "
                                         "line 1 column 2 (char 1))"),
    "sweep_panel_missing": ("sweep", {"panel": DROP}, "panel: missing key"),
    "sweep_seeds_missing": ("sweep", {"trial_seeds": DROP}, "trial_seeds: missing key"),
    "sweep_x_grid_missing": ("sweep", {"x_grid": DROP}, "x_grid: missing key"),
    "train_len_null": ("run", {"panel": {"preset": "NgtvC", "seed": 3, "train_len": None}}, ""),
    "train_len_negative": ("run", {"panel": {"preset": "NgtvC", "seed": 3, "train_len": -5}},
                           "panel.train_len: train_len -5 outside [1, 99]"),
    "train_len_past_panel": ("run", {"panel": {"preset": "NgtvC", "seed": 3, "train_len": 100}},
                             "panel.train_len: train_len 100 outside [1, 99]"),
    "csv_train_len_negative": ("run", {"panel": {"csv": "p.csv", "train_len": -5}, "hierarchy": "h.json"},
                               "panel.train_len: train_len -5 outside [1, 29]"),
    "csv_train_len_past_panel": ("run", {"panel": {"csv": "p.csv", "train_len": 30}, "hierarchy": "h.json"},
                                 "panel.train_len: train_len 30 outside [1, 29]"),
    "ma_reads_only_grid": ("run", {"methods": [{"name": "MA", "grid": [1, 2], "lambda1": 5, "tune": True,
                                                "tune_grid1": [1]}]}, "methods[0].lambda1: has no effect on MA"),
    "es_reads_only_grid": ("run", {"methods": [{"name": "ES", "grid": [0.5], "lambdaM": 3}]},
                           "methods[0].lambdaM: has no effect on ES"),
    "bu_takes_no_option": ("run", {"methods": [{"name": "MA"}, {"name": "NN+BU", "grid": [3]}]},
                           "methods[1].grid: has no effect on NN+BU"),
    "mint_takes_no_option": ("run", {"methods": [{"name": "NN+MinT", "tune": False}]},
                             "methods[0].tune: has no effect on NN+MinT"),
    "tuned_sr_weights": ("run", {"methods": [{"name": "NN+SR", "tune": True, "tune_grid1": [0.0], "lambda1": 1.0,
                                              "lambdaM": 2.0}]}, "methods[0].lambda1: has no effect on tuned NN+SR"),
    "untuned_sr_grid": ("run", {"methods": [{"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1, "tune_gridM": [1]}]},
                        "methods[0].tune_gridM: has no effect on NN+SR"),
    "sr_weights_with_tune_false": ("run", {"methods": [{"name": "NN+SR", "tune": False, "lambda1": 0.0,
                                                        "lambdaM": 2.1}], "train": {"max_epochs": 2}}, ""),
}


@pytest.mark.parametrize("case", CONFIG_LOADING)
def test_config_loading_messages(tmp_path, small_setup, capsys, case):
    """Each exit-2 path of loading a run or sweep config prints exactly one line: the field path and the fault."""
    command, config, message = CONFIG_LOADING[case]
    cfg = tmp_path / "cfg.json"
    if isinstance(config, str):
        cfg.write_text(config)
    else:
        base = RUN_BASE if command == "run" else SWEEP_BASE
        cfg.write_text(json.dumps({k: v for k, v in {**base, **config}.items() if v is not DROP}))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out-dir" if command == "run" else "--out", str(out)])
    err = capsys.readouterr().err
    if message:
        assert (code, err) == (2, "config error: " + message.format(cfg=cfg, dir=tmp_path.resolve()) + "\n")
        assert not out.exists()
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command, config, message", [
    ("run", {"panel": {"preset": "NgtvC", "seed": -1}}, "panel.seed: must be nonnegative, got -1"),
    ("run", {"trial_seeds": [2, -1]}, "trial_seeds: seeds must be nonnegative, got -1"),
    ("sweep", {"trial_seeds": [-3]}, "trial_seeds: seeds must be nonnegative, got -3"),
], ids=["panel_seed", "run_trial_seed", "sweep_trial_seed"])
def test_config_rejects_negative_seeds(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**(RUN_BASE if command == "run" else SWEEP_BASE), **config}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir" if command == "run" else "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [("generate", "--seed: must be >= 0, got -1")])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, message):
    out = tmp_path / "out.csv"
    assert main([command, "--preset", "NgtvC", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("method, message", [
    ({"name": "ES", "grid": [0.5, 2]}, "ES alpha must lie in [0, 1], got 2"),
    ({"name": "MA", "grid": [0, 2]}, "MA window must be a positive integer, got 0"),
    ({"name": "MA", "grid": [1, 2.5]}, "MA window must be a positive integer, got 2.5"),
    ({"name": "NN+SR", "lambda1": -1, "lambdaM": 0.0}, "lambda1 must not be negative, got -1"),
    ({"name": "NN+SR", "lambda1": 0.0, "lambdaM": -0.5}, "lambdaM must not be negative, got -0.5"),
    ({"name": "NN+SR", "tune": True, "tune_grid1": [0.0, -1.0]}, "tune_grid1 must not be negative, got [0.0, -1.0]"),
    ({"name": "NN+SR", "tune": True, "tune_gridM": [-2]}, "tune_gridM must not be negative, got [-2]"),
], ids=["es_alpha", "ma_window_zero", "ma_window_fraction", "lambda1", "lambdaM", "tune_grid1", "tune_gridM"])
def test_run_rejects_method_values_before_anything_runs(tmp_path, capsys, monkeypatch, method, message):
    """Every value of a method is checked with the config: the message names the method, and no out-dir is made."""
    monkeypatch.setattr("htsreg.cli.run_benchmark", _no_training)
    out_dir = tmp_path / "o"
    cfg = run_config(tmp_path, methods=[{"name": "NN+BU"}, method])
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: methods[1]: {message}\n"
    assert not out_dir.exists()


def test_write_traces_matches_csv_writer(tmp_path):
    """The streamed trace rows have the bytes the csv module writes, a label that needs quoting included."""
    rng = np.random.default_rng(3)
    special = np.array([[np.nan, np.inf, -0.0, 5e-324], [1e-300, 0.1, 2.0, 1e17]])
    traces = {"NN+SR(0.0, 2.1)": {2: np.vstack([special, rng.random((3, 4))]), 1: rng.random((2, 4))},
              'NN "BU"': {1: rng.random((1, 4))}, "NN 50%": {3: rng.random((2, 4))}, "NN+MinT": {1: None}}
    result = BenchmarkResult(labels=["MA(3)", *traces], seeds=[1, 2], reports={}, summaries={},
                             fits={label: {seed: TrainResult(params=None, objective=np.zeros(0), epochs=0,
                                                             reason="max_epochs", epoch_eval=trace)
                                           for seed, trace in by_seed.items()}
                                   for label, by_seed in traces.items()})
    _write_traces(result, tmp_path / "trace.csv")
    with open(tmp_path / "oracle.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "trial_seed", "epoch", "level", "rmse"])
        for label in result.labels:
            for seed, fit in sorted(result.fits.get(label, {}).items()):
                if fit.epoch_eval is not None:
                    writer.writerows([label, seed, epoch, level, f"{value:.17g}"]
                                     for epoch, row in enumerate(fit.epoch_eval.tolist(), start=1)
                                     for level, value in zip(LEVELS, row))
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert b'"NN+SR(0.0, 2.1)",1,1,root,' in (tmp_path / "trace.csv").read_bytes()


def test_run_out_dir_below_a_regular_file_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main(["run", "--config", str(run_config(tmp_path)), "--out-dir", str(blocker / "out")]) == 4


@pytest.mark.parametrize("key,value", [("seed", 1.7), ("seed", True), ("seed", "3"), ("train_len", 69.9),
                                       ("train_len", True)],
                         ids=["seed_fraction", "seed_bool", "seed_string", "train_len_fraction", "train_len_bool"])
def test_run_rejects_non_integer_panel_option(tmp_path, capsys, key, value):
    cfg = run_config(tmp_path, panel={"preset": "NgtvC", "seed": 3, key: value})
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert f"panel.{key}: must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_rejects_non_integer_csv_train_len(tmp_path, small_setup, capsys):
    _, hier, pcsv = small_setup
    cfg = run_config(tmp_path, panel={"csv": pcsv.name, "train_len": 20.5}, hierarchy=hier.name)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "panel.train_len: must be an integer" in capsys.readouterr().err


def test_bundled_config_has_experiment_shape():
    """The shipped NgtvC config describes 5 methods and 30 trials."""
    cfg = json.loads((REPO_ROOT / "configs" / "ngtvc.json").read_text())
    assert len(cfg["methods"]) == 5
    assert len(cfg["trial_seeds"]) == 30
    assert cfg["panel"]["preset"] == "NgtvC"
    assert cfg["train"]["eta"] == 1e-5
    assert cfg["train"]["eps"] == 5e-5


def test_sweep_writes_curves(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "panel": {"preset": "NgtvC", "seed": 3},
        "x_grid": [0.0, 0.6],
        "trial_seeds": [1],
        "train": {"max_epochs": 4},
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,x,level,relative_rmse"
    assert len(lines) == 1 + 3 * 4 * 2  # modes x levels x grid points
    zero_rows = [ln for ln in lines[1:] if ln.split(",")[1] == "0"]
    assert all(ln.endswith(",0") for ln in zero_rows)


def test_sweep_requires_zero_in_grid(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "panel": {"preset": "NgtvC", "seed": 3},
        "x_grid": [0.5],
        "trial_seeds": [1],
        "train": {"max_epochs": 2},
    }))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")]) == 2


def test_module_entry_point(tmp_path):
    """The package runs as python -m htsreg.cli."""
    out = tmp_path / "panel.csv"
    src = str(Path(htsreg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "htsreg.cli", "generate", "--preset", "NgtvC",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0
    assert out.exists()


def test_generate_io_error_exit_code(tmp_path):
    """Writing into a missing directory maps to the I/O exit code."""
    out = tmp_path / "no" / "such" / "dir" / "p.csv"
    assert main(["generate", "--preset", "NgtvC", "--out", str(out)]) == 4


def _no_training(*args, **kwargs):
    raise AssertionError("a network trained before the duplicate methods were found")


@pytest.mark.parametrize("methods, message", [
    ([{"name": "NN+SR", "lambda1": 0, "lambdaM": 1}, {"name": "NN+SR", "lambda1": 0, "lambdaM": 1.0}],
     "methods[0] and methods[1] both fill the table column NN+SR(0.0, 1.0)"),
    ([{"name": "MA"}, {"name": "NN+BU"}, {"name": "MA"}], "methods[0] and methods[2] both fill the table column MA("),
    ([{"name": "ES", "grid": [0.3, 0.5]}, {"name": "ES", "grid": [0.5, 0.3]}], "methods[0] and methods[1]"),
    ([{"name": "NN+MinT"}, {"name": "NN+MinT"}], "methods[0] and methods[1] both fill the table column NN+MinT"),
    ([{"name": "NN+SR", "tune": True, "tune_grid1": [0, 1], "tune_gridM": [2]},
      {"name": "NN+SR", "tune": True, "tune_grid1": [1.0, 0.0], "tune_gridM": [2]}],
     "methods[0] and methods[1] both fill the table column NN+SR tuned on [0.0, 1.0] x [2.0]"),
], ids=["sr_int_and_float", "ma", "es_same_pick", "mint", "same_tuning"])
def test_run_rejects_methods_sharing_a_column(tmp_path, capsys, monkeypatch, methods, message):
    """Two methods with one label would merge their trials in the table and overwrite each other's checkpoints."""
    monkeypatch.setattr("htsreg.evaluate.train_batch", _no_training)
    monkeypatch.setattr("htsreg.evaluate.train_all_node_batch", _no_training)
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(run_config(tmp_path, methods=methods)), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out_dir.iterdir())


def test_run_rejects_a_tuned_pick_equal_to_another_method(tmp_path, capsys):
    """A tuned NN+SR is known by its grids until tuned, so its pick is checked after tuning."""
    methods = [{"name": "NN+SR", "lambda1": 0.0, "lambdaM": 0.0},
               {"name": "NN+SR", "tune": True, "tune_grid1": [0.0], "tune_gridM": [0.0]}]
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(run_config(tmp_path, methods=methods, train={"max_epochs": 2})),
                 "--out-dir", str(out_dir)]) == 2
    assert "methods[0] and methods[1] both fill the table column NN+SR(0.0, 0.0)" in capsys.readouterr().err
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("method, message", [
    ({"name": "MA", "grid": [1, 2, 1]}, "methods[0]: grid values must not repeat, got [1, 2, 1]"),
    ({"name": "ES", "grid": [0.5, 1, 1.0]}, "methods[0]: grid values must not repeat, got [0.5, 1, 1.0]"),
    ({"name": "NN+SR", "tune": True, "tune_grid1": [0, 0.0]}, "methods[0]: tune_grid1 values must not repeat"),
    ({"name": "NN+SR", "tune": True, "tune_gridM": [2.1, 0, 2.1]}, "methods[0]: tune_gridM values must not repeat"),
], ids=["ma", "es_int_and_float", "tune_grid1", "tune_gridM"])
def test_run_rejects_repeated_grid_value(tmp_path, capsys, method, message):
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(run_config(tmp_path, methods=[method])), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("method, extra, flag", [
    ("bu", ["--weights", "w.csv"], "--weights: only --method mint reads it"),
    ("bu", ["--panel", "p.csv"], "--panel: only --method td reads it"),
    ("bu", ["--train-len", "5"], "--train-len: only --method td reads it"),
    ("td", ["--panel", "p.csv", "--weights", "w.csv"], "--weights: only --method mint reads it"),
    ("mint", ["--panel", "p.csv"], "--panel: only --method td reads it"),
    ("mint", ["--weights", "w.csv", "--train-len", "20"], "--train-len: only --method td reads it"),
])
def test_reconcile_rejects_options_its_method_ignores(tmp_path, small_setup, capsys, method, extra, flag):
    _, hier, pcsv = small_setup
    out = tmp_path / "c.csv"
    code = main(["reconcile", "--method", method, "--hierarchy", str(hier), "--base", str(pcsv),
                 "--out", str(out)] + extra)
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("train_len", ["500", "0"])
def test_reconcile_td_names_a_train_len_outside_the_panel(tmp_path, small_setup, capsys, train_len):
    _, hier, pcsv = small_setup
    out = tmp_path / "c.csv"
    code = main(["reconcile", "--method", "td", "--hierarchy", str(hier), "--base", str(pcsv), "--panel", str(pcsv),
                 "--train-len", train_len, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (2, f"config error: --train-len: train_len {train_len} outside [1, 29]\n")
    assert not out.exists()


def test_reconcile_td_splits_by_the_given_training_period(tmp_path, small_setup):
    h, hier, pcsv = small_setup
    out = tmp_path / "c.csv"
    assert main(["reconcile", "--method", "td", "--hierarchy", str(hier), "--base", str(pcsv), "--panel", str(pcsv),
                 "--train-len", "12", "--out", str(out)]) == 0
    values = load_panel_csv(pcsv, h).values
    props = values[3:, :12].sum(axis=1) / values[0, :12].sum()
    assert np.allclose(load_panel_csv(out, h).values[3:], np.outer(props, values[0]), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    """A configuration too large to allocate (say, a huge train.hidden_dim) ends in one line, not a traceback."""

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000, 1000)")

    monkeypatch.setattr(f"htsreg.cli.{'run_benchmark' if command == 'run' else 'reg_sweep'}", too_large)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_BASE))
    argv = (["run", "--config", str(run_config(tmp_path)), "--out-dir", str(tmp_path / "o")] if command == "run" else
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: out of memory") and "745. GiB" in err
