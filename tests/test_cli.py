"""Tests for the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htsreg.cli import main
from htsreg.hierarchy import build_hierarchy, write_hierarchy_json
from htsreg.panel import load_panel_csv
from htsreg.synthgen import preset_hierarchy

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_setup(tmp_path):
    """Hierarchy JSON plus a small coherent panel CSV on disk."""
    h = build_hierarchy(SMALL_PARENTS)
    hier = tmp_path / "h.json"
    write_hierarchy_json(h, hier)
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


def test_train_writes_run_json(tmp_path, small_setup):
    _, hier, pcsv = small_setup
    out = tmp_path / "run.json"
    code = main([
        "train", "--panel", str(pcsv), "--hierarchy", str(hier),
        "--lambda1", "0.4", "--lambdaM", "1.5", "--max-epochs", "6",
        "--seed", "3", "--train-len", "20", "--out", str(out),
    ])
    assert code == 0
    run = json.loads(out.read_text())
    assert run["epochs"] == 6
    assert len(run["objective"]) == 6
    assert run["config"]["lambdaM"] == 1.5
    assert np.asarray(run["params"]["w2"]).shape == (16, 8)


def test_train_divergence_exit_code(tmp_path, small_setup):
    _, hier, pcsv = small_setup
    with np.errstate(all="ignore"):
        code = main([
            "train", "--panel", str(pcsv), "--hierarchy", str(hier),
            "--eta", "1e160", "--max-epochs", "10", "--train-len", "20",
            "--out", str(tmp_path / "run.json"),
        ])
    assert code == 3


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


@pytest.mark.parametrize("edit, message", [(set_nan, "non-finite cell 'nan'"),
                                           (duplicate_column, "duplicate node column"),
                                           (swap_timestamps, "strictly increasing")],
                         ids=["nan_cell", "duplicate_column", "timestamps_out_of_order"])
def test_reconcile_rejects_bad_base_file(tmp_path, small_setup, capsys, edit, message):
    """NaN cells, repeated node columns and out-of-order timestamps end with exit 2, not output."""
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


def test_run_parallel_jobs_match_serial(tmp_path):
    cfg = run_config(tmp_path)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(cfg), "--out-dir", str(d1)])
    main(["run", "--config", str(cfg), "--out-dir", str(d2), "--jobs", "2"])
    assert (d1 / "trials.json").read_bytes() == (d2 / "trials.json").read_bytes()


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
    proc = subprocess.run(
        [sys.executable, "-m", "htsreg.cli", "generate", "--preset", "NgtvC",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_generate_io_error_exit_code(tmp_path):
    """Writing into a missing directory maps to the I/O exit code."""
    out = tmp_path / "no" / "such" / "dir" / "p.csv"
    assert main(["generate", "--preset", "NgtvC", "--out", str(out)]) == 4
