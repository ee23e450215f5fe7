"""Start-up contract: importing htsreg loads neither scipy nor the process pool; each loads on first use.

scipy.special loads with the first summary of two or more trials, so every
other command starts without scipy. No command loads scipy.linalg: MinT's
Cholesky factorization is numpy's. Each case runs in a fresh interpreter,
since this one may have loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import htsreg
from htsreg import cli, reconcile
from htsreg.panel import _write_wide_csv, write_panel_csv
from htsreg.synthgen import generate_dataset, preset_hierarchy

SRC = str(Path(htsreg.__file__).resolve().parents[1])
DEFERRED = ("scipy", "scipy.linalg", "scipy.special", "concurrent.futures.process")


def fresh(code: str, cwd: Path | None = None) -> str:
    """The last line ``code`` prints, run in a new interpreter that imports htsreg from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, cwd=cwd)
    return out.stdout.splitlines()[-1]


def test_import_leaves_scipy_and_the_process_pool_unloaded():
    code = ("import sys, htsreg, htsreg.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'])")
    assert fresh(code) == "[]"


@pytest.fixture
def inputs(tmp_path):
    """A hierarchy file, a panel CSV, base forecasts, a W matrix and one config per run or sweep case."""
    h, panel = preset_hierarchy(), generate_dataset("NgtvC", seed=3)
    write_panel_csv(panel, tmp_path / "panel.csv")
    (tmp_path / "h.json").write_text(json.dumps({"nodes": list(h.node_ids), "parent": h.parent}))
    rng = np.random.default_rng(0)
    _write_wide_csv(tmp_path / "base.csv", panel.node_ids, rng.standard_normal((13, 5)))
    a = rng.standard_normal((13, 40))
    np.savetxt(tmp_path / "w.csv", a @ a.T / 40 + 0.1 * np.eye(13), delimiter=",")
    short = {"panel": {"preset": "NgtvC", "seed": 7}, "train": {"max_epochs": 3}}
    configs = {
        "baselines.json": {"panel": {"csv": "panel.csv", "train_len": 70}, "hierarchy": "h.json",
                           "methods": [{"name": "MA"}, {"name": "ES"}], "trial_seeds": [1], "epoch_trace": False},
        "sweep.json": {**short, "trial_seeds": [1], "x_grid": [0, 2.1], "modes": ["(x,0)"]},
        "two_seeds.json": {**short, "methods": [{"name": "NN+BU"}], "trial_seeds": [1, 2]},
        "mint.json": {**short, "methods": [{"name": "NN+MinT"}], "trial_seeds": [1]},
    }
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    return tmp_path


RECONCILE = ["reconcile", "--hierarchy", "h.json", "--base", "base.csv", "--out", "out.csv", "--method"]


@pytest.mark.parametrize("argv,loads", [
    (["generate", "--preset", "PstvC", "--seed", "2", "--out", "gen.csv"], set()),
    (RECONCILE + ["bu"], set()),
    (RECONCILE + ["td", "--panel", "panel.csv", "--train-len", "70"], set()),
    (["run", "--config", "baselines.json", "--out-dir", "run"], set()),
    (["sweep", "--config", "sweep.json", "--out", "sweep.csv"], set()),
    (RECONCILE + ["mint", "--weights", "w.csv"], set()),
    (["run", "--config", "mint.json", "--out-dir", "run"], set()),
    (["run", "--config", "two_seeds.json", "--out-dir", "run"], {"scipy", "scipy.special"}),
    (["run", "--config", "two_seeds.json", "--out-dir", "run", "--jobs", "2"], set(DEFERRED) - {"scipy.linalg"}),
], ids=["generate", "reconcile_bu", "reconcile_td", "baselines_run", "sweep", "reconcile_mint", "nn_mint_run",
        "two_seed_run", "two_seed_run_jobs_2"])
def test_commands_load_scipy_only_where_they_use_it(inputs, argv, loads):
    code = (f"import sys; from htsreg.cli import main; code = main({argv!r}); "
            f"print([code] + [m for m in {DEFERRED!r} if m in sys.modules])")
    assert fresh(code, cwd=inputs) == repr([0] + [m for m in DEFERRED if m in loads])


def test_reconcile_cholesky_is_its_own():
    """The benchmark's tracer (perfbench/tracing.py) wraps ``reconcile.cho_factor``: a function of reconcile
    itself, on numpy's LAPACK, which neither importing nor calling it turns into a scipy import."""
    code = ("import sys, numpy as np, htsreg.reconcile as r; "
            "c = r.cho_factor(np.array([[4.0, 2.0], [2.0, 5.0]])); x = r.cho_solve(c, np.array([8.0, 12.0])); "
            "print([r.cho_factor.__module__, r.cho_solve.__module__, c.tolist(), x.tolist(), "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy']])")
    assert fresh(code) == repr(["htsreg.reconcile", "htsreg.reconcile", [[2.0, 0.0], [1.0, 2.0]], [1.0, 2.0], []])


def test_mint_reconcile_calls_the_module_cho_factor(monkeypatch, wide_tree):
    """A counting reconcile.cho_factor is what mint_reconcile calls: once per factorization attempt."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((13, 40))
    w, base = a @ a.T / 40 + 0.1 * np.eye(13), rng.standard_normal((13, 5))
    want = reconcile.mint_reconcile(wide_tree, base, w)
    real, calls = reconcile.cho_factor, []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(reconcile, "cho_factor", counting)
    got = reconcile.mint_reconcile(wide_tree, base, w)
    assert calls == [(13, 13), (9, 9)]  # W, then S' W^-1 S: the first ridge rung needs no more
    assert got.tobytes() == want.tobytes()


def test_main_builds_its_parser_on_every_call(monkeypatch, tmp_path):
    """main() runs the command function the module holds at call time.

    ``set_defaults(func=cmd_run)`` binds the function when the parser is
    built, and the benchmark wraps ``cli.cmd_run`` anew on every pass to time
    ``cli.artifacts.busy_s``. A parser built once per process would keep the
    function it bound first and skip that wrapper, so the parser is not cached.
    """
    seen = []
    monkeypatch.setattr(cli, "cmd_generate", lambda args: seen.append(args.preset) or 0)
    assert cli.main(["generate", "--preset", "WeakC", "--out", str(tmp_path / "p.csv")]) == 0
    assert seen == ["WeakC"] and not (tmp_path / "p.csv").exists()
