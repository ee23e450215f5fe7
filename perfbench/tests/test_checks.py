"""Each workload's correctness check passes on real output and fails on a perturbed copy.

Runs one real pass per workload (about 30 s in total at the published
training settings), then edits one output file at a time.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
from pathlib import Path

import pytest

from worker import WORKLOADS, call_cli


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Workload name -> the checked operations of one real pass."""
    done = {}
    for name, cls in WORKLOADS.items():
        ops = cls(0, tmp_path_factory.mktemp(name)).prepare(0)
        for op in ops:
            assert call_cli(op.argv) == 0, op.argv
        done[name] = ops
    return done


def edited(path: Path, edit):
    """Apply ``edit`` to the text of ``path``; the returned callable restores it."""
    original = path.read_text()
    path.write_text(edit(original))
    return lambda: path.write_text(original)


def check_fails_after(op, path: Path, edit) -> list[str]:
    restore = edited(path, edit)
    try:
        return op.check()
    finally:
        restore()


def test_real_outputs_pass(outputs):
    for name, ops in outputs.items():
        for op in ops:
            assert op.check() == [], (name, op.argv)


def _scale_first_nn_rmse(text: str) -> str:
    trials = json.loads(text)
    per_node = trials["methods"]["NN+SR(0.0, 2.1)"]["trials"][0]["per_node"]
    per_node["5"] *= 1 + 1e-5
    return json.dumps(trials)


def test_ngtvc_run_rejects_perturbed_outputs(outputs):
    op = outputs["ngtvc_run"][0]
    out = op.run_dir
    assert check_fails_after(op, out / "trials.json", _scale_first_nn_rmse)
    assert check_fails_after(op, out / "table.csv", lambda t: t.replace("NN+BU", "NN+B", 1))
    assert check_fails_after(op, out / "table.csv", lambda t: t.replace("Mid-level", "Mid", 1))
    drop_last = lambda t: "".join(t.splitlines(keepends=True)[:-1])  # noqa: E731
    assert check_fails_after(op, out / "epoch_trace.csv", drop_last)
    ckpt = next((out / "checkpoints").glob("*.json"))
    moved = ckpt.rename(ckpt.with_suffix(".bak"))
    try:
        assert op.check()
    finally:
        moved.rename(ckpt)


def _edit_sweep(text: str, x: str, value: str) -> str:
    rows = list(csv.reader(text.splitlines()))
    for row in rows[1:]:
        if row[1] == x:
            row[3] = value if value else repr(float(row[3]) * (1 + 1e-4) + 1e-8)
            break
    return "\n".join(",".join(r) for r in rows) + "\n"


def test_lambda_sweep_rejects_perturbed_outputs(outputs):
    op = outputs["lambda_sweep"][0]
    out = Path(op.argv[op.argv.index("--out") + 1])
    assert check_fails_after(op, out, lambda t: _edit_sweep(t, "2.1", ""))
    assert check_fails_after(op, out, lambda t: _edit_sweep(t, "0", "1e-300"))


def _shift_bottom_coherently(text: str) -> str:
    """Add 1e-3 to node 5 and to its ancestors 2 and 1 at t = 1: still coherent."""
    lines = text.splitlines()
    cells = lines[1].split(",")
    for col in (1, 2, 5):  # columns of nodes 1, 2 and 5
        cells[col] = repr(float(cells[col]) + 1e-3)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _shift_cell(text: str) -> str:
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_cli_pipeline_rejects_perturbed_outputs(outputs):
    ops = outputs["cli_pipeline"]
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.argv[2] if op.argv[0] == "reconcile" else op.argv[0], op)
    gen, run = by_kind["generate"], by_kind["run"]
    assert check_fails_after(gen, Path(gen.argv[-1]), _shift_cell)
    table = run.run_dir / "table.csv"
    assert check_fails_after(run, table, lambda t: t.replace("MA(", "MA(1", 1))
    for method in ("bu", "td", "mint"):
        op = by_kind[method]
        out = Path(op.argv[op.argv.index("--out") + 1])
        assert check_fails_after(op, out, _shift_cell), method
        assert check_fails_after(op, out, _shift_bottom_coherently), method
    for method in ("bu", "mint"):
        op = by_kind[method]
        diag = Path(op.argv[op.argv.index("--diagnostics") + 1])
        worse = lambda t: json.dumps({**json.loads(t), "sps_max_deviation": 1e-6})  # noqa: E731
        assert check_fails_after(op, diag, worse), method


def test_embedded_config_matches_published(tmp_path):
    """The ngtvc_run workload is configs/ngtvc.json with one trial seed."""
    published = json.loads((Path(__file__).resolve().parents[2] / "configs" / "ngtvc.json").read_text())
    wl = WORKLOADS["ngtvc_run"](0, tmp_path)
    ours = json.loads(wl.config_path.read_text())
    assert ours.pop("trial_seeds") == published.pop("trial_seeds")[:1]
    assert ours == published
