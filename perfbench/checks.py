"""Output-correctness checks for the benchmark workloads.

Each check reads what one CLI call wrote and returns a list of failure
messages (empty when the output is correct). The checks use numpy and the
standard library only, never htsreg, so a defect in the package cannot make
its own output look right.

Floating-point results are compared with ``close``: |a - b| <= ATOL + RTOL*|b|.
The tolerance leaves room for a training kernel that sums in another order,
and is far below any change of the model, the data or the seeds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-9
SPS_TOL = 1e-8
LEVELS = ("root", "mid", "bottom", "average")
TABLE_ROWS = ("Root", "2", "3", "4", "Mid-level", "5", "6", "7", "8", "9", "10",
              "11", "12", "13", "Bottom-level", "Average")


def close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return [row for row in csv.reader(f) if row]


def read_wide_csv(path: Path) -> tuple[list[int], np.ndarray]:
    """Node ids and the |N| x T matrix of a wide ``t,<node>...`` CSV."""
    rows = _read_csv(path)
    nodes = [int(c) for c in rows[0][1:]]
    return nodes, np.array([[float(c) for c in r[1:]] for r in rows[1:]]).T


def incoherence(parents: dict[int, int], nodes: list[int], values: np.ndarray) -> float:
    """Largest |upper row - sum of its bottom descendants|, relative to the data scale."""
    pos = {n: i for i, n in enumerate(nodes)}
    uppers = sorted(set(parents.values()))
    root = next(p for p in uppers if p not in parents)
    leaves = sorted(c for c in parents if c not in uppers)
    scale = max(1.0, float(np.max(np.abs(values))))
    worst = 0.0
    for upper in uppers:
        kids = leaves if upper == root else [b for b in leaves if parents[b] == upper]
        total = sum(values[pos[b]] for b in kids)
        worst = max(worst, float(np.max(np.abs(values[pos[upper]] - total))) / scale)
    return worst


def _per_node_failures(where: str, got: dict, want: dict) -> list[str]:
    if set(got) != set(want):
        return [f"{where}: nodes {sorted(got)} != {sorted(want)}"]
    return [f"{where} node {n}: {got[n]!r} != reference {want[n]!r}"
            for n in sorted(want, key=int) if not close(float(got[n]), want[n])]


def check_ngtvc_run(out_dir: Path, trial_seed: int, ref: dict) -> list[str]:
    """``htsreg run`` on the NgtvC config with one trial seed."""
    fails: list[str] = []
    labels = ref["labels"]
    table = _read_csv(out_dir / "table.csv")
    if table[0] != ["node"] + labels:
        fails.append(f"table.csv header {table[0]} != {['node'] + labels}")
    if [r[0] for r in table[1:]] != list(TABLE_ROWS):
        fails.append(f"table.csv rows {[r[0] for r in table[1:]]} != {list(TABLE_ROWS)}")

    trials = json.loads((out_dir / "trials.json").read_text())
    if trials["node_order"] != ref["node_order"] or trials["seeds"] != [trial_seed]:
        fails.append(f"trials.json node_order/seeds {trials['node_order']}/{trials['seeds']}")
    if list(trials["methods"]) != labels:
        return fails + [f"trials.json methods {list(trials['methods'])} != {labels}"]
    nn_ref = ref["trials"][str(trial_seed)]
    for label in labels:
        got = trials["methods"][label]["trials"]
        want = ref["baselines"].get(label) or nn_ref[label]["per_node"]
        if len(got) != 1:
            fails.append(f"trials.json {label}: {len(got)} trials, expected 1")
            continue
        fails += _per_node_failures(f"trials.json {label}", got[0]["per_node"], want)

    traced = [lb for lb in labels if "epochs" in nn_ref.get(lb, {})]
    expected = ((lb, str(trial_seed), str(e), lvl)
                for lb in traced for e in range(1, nn_ref[lb]["epochs"] + 1) for lvl in LEVELS)
    with open(out_dir / "epoch_trace.csv", encoding="utf-8", newline="") as f:
        rows = csv.reader(f)
        if next(rows) != ["method", "trial_seed", "epoch", "level", "rmse"]:
            fails.append("epoch_trace.csv header mismatch")
        for n, row in enumerate(rows, start=2):
            want = next(expected, None)
            if want is None or tuple(row[:4]) != want or not math.isfinite(float(row[4])):
                fails.append(f"epoch_trace.csv line {n}: {row} (expected {want})")
                break
        else:
            if next(expected, None) is not None:
                fails.append("epoch_trace.csv is missing rows (one per epoch and level)")

    n_ckpt = len(list((out_dir / "checkpoints").glob("*.json")))
    if n_ckpt != len(nn_ref):
        fails.append(f"{n_ckpt} checkpoints, expected {len(nn_ref)}")
    return fails


def check_lambda_sweep(out_csv: Path, trial_seed: int, ref: dict) -> list[str]:
    """``htsreg sweep`` curves: reference values, and exactly 0 at x = 0."""
    rows = _read_csv(out_csv)
    if rows[0] != ["mode", "x", "level", "relative_rmse"]:
        return [f"sweep header {rows[0]}"]
    curves = ref["curves"][str(trial_seed)]
    expected = [(mode, f"{x:g}", lvl) for mode in ref["modes"] for lvl in LEVELS for x in ref["x_grid"]]
    if [tuple(r[:3]) for r in rows[1:]] != expected:
        return [f"sweep rows {[tuple(r[:3]) for r in rows[1:]]} != {expected}"]
    fails = []
    for i, ((mode, _, lvl), row) in enumerate(zip(expected, rows[1:])):
        x_idx = i % len(ref["x_grid"])
        value, want = float(row[3]), curves[mode][lvl][x_idx]
        if ref["x_grid"][x_idx] == 0.0 and value != 0.0:
            fails.append(f"sweep {mode} {lvl} at x=0 is {value}, not exactly 0")
        elif not close(value, want):
            fails.append(f"sweep {mode} {lvl} x={row[1]}: {value!r} != reference {want!r}")
    return fails


def check_generate(csv_path: Path, parents: dict[int, int], preset: str, seed: int) -> list[str]:
    """``htsreg generate``: 100 x 13 coherent panel and a matching sidecar."""
    nodes, values = read_wide_csv(csv_path)
    fails = []
    if sorted(nodes) != list(range(1, 14)) or values.shape != (13, 100):
        fails.append(f"{csv_path.name}: nodes {nodes}, shape {values.shape}")
    elif incoherence(parents, nodes, values) > 1e-12:
        fails.append(f"{csv_path.name}: panel is not coherent")
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    if (meta.get("preset"), meta.get("seed"), meta.get("train_len")) != (preset, seed, 70):
        fails.append(f"{csv_path.name}: sidecar {meta}")
    return fails


def check_baseline_run(out_dir: Path, want_labels: list[str]) -> list[str]:
    """Baselines-only ``htsreg run``: the grid search chose the reference MA/ES."""
    header = _read_csv(out_dir / "table.csv")[0]
    trials = json.loads((out_dir / "trials.json").read_text())
    if header != ["node"] + want_labels or list(trials["methods"]) != want_labels:
        return [f"{out_dir.name}: labels {header[1:]} != reference {want_labels}"]
    return []


def check_reconcile(method: str, out_csv: Path, diag_path: Path, parents: dict[int, int],
                    base_csv: Path, panel_csv: Path | None = None, train_len: int = 70,
                    w_csv: Path | None = None) -> list[str]:
    """``htsreg reconcile``: coherent output that matches an independent solve.

    bu keeps the bottom base rows; td splits the root row by training-period
    proportions; mint equals S (S' Wc^-1 S)^-1 S' Wc^-1 y with Wc the
    ridge-conditioned W at the gamma the diagnostics report. bu and mint
    must have SPS = S within SPS_TOL; top-down is biased by construction, so
    its SPS deviation is not checked.
    """
    nodes, got = read_wide_csv(out_csv)
    base_nodes, base = read_wide_csv(base_csv)
    diag = json.loads(diag_path.read_text())
    name = out_csv.name
    if nodes != base_nodes or got.shape != base.shape:
        return [f"{name}: nodes/shape {nodes} {got.shape} != base {base_nodes} {base.shape}"]
    fails = []
    if incoherence(parents, nodes, got) > 1e-12:
        fails.append(f"{name}: output is not coherent")
    if method in ("bu", "mint") and not diag["sps_max_deviation"] <= SPS_TOL:
        fails.append(f"{name}: sps_max_deviation {diag['sps_max_deviation']} > {SPS_TOL}")
    n_upper = len(set(parents.values()))
    if method == "bu":
        expected = np.vstack([got[:n_upper], base[n_upper:]])
    elif method == "td":
        _, panel = read_wide_csv(panel_csv)
        train = panel[:, :train_len]
        props = train[n_upper:].sum(axis=1) / train[0].sum()
        expected = np.vstack([got[:n_upper], np.outer(props, base[0])])
    else:
        w = np.loadtxt(w_csv, delimiter=",")
        w_c = w + diag["gamma"] * float(np.mean(np.diag(w))) * np.eye(w.shape[0])
        s = summing_matrix(parents, nodes)
        winv_s = np.linalg.solve(w_c, s)
        expected = s @ np.linalg.solve(s.T @ winv_s, winv_s.T @ base)
    scale = max(1.0, float(np.max(np.abs(expected))))
    if float(np.max(np.abs(got - expected))) > 1e-9 * scale:
        fails.append(f"{name}: {method} output differs from the independent solve")
    return fails


def summing_matrix(parents: dict[int, int], nodes: list[int]) -> np.ndarray:
    """|N| x |B| matrix with S[i, j] = 1 when bottom j descends from node i."""
    leaves = [n for n in nodes if n not in parents.values()]
    s = np.zeros((len(nodes), len(leaves)))
    for j, leaf in enumerate(leaves):
        node = leaf
        while True:
            s[nodes.index(node), j] = 1.0
            if node not in parents:
                break
            node = parents[node]
    return s
