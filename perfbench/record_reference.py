"""Record the reference outputs that the workload checks compare against.

Runs each workload's own CLI calls over its whole input pool (the 30
published trial seeds; panel seeds 0..99 of each preset) and writes
``perfbench/reference/<workload>.json``. Re-record only when a change to
htsreg is meant to change results, and say so in that change.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py ngtvc_run
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

from checks import LEVELS
from worker import (CLI_PANEL_SEEDS, HERE, PRESETS, PUBLISHED_SEEDS, SWEEP_MODES, SWEEP_X_GRID,
                    CliPipeline, LambdaSweep, NgtvcRun, call_cli)


def _run(argv: list[str]) -> None:
    if call_cli(argv) != 0:
        raise SystemExit(f"htsreg {' '.join(argv)} failed")


def record_ngtvc_run(work: Path) -> dict:
    ref: dict = {"trials": {}}
    for seed in PUBLISHED_SEEDS:
        wl = NgtvcRun(seed - 1, work)
        wl.reset_out()
        _run(["run", "--config", str(wl.config_path), "--out-dir", str(wl.out), "--jobs", "1"])
        trials = json.loads((wl.out / "trials.json").read_text())
        with open(wl.out / "epoch_trace.csv", encoding="utf-8", newline="") as f:
            rows = Counter(row[0] for row in csv.reader(f))
        ref["labels"] = list(trials["methods"])
        ref["node_order"] = trials["node_order"]
        ref["baselines"] = {lb: m["trials"][0]["per_node"] for lb, m in trials["methods"].items()
                            if not lb.startswith("NN")}
        ref["trials"][str(seed)] = {
            lb: {"per_node": m["trials"][0]["per_node"],
                 **({"epochs": rows[lb] // len(LEVELS)} if rows[lb] else {})}
            for lb, m in trials["methods"].items() if lb.startswith("NN")
        }
        print(f"ngtvc_run trial seed {seed}", flush=True)
    return ref


def record_lambda_sweep(work: Path) -> dict:
    ref: dict = {"x_grid": SWEEP_X_GRID, "modes": SWEEP_MODES, "curves": {}}
    for seed in PUBLISHED_SEEDS:
        wl = LambdaSweep(seed - 1, work)
        wl.reset_out()
        out = wl.out / "sweep.csv"
        _run(["sweep", "--config", str(wl.config_path), "--out", str(out)])
        curves: dict = {mode: {lvl: [] for lvl in LEVELS} for mode in SWEEP_MODES}
        with open(out, encoding="utf-8", newline="") as f:
            for mode, _, level, value in list(csv.reader(f))[1:]:
                curves[mode][level].append(float(value))
        ref["curves"][str(seed)] = curves
        print(f"lambda_sweep trial seed {seed}", flush=True)
    return ref


def record_cli_pipeline(work: Path) -> dict:
    wl = CliPipeline(0, work)
    wl.reset_out()
    labels: dict = {}
    for preset in PRESETS:
        for seed in range(CLI_PANEL_SEEDS):
            tag = f"{preset}_{seed}"
            _run(["generate", "--preset", preset, "--seed", str(seed), "--out", str(wl.out / f"{tag}.csv")])
            _run(["run", "--config", str(wl.run_config(preset, seed)), "--out-dir", str(wl.out / f"{tag}_run")])
            trials = json.loads((wl.out / f"{tag}_run" / "trials.json").read_text())
            labels.setdefault(preset, {})[str(seed)] = list(trials["methods"])
    return {"labels": labels}


RECORDERS = {"ngtvc_run": record_ngtvc_run, "lambda_sweep": record_lambda_sweep,
             "cli_pipeline": record_cli_pipeline}


def main() -> int:
    ap = argparse.ArgumentParser(description="Record workload reference outputs.")
    ap.add_argument("workloads", nargs="+", choices=sorted(RECORDERS))
    ap.add_argument("--work-dir", type=Path, default=Path(".perfbench-work") / "record")
    args = ap.parse_args()
    for name in args.workloads:
        ref = RECORDERS[name](args.work_dir / name)
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
