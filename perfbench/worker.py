"""Benchmark worker: set-up, timed passes and output checks of one workload.

run.py starts this file in a fresh interpreter with ``src`` on PYTHONPATH
and one BLAS thread, so the load is one process. Each pass calls
``htsreg.cli.main`` in-process, exactly as the ``htsreg`` command does, and
its outputs are checked after the timed region.

    worker.py --workload W --seed N --work-dir D --probe
        print the set-up time and exit
    worker.py --workload W --seed N --work-dir D --seconds S --trace 0|1 --result F
        run passes for S seconds and write their records to F
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import EPOCH_COUNTERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent

# The published experiment (configs/ngtvc.json): panel, methods, training
# settings and the 30 trial seeds. Epochs, grids and step size are never reduced.
NGTVC_PANEL = {"preset": "NgtvC", "seed": 7}
NGTVC_METHODS = [
    {"name": "MA"},
    {"name": "ES"},
    {"name": "NN+BU"},
    {"name": "NN+MinT"},
    {"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1},
]
PUBLISHED_TRAIN = {"eta": 1e-5, "eps": 5e-5, "max_epochs": 10000, "activation": "sigmoid", "lag": 2}
PUBLISHED_SEEDS = tuple(range(1, 31))
SWEEP_X_GRID = [0.0, 2.1]
SWEEP_MODES = ["(x,0)", "(0,x)", "(x,x)"]
PRESETS = ("NgtvC", "WeakC", "PstvC")
PRESET_PARENTS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 3, 9: 3, 10: 3, 11: 4, 12: 4, 13: 4}
CLI_PANEL_SEEDS = 100      # panel seeds 0..99 of each preset have reference labels
CLI_PANELS_PER_PRESET = 3  # a cli_pipeline pass covers 3 presets x 3 panels x 5 calls
TRAIN_LEN = 70


def trial_seed(seed: int) -> int:
    """Workload seed -> published trial seed; seed 0 is the prefix [1]."""
    return PUBLISHED_SEEDS[seed % len(PUBLISHED_SEEDS)]


def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference" / f"{name}.json").read_text())


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


@dataclass
class Op:
    """One CLI call, the check of what it wrote, and its run directory if any."""

    argv: list[str]
    check: Callable[[], list[str]]
    run_dir: Path | None = None


class Workload:
    """Inputs and calls of one workload, all derived from the workload seed.

    The constructor uses only the standard library, so set-up timing
    starts before numpy is imported.
    """

    name = ""
    setup_panel = NGTVC_PANEL

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.inputs = work_dir / "in"
        self.out = work_dir / "out"
        self.config_path = self.inputs / "config.json"

    def prepare(self, pass_index: int) -> list[Op]:
        """Write the inputs of one pass and return its calls (untimed)."""
        self.reset_out()
        return self._ops(pass_index)

    def reset_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def _ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError


class NgtvcRun(Workload):
    name = "ngtvc_run"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.trial_seed = trial_seed(seed)
        _write_json(self.config_path, {
            "panel": NGTVC_PANEL, "standardize": True, "methods": NGTVC_METHODS,
            "train": PUBLISHED_TRAIN, "trial_seeds": [self.trial_seed], "epoch_trace": True,
        })

    def _ops(self, pass_index: int) -> list[Op]:
        from checks import check_ngtvc_run

        ref = load_reference(self.name)
        argv = ["run", "--config", str(self.config_path), "--out-dir", str(self.out), "--jobs", "1"]
        return [Op(argv, lambda: check_ngtvc_run(self.out, self.trial_seed, ref), self.out)]


class LambdaSweep(Workload):
    name = "lambda_sweep"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.trial_seed = trial_seed(seed)
        _write_json(self.config_path, {
            "panel": NGTVC_PANEL, "standardize": True, "train": PUBLISHED_TRAIN,
            "trial_seeds": [self.trial_seed], "x_grid": SWEEP_X_GRID, "modes": SWEEP_MODES,
        })

    def _ops(self, pass_index: int) -> list[Op]:
        from checks import check_lambda_sweep

        ref = load_reference(self.name)
        out = self.out / "sweep.csv"
        argv = ["sweep", "--config", str(self.config_path), "--out", str(out)]
        return [Op(argv, lambda: check_lambda_sweep(out, self.trial_seed, ref))]


class CliPipeline(Workload):
    """Per panel: generate, a baselines-only run on the CSV, reconcile bu/td/mint."""

    name = "cli_pipeline"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.hierarchy = _write_json(self.inputs / "h.json", {
            "nodes": list(range(1, 14)),
            "parent": {str(c): p for c, p in sorted(PRESET_PARENTS.items())},
        })
        first = self.panels(0)[0]
        self.setup_panel = {"preset": first[0], "seed": first[1]}
        self.config_path = self.run_config(*first)

    def panels(self, pass_index: int) -> list[tuple[str, int]]:
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        return [(preset, s) for preset in PRESETS
                for s in rng.sample(range(CLI_PANEL_SEEDS), CLI_PANELS_PER_PRESET)]

    def run_config(self, preset: str, panel_seed: int) -> Path:
        tag = f"{preset}_{panel_seed}"
        return _write_json(self.inputs / f"{tag}.run.json", {
            "panel": {"csv": f"../out/{tag}.csv", "train_len": TRAIN_LEN},
            "hierarchy": "h.json", "standardize": True,
            "methods": [{"name": "MA"}, {"name": "ES"}], "trial_seeds": [1], "epoch_trace": False,
        })

    def _ops(self, pass_index: int) -> list[Op]:
        import numpy as np
        from checks import check_baseline_run, check_generate, check_reconcile

        labels = load_reference(self.name)["labels"]
        rng = np.random.default_rng([self.seed, pass_index])
        h, ops = str(self.hierarchy), []
        for preset, panel_seed in self.panels(pass_index):
            tag = f"{preset}_{panel_seed}"
            panel_csv, run_dir = self.out / f"{tag}.csv", self.out / f"{tag}_run"
            base_csv, w_csv = self.inputs / f"{tag}.base.csv", self.inputs / f"{tag}.w.csv"
            base = rng.standard_normal((13, 100 - TRAIN_LEN)) * 2.0
            with open(base_csv, "w", encoding="utf-8") as f:
                f.write("t," + ",".join(str(n) for n in range(1, 14)) + "\n")
                for t, col in enumerate(base.T, start=1):
                    f.write(f"{t}," + ",".join(f"{v:.17g}" for v in col) + "\n")
            a = rng.standard_normal((13, 40))
            np.savetxt(w_csv, a @ a.T / 40 + 0.1 * np.eye(13), fmt="%.17g", delimiter=",")
            ops.append(Op(["generate", "--preset", preset, "--seed", str(panel_seed), "--out", str(panel_csv)],
                          lambda p=panel_csv, pr=preset, s=panel_seed: check_generate(p, PRESET_PARENTS, pr, s)))
            ops.append(Op(["run", "--config", str(self.run_config(preset, panel_seed)),
                           "--out-dir", str(run_dir), "--jobs", "1"],
                          lambda d=run_dir, want=labels[preset][str(panel_seed)]: check_baseline_run(d, want),
                          run_dir))
            for method in ("bu", "td", "mint"):
                out, diag = self.out / f"{tag}.{method}.csv", self.out / f"{tag}.{method}.diag.json"
                argv = ["reconcile", "--method", method, "--hierarchy", h, "--base", str(base_csv),
                        "--out", str(out), "--diagnostics", str(diag)]
                extra = {"td": ["--panel", str(panel_csv), "--train-len", str(TRAIN_LEN)],
                         "mint": ["--weights", str(w_csv)]}.get(method, [])
                ops.append(Op(argv + extra, lambda m=method, o=out, d=diag, b=base_csv, p=panel_csv, w=w_csv:
                              check_reconcile(m, o, d, PRESET_PARENTS, b, p, TRAIN_LEN, w)))
        return ops


WORKLOADS = {wl.name: wl for wl in (NgtvcRun, LambdaSweep, CliPipeline)}


def setup(wl: Workload) -> float:
    """Seconds to import htsreg, parse the workload config and build its first panel."""
    t0 = time.perf_counter()
    import htsreg
    import htsreg.cli  # noqa: F401  (the entry point every pass calls)

    json.loads(wl.config_path.read_text())
    htsreg.standardize(htsreg.generate_dataset(wl.setup_panel["preset"], seed=wl.setup_panel["seed"]))
    return time.perf_counter() - t0


def call_cli(argv: list[str]) -> int:
    from htsreg import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 -- a crash is one failed operation, not the end of the run
        traceback.print_exc()
        return -1


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(wl: Workload, pass_index: int, traced: bool) -> dict:
    ops = wl.prepare(pass_index)
    with Tracer(None if traced else EPOCH_COUNTERS) as tracer:
        gc.collect()  # start every pass with the same collector state
        t0 = time.perf_counter()
        codes = [call_cli(op.argv) for op in ops]
        wall = time.perf_counter() - t0
    failed, problems = 0, []
    for op, code in zip(ops, codes):
        try:
            found = [f"exit code {code}"] if code != 0 else op.check()
        except Exception as exc:  # noqa: BLE001 -- unreadable output fails the check
            found = [f"output unreadable: {exc!r}"]
        if found:
            failed += 1
            problems += [f"{op.argv[0]} {op.argv[1:3]}: {msg}" for msg in found[:3]]
    run_bytes = sum(dir_bytes(op.run_dir) for op in ops if op.run_dir)
    record = {
        "traced": traced, "wall_s": wall, "ops": len(ops), "failed": failed,
        "problems": problems[:10], "bytes": dir_bytes(wl.out),
        "epochs": sum(tracer.stats[name].epochs for name in EPOCH_COUNTERS if name in tracer.stats),
    }
    if traced:
        record["layer"] = layer_metrics(tracer.stats, run_bytes)
        record["counts"] = tracer.counts()
    return record


def run_passes(wl: Workload, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next one would end past the deadline (at least one).

    With tracing, untraced and traced passes alternate on the inputs of
    pass 0, so traced counts must repeat exactly and the untraced passes
    give the tracing overhead.
    """
    deadline = time.perf_counter() + seconds
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, 0 if trace else len(passes), traced))
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        estimate = statistics.median(p["wall_s"] for p in passes if p["traced"] == next_traced)
        if time.perf_counter() + estimate > deadline:
            return passes


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    setup_s = setup(wl)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    passes = run_passes(wl, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    _write_json(args.result, {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                              "env": environment(), "passes": passes})
    return 0


if __name__ == "__main__":
    sys.exit(main())
