"""The benchmark in ``perfbench/`` can still wrap the program.

In every pass, traced or not, perfbench's tracer wraps htsreg's public
functions by name and reads fields of what some of them return
(``tracing.EPOCH_COUNTERS``). A public function of one of those names that
returns something else fails every benchmark operation while the program
itself is sound. These tests load the benchmark's tracer as it stands and
run the commands it times under both of its tracers.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from htsreg.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
METHODS = [{"name": "MA"}, {"name": "ES"}, {"name": "NN+BU"}, {"name": "NN+MinT"},
           {"name": "NN+SR", "lambda1": 0.0, "lambdaM": 2.1}]
COMMON = {"panel": {"preset": "NgtvC", "seed": 7}, "train": {"max_epochs": 3}, "trial_seeds": [1]}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def run_and_sweep(tmp_path, out):
    """A one-seed, 3-epoch run of all five methods and a sweep, writing to ``out``; their exit codes."""
    run_cfg, sweep_cfg = tmp_path / "run.json", tmp_path / "sweep.json"
    run_cfg.write_text(json.dumps({**COMMON, "methods": METHODS, "epoch_trace": True}))
    sweep_cfg.write_text(json.dumps({**COMMON, "x_grid": [0, 2.1]}))
    return (main(["run", "--config", str(run_cfg), "--out-dir", str(out / "run")]),
            main(["sweep", "--config", str(sweep_cfg), "--out", str(out / "sweep.csv")]))


def outputs(out):
    return {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced_pass", "traced_pass"])
def test_benchmark_tracers_wrap_run_and_sweep(tmp_path, tracing, traced):
    """Under an untraced pass's Tracer(EPOCH_COUNTERS) and a traced pass's Tracer(), both commands exit 0 and
    write the bytes of unwrapped calls; a traced pass sees the epoch hook and MinT's Cholesky factorizations."""
    (tmp_path / "wrapped").mkdir()
    assert run_and_sweep(tmp_path, tmp_path / "plain") == (0, 0)
    with tracing.Tracer(None if traced else tracing.EPOCH_COUNTERS) as tracer:
        assert run_and_sweep(tmp_path, tmp_path / "wrapped") == (0, 0)
    assert outputs(tmp_path / "wrapped") == outputs(tmp_path / "plain")
    if traced:
        assert tracer.stats[tracing.HOOK].calls > 0
        assert tracer.stats["reconcile.cho_factor"].calls > 0


def test_traced_generate_counts_its_generate_dataset_call(tmp_path, tracing):
    """The benchmark's per-layer ``synthgen.generate_dataset.busy_s`` reads the tracer's wrapper of that
    public function: it stays traced, and one ``generate`` counts one call through ``cli``'s import."""
    assert "synthgen.generate_dataset" in tracing.traced_functions()
    with tracing.Tracer() as tracer:
        assert main(["generate", "--preset", "NgtvC", "--seed", "7", "--out", str(tmp_path / "p.csv")]) == 0
    assert tracer.stats["synthgen.generate_dataset"].calls == 1
