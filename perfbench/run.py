"""Benchmark of the htsreg command line: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ngtvc_run --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The program is used from source (``src``
goes on the worker's PYTHONPATH); nothing is installed. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ngtvc_run", "lambda_sweep", "cli_pipeline")
# One process, one BLAS thread and a fixed hash seed, set only in the worker's environment.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
SETUP_PROBES = 3  # fresh interpreters timed for set-up, besides the worker itself
TIME_LIMIT_S = 175


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(result: dict, probe_setups: list[float]) -> dict[str, tuple[float, str]]:
    passes = result["passes"]
    return {
        "setup_s": (_median(probe_setups + [result["setup_s"]]), "s"),
        "wall_s": (_median(p["wall_s"] for p in passes), "s"),
        "cli_ops_per_s": (_median(p["ops"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "artifact_mb": (_median(p["bytes"] for p in passes) / 1e6, "MB"),
    }


def per_layer(result: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Counts from the first traced pass (they must repeat exactly), times as medians."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    problems = [f"traced pass {i}: counts differ from traced pass 0"
                for i, p in enumerate(traced) if p["counts"] != traced[0]["counts"]]
    metrics = {}
    for name, first in traced[0]["layer"].items():
        if isinstance(first, int):
            problems += [f"traced pass {i}: {name} = {p['layer'][name]} != {first}"
                         for i, p in enumerate(traced) if p["layer"][name] != first]
            value = first
        else:
            value = _median(p["layer"][name] for p in traced)
        unit = ("count" if name.endswith((".calls", ".epochs")) else "bytes" if name.endswith(".bytes")
                else "us" if name.endswith("_us") else "s" if name.endswith("_s") else "ratio")
        metrics[name] = (value, unit)
    metrics["trainer.model_epochs_per_s"] = (_median(p["epochs"] / p["wall_s"] for p in plain), "1/s")
    overhead = _median(p["wall_s"] for p in traced) / _median(p["wall_s"] for p in plain) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "htsreg" / "__init__.py").is_file():
        print(f"perfbench: no htsreg sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--work-dir", str(work)]

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    try:
        probes = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            out = subprocess.run(worker + ["--probe"], env=env, cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE, text=True, timeout=remaining())
            probes.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
        result_path = work / "result.json"
        with open(work / "worker.log", "w", encoding="utf-8") as log:
            subprocess.run(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--result", str(result_path)],
                           env=env, cwd=ROOT, check=True, stdout=log, timeout=remaining())
        result = json.loads(result_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    if args.trace:
        metrics, problems = per_layer(result)
    else:
        metrics, problems = end_to_end(result, probes), []
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        problems += p["problems"]
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed, error_rate {failed / attempted:.4g}")
    walls = sorted(p["wall_s"] for p in passes)
    print(f"pass wall_s: n={len(walls)} min {walls[0]:.4f} median {_median(walls):.4f} max {walls[-1]:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
