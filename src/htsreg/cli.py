"""Command-line interface: generate / train / reconcile / run / sweep."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    BenchmarkResult,
    MethodSpec,
    reg_sweep,
    run_benchmark,
)
from .hierarchy import (
    HierarchySpec,
    aggregate_bottom,
    check_coherence,
    load_hierarchy_json,
    summing_matrix,
)
from .neuralnet import save_checkpoint
from .panel import SeriesPanel, _read_wide_csv, _write_wide_csv, load_panel_csv, standardize, write_panel_csv
from .reconcile import (
    check_unbiasedness,
    historical_proportions,
    mint_reconcile,
    top_down,
)
from .synthgen import PRESET_NAMES, PRNG_IDENTITY, generate_dataset, preset_hierarchy
from .trainer import RegWeights, TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Configuration problem; the message carries the offending field path."""


def _need(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


# ---------------------------------------------------------------- generate

def cmd_generate(args: argparse.Namespace) -> int:
    panel = generate_dataset(args.preset, seed=args.seed)
    out = Path(args.out)
    write_panel_csv(panel, out)
    sidecar = out.with_suffix(".json")
    meta = {
        "preset": args.preset,
        "seed": args.seed,
        "prng": PRNG_IDENTITY,
        "burn_in": 50,
        "timepoints": panel.n_time,
        "train_len": panel.train_len,
    }
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    print(f"wrote {out} and {sidecar}")
    return EXIT_OK


# ---------------------------------------------------------------- train

def cmd_train(args: argparse.Namespace) -> int:
    h = load_hierarchy_json(args.hierarchy)
    panel = load_panel_csv(args.panel, h, train_len=args.train_len)
    if not args.no_standardize:
        panel, _ = standardize(panel)
    config = TrainConfig(
        eta=args.eta,
        eps=args.eps,
        max_epochs=args.max_epochs,
        activation=args.activation,
        lag=args.lag,
        seed=args.seed,
        bias=not args.no_bias,
    )
    reg = RegWeights.build(h, args.lambda1, args.lambdaM)
    result = train(panel, h, reg, config)
    payload = {
        "config": {
            "panel": args.panel,
            "hierarchy": args.hierarchy,
            "lambda1": args.lambda1,
            "lambdaM": args.lambdaM,
            "eta": args.eta,
            "eps": args.eps,
            "max_epochs": args.max_epochs,
            "activation": args.activation,
            "lag": args.lag,
            "seed": args.seed,
            "bias": not args.no_bias,
            "standardized": not args.no_standardize,
        },
        "epochs": result.epochs,
        "reason": result.reason,
        "objective": result.objective.tolist(),
        "params": {
            "w2": result.params.w2.tolist(),
            "b2": result.params.b2.tolist(),
            "w3": result.params.w3.tolist(),
            "b3": result.params.b3.tolist(),
        },
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")
    print(f"trained {result.epochs} epochs ({result.reason}); wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- reconcile

def cmd_reconcile(args: argparse.Namespace) -> int:
    h = load_hierarchy_json(args.hierarchy)
    nodes, data = _read_wide_csv(args.base)  # only the columns a method needs must be present
    base = dict(zip(nodes, data))
    s = summing_matrix(h)

    if args.method == "bu":
        for b in h.bottom_ids:
            _need(b in base, "base", f"bottom-up needs a column for bottom node {b}")
        coherent = aggregate_bottom(h, np.vstack([base[b] for b in h.bottom_ids]))
        n_bottom = h.n_bottom
        p = np.hstack([np.zeros((n_bottom, h.n_nodes - n_bottom)), np.eye(n_bottom)])
        gamma, w_cond = None, None
    elif args.method == "td":
        _need(h.root in base, "base", f"top-down needs a column for the root node {h.root}")
        _need(args.panel is not None, "--panel", "top-down needs a panel for historical proportions")
        panel = load_panel_csv(args.panel, h, train_len=args.train_len)
        props = historical_proportions(panel)
        coherent = top_down(h, base[h.root], props)
        p = np.hstack([props[:, None], np.zeros((h.n_bottom, h.n_nodes - 1))])
        gamma, w_cond = None, None
    else:  # mint
        for node in h.node_ids:
            _need(node in base, "base", f"mint needs a column for every node (missing {node})")
        all_base = np.vstack([base[n] for n in h.node_ids])
        if args.weights is not None:
            w = np.loadtxt(args.weights, delimiter=",")
        else:
            w = np.eye(h.n_nodes)
        coherent, info = mint_reconcile(h, all_base, w, return_info=True)
        p, gamma, w_cond = info.p_matrix, info.gamma, info.w_condition

    _write_wide_csv(args.out, h.node_ids, coherent)
    diag = {
        "method": args.method,
        "sps_max_deviation": check_unbiasedness(p, s).max_deviation,
        "coherence_max_violation": check_coherence(h, coherent).max_violation,
        "gamma": gamma,
        "w_condition": w_cond,
    }
    diag_path = args.diagnostics or str(Path(args.out).with_suffix(".diag.json"))
    with open(diag_path, "w", encoding="utf-8") as f:
        json.dump(diag, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} and {diag_path}")
    return EXIT_OK


# ---------------------------------------------------------------- run / sweep

def _load_config(path: str) -> tuple[dict, Path]:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _need(isinstance(raw, dict), path, "config must be a JSON object")
    if "config" in raw and "artifact_version" in raw:  # manifest re-run
        raw = raw["config"]
    return raw, Path(path).resolve().parent


def _panel_from_config(cfg: dict, base_dir: Path) -> tuple[SeriesPanel, HierarchySpec]:
    _need("panel" in cfg, "panel", "missing key")
    pc = cfg["panel"]
    _need(isinstance(pc, dict), "panel", "must be an object")
    if "preset" in pc:
        _need(pc["preset"] in PRESET_NAMES, "panel.preset", f"unknown preset; choose from {PRESET_NAMES}")
        h = preset_hierarchy()
        panel = generate_dataset(pc["preset"], seed=int(pc.get("seed", 0)))
        if "train_len" in pc:
            panel = panel.with_train_len(int(pc["train_len"]))
    elif "csv" in pc:
        _need("hierarchy" in cfg, "hierarchy", "a csv panel needs a hierarchy file")
        hier_path = base_dir / cfg["hierarchy"]
        _need(hier_path.exists(), "hierarchy", f"file not found: {hier_path}")
        h = load_hierarchy_json(hier_path)
        csv_path = base_dir / pc["csv"]
        _need(csv_path.exists(), "panel.csv", f"file not found: {csv_path}")
        panel = load_panel_csv(csv_path, h, train_len=pc.get("train_len"))
    else:
        raise ConfigError("panel: needs either 'preset' or 'csv'")
    if cfg.get("standardize", True):
        panel, _ = standardize(panel)
    return panel, h


def _train_config_from(cfg: dict) -> TrainConfig:
    tc = cfg.get("train", {})
    _need(isinstance(tc, dict), "train", "must be an object")
    known = {"eta", "eps", "max_epochs", "activation", "lag", "bias", "hidden_dim"}
    for key in tc:
        _need(key in known, f"train.{key}", "unknown training option")
    try:
        return TrainConfig(
            eta=float(tc.get("eta", 1e-5)),
            eps=float(tc.get("eps", 5e-5)),
            max_epochs=int(tc.get("max_epochs", 10_000)),
            activation=str(tc.get("activation", "sigmoid")),
            lag=int(tc.get("lag", 2)),
            bias=bool(tc.get("bias", True)),
            hidden_dim=tc.get("hidden_dim"),
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc


def _methods_from_config(cfg: dict) -> list[MethodSpec]:
    _need("methods" in cfg and isinstance(cfg["methods"], list) and cfg["methods"],
          "methods", "must be a nonempty list")
    specs = []
    for i, m in enumerate(cfg["methods"]):
        _need(isinstance(m, dict) and "name" in m, f"methods[{i}]", "must be an object with 'name'")
        name = m["name"]
        _need(name in ("MA", "ES", "NN+BU", "NN+MinT", "NN+SR"), f"methods[{i}].name",
              f"unknown method {name!r}")
        if name == "NN+SR" and not m.get("tune", False):
            _need("lambda1" in m and "lambdaM" in m, f"methods[{i}]",
                  "NN+SR needs lambda1 and lambdaM (or tune=true)")
        specs.append(MethodSpec(
            name=name,
            grid=tuple(m["grid"]) if "grid" in m else None,
            lambda_root=m.get("lambda1"),
            lambda_mid=m.get("lambdaM"),
            tune=bool(m.get("tune", False)),
            tune_grid_root=tuple(m["tune_grid1"]) if "tune_grid1" in m else None,
            tune_grid_mid=tuple(m["tune_gridM"]) if "tune_gridM" in m else None,
        ))
    return specs


def _seeds_from_config(cfg: dict) -> list[int]:
    _need("trial_seeds" in cfg and isinstance(cfg["trial_seeds"], list) and cfg["trial_seeds"],
          "trial_seeds", "must be a nonempty list of integers")
    seeds = [int(s) for s in cfg["trial_seeds"]]
    _need(len(set(seeds)) == len(seeds), "trial_seeds", "seeds must be distinct")
    return seeds


def _write_table(result: BenchmarkResult, h: HierarchySpec, path: Path) -> None:
    level_attr = {"root": "root", "mid": "mid_mean", "bottom": "bottom_mean", "average": "all_mean"}

    def cell(label: str, node=None, level=None) -> str:
        summary = result.summaries.get(label)
        if summary is None:
            rep = result.reports[label][0]
            val = rep.per_node[node] if node is not None else getattr(rep, level_attr[level])
            return f"{val:.2f}"
        mean, hw = summary.per_node[node] if node is not None else summary.levels[level]
        return f"{mean:.2f}±{hw:.2f}"

    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["node"] + result.labels)
        writer.writerow(["Root"] + [cell(lb, node=h.root) for lb in result.labels])
        for m in h.mid_ids:
            writer.writerow([str(m)] + [cell(lb, node=m) for lb in result.labels])
        writer.writerow(["Mid-level"] + [cell(lb, level="mid") for lb in result.labels])
        for b in h.bottom_ids:
            writer.writerow([str(b)] + [cell(lb, node=b) for lb in result.labels])
        writer.writerow(["Bottom-level"] + [cell(lb, level="bottom") for lb in result.labels])
        writer.writerow(["Average"] + [cell(lb, level="average") for lb in result.labels])


def _write_trials(result: BenchmarkResult, h: HierarchySpec, path: Path) -> None:
    payload = {
        "node_order": list(h.node_ids),
        "seeds": result.seeds,
        "methods": {
            label: {
                "trials": [
                    {
                        "seed": rep.params.get("seed"),
                        "params": rep.params,
                        "per_node": {str(n): v for n, v in rep.per_node.items()},
                        "root": rep.root,
                        "mid_mean": rep.mid_mean,
                        "bottom_mean": rep.bottom_mean,
                        "all_mean": rep.all_mean,
                    }
                    for rep in result.reports[label]
                ]
            }
            for label in result.labels
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


def _write_traces(result: BenchmarkResult, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "trial_seed", "epoch", "level", "rmse"])
        for label in result.labels:
            for seed in sorted(result.traces.get(label, {})):
                for epoch, levels in enumerate(result.traces[label][seed], start=1):
                    for level, value in levels.items():
                        writer.writerow([label, seed, epoch, level, f"{value:.17g}"])


def _slug(label: str) -> str:
    return "".join(c.lower() if c.isalnum() else "_" for c in label).strip("_")


def cmd_run(args: argparse.Namespace) -> int:
    cfg, base_dir = _load_config(args.config)
    panel, h = _panel_from_config(cfg, base_dir)
    methods = _methods_from_config(cfg)
    seeds = _seeds_from_config(cfg)
    config = _train_config_from(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_benchmark(
        panel, h, methods, seeds, config,
        collect_traces=bool(cfg.get("epoch_trace", True)),
        jobs=args.jobs,
    )

    _write_table(result, h, out_dir / "table.csv")
    _write_trials(result, h, out_dir / "trials.json")
    _write_traces(result, out_dir / "epoch_trace.csv")
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for label, by_seed in result.checkpoints.items():
        for seed, params in by_seed.items():
            save_checkpoint(params, ckpt_dir / f"{_slug(label)}_seed{seed}.json", seed=seed)
    manifest = {
        "artifact_version": __version__,
        "command": "run",
        "prng": PRNG_IDENTITY,
        "ci_method": "Student-t, 95% two-sided, n-1 degrees of freedom",
        "config": cfg,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"wrote {out_dir}/table.csv, trials.json, epoch_trace.csv, manifest.json")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, base_dir = _load_config(args.config)
    panel, h = _panel_from_config(cfg, base_dir)
    seeds = _seeds_from_config(cfg)
    config = _train_config_from(cfg)
    _need("x_grid" in cfg and isinstance(cfg["x_grid"], list) and cfg["x_grid"],
          "x_grid", "must be a nonempty list")
    xs = sorted(float(x) for x in cfg["x_grid"])
    _need(0.0 in xs, "x_grid", "must include 0")
    modes = tuple(cfg.get("modes", ["(x,0)", "(0,x)", "(x,x)"]))

    try:
        curves = reg_sweep(panel, h, xs, seeds, config, modes=modes)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "x", "level", "relative_rmse"])
        for mode in modes:
            for level, values in curves[mode].items():
                for x, v in zip(xs, values):
                    writer.writerow([mode, f"{x:g}", level, f"{v:.17g}"])
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htsreg",
        description="Hierarchical time-series forecasting with structured regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic benchmark panel")
    g.add_argument("--preset", required=True, choices=PRESET_NAMES)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train one structured-regularization network")
    t.add_argument("--panel", required=True)
    t.add_argument("--hierarchy", required=True)
    t.add_argument("--lambda1", type=float, default=0.0)
    t.add_argument("--lambdaM", type=float, default=0.0)
    t.add_argument("--eta", type=float, default=1e-5)
    t.add_argument("--eps", type=float, default=5e-5)
    t.add_argument("--max-epochs", type=int, default=10_000)
    t.add_argument("--lag", type=int, default=2)
    t.add_argument("--activation", choices=("sigmoid", "relu"), default="sigmoid")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--train-len", type=int, default=None)
    t.add_argument("--no-bias", action="store_true")
    t.add_argument("--no-standardize", action="store_true")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    r = sub.add_parser("reconcile", help="turn base forecasts into coherent forecasts")
    r.add_argument("--method", required=True, choices=("bu", "td", "mint"))
    r.add_argument("--hierarchy", required=True)
    r.add_argument("--base", required=True, help="wide CSV of base forecasts")
    r.add_argument("--weights", default=None, help="CSV matrix W for mint (default: identity)")
    r.add_argument("--panel", default=None, help="panel CSV for top-down proportions")
    r.add_argument("--train-len", type=int, default=None)
    r.add_argument("--diagnostics", default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_reconcile)

    ru = sub.add_parser("run", help="run a full benchmark from a JSON config")
    ru.add_argument("--config", required=True)
    ru.add_argument("--out-dir", required=True)
    ru.add_argument("--jobs", type=int, default=1)
    ru.set_defaults(func=cmd_run)

    sw = sub.add_parser("sweep", help="relative-RMSE regularization sweep")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
