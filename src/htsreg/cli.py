"""Command-line interface: generate / train / reconcile / run / sweep."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    SWEEP_MODES,
    BenchmarkResult,
    MethodSpec,
    reg_sweep,
    run_benchmark,
)
from .hierarchy import (
    LEVELS,
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
from .trainer import RegWeights, TrainConfig, TrainingDiverged, train_batch

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
    result = train_batch(panel, h, [reg], config)[0]
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
        "params": result.params.to_lists(),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")
    print(f"trained {result.epochs} epochs ({result.reason}); wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- reconcile

# The reconcile options that only one method reads.
_RECONCILE_OPTIONS = {"weights": "mint", "panel": "td", "train_len": "td"}


def cmd_reconcile(args: argparse.Namespace) -> int:
    for key, method in _RECONCILE_OPTIONS.items():
        _need(getattr(args, key) is None or args.method == method, "--" + key.replace("_", "-"),
              f"only --method {method} reads it, not --method {args.method}")
    h = load_hierarchy_json(args.hierarchy)
    nodes, data = _read_wide_csv(args.base, h)  # only the columns a method needs must be present
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

_COMMON_KEYS = {"panel", "hierarchy", "standardize", "train", "trial_seeds"}


def _load_config(path: str, keys: set[str]) -> tuple[dict, Path]:
    """A run or sweep config (or a run manifest) whose top-level keys are all in ``keys``."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(raw, dict) and "config" in raw and "artifact_version" in raw:  # manifest re-run
        raw = raw["config"]
    _need(isinstance(raw, dict), path, "config must be a JSON object")
    _check_keys(raw, keys, "", "unknown config key")
    return raw, Path(path).resolve().parent


def _check_keys(obj: dict, known: set[str], prefix: str, what: str) -> None:
    for key in obj:
        _need(key in known, f"{prefix}{key}", what)


def _panel_int(pc: dict, key: str, default: int | None) -> int | None:
    """``panel.<key>``: a JSON integer, or the default if absent (or null where the default is)."""
    value = pc.get(key, default)
    _need(value is default or (isinstance(value, int) and not isinstance(value, bool)),
          f"panel.{key}", f"must be an integer, got {value!r}")
    return value


def _flag(cfg: dict, key: str) -> bool:
    """A top-level on/off option: a JSON boolean, true if absent."""
    value = cfg.get(key, True)
    _need(isinstance(value, bool), key, f"must be true or false, got {value!r}")
    return value


def _panel_from_config(cfg: dict, base_dir: Path) -> tuple[SeriesPanel, HierarchySpec]:
    _need("panel" in cfg, "panel", "missing key")
    pc = cfg["panel"]
    _need(isinstance(pc, dict), "panel", "must be an object")
    _check_keys(pc, {"preset", "csv", "seed", "train_len"}, "panel.", "unknown panel option")
    train_len = _panel_int(pc, "train_len", None)
    if "preset" in pc:
        _need("csv" not in pc, "panel.csv", "a panel takes either 'preset' or 'csv', not both")
        _need("hierarchy" not in cfg, "hierarchy", "only a csv panel takes a hierarchy file")
        _need(pc["preset"] in PRESET_NAMES, "panel.preset", f"unknown preset; choose from {PRESET_NAMES}")
        h = preset_hierarchy()
        panel = generate_dataset(pc["preset"], seed=_panel_int(pc, "seed", 0))
        if train_len is not None:
            panel = panel.with_train_len(train_len)
    elif "csv" in pc:
        _need("seed" not in pc, "panel.seed", "only a preset panel takes a seed")
        _need("hierarchy" in cfg, "hierarchy", "a csv panel needs a hierarchy file")
        _need(isinstance(cfg["hierarchy"], str), "hierarchy", f"must be a file path, got {cfg['hierarchy']!r}")
        _need(isinstance(pc["csv"], str), "panel.csv", f"must be a file path, got {pc['csv']!r}")
        hier_path = base_dir / cfg["hierarchy"]
        _need(hier_path.exists(), "hierarchy", f"file not found: {hier_path}")
        h = load_hierarchy_json(hier_path)
        csv_path = base_dir / pc["csv"]
        _need(csv_path.exists(), "panel.csv", f"file not found: {csv_path}")
        panel = load_panel_csv(csv_path, h, train_len=train_len)
    else:
        raise ConfigError("panel: needs either 'preset' or 'csv'")
    if _flag(cfg, "standardize"):
        panel, _ = standardize(panel)
    return panel, h


def _train_config_from(cfg: dict) -> TrainConfig:
    tc = cfg.get("train", {})
    _need(isinstance(tc, dict), "train", "must be an object")
    _check_keys(tc, {"eta", "eps", "max_epochs", "activation", "lag", "bias", "hidden_dim"}, "train.",
                "unknown training option")
    try:
        return TrainConfig(**tc)
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc


def _is_number(value: object) -> bool:
    """A finite JSON number: not true or false (Python ints), nor the NaN and Infinity that json reads."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_number_list(value: object) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# The optional fields of a method: a check of the JSON value and its wording in the error.
_METHOD_FIELDS = {
    "tune": (lambda v: isinstance(v, bool), "true or false"),
    "lambda1": (_is_number, "a finite number"),
    "lambdaM": (_is_number, "a finite number"),
    "grid": (_is_number_list, "a list of finite numbers"),
    "tune_grid1": (_is_number_list, "a list of finite numbers"),
    "tune_gridM": (_is_number_list, "a list of finite numbers"),
}


def _methods_from_config(cfg: dict) -> list[MethodSpec]:
    _need("methods" in cfg and isinstance(cfg["methods"], list) and cfg["methods"],
          "methods", "must be a nonempty list")
    specs = []
    for i, m in enumerate(cfg["methods"]):
        _need(isinstance(m, dict) and "name" in m, f"methods[{i}]", "must be an object with 'name'")
        _check_keys(m, {"name", *_METHOD_FIELDS}, f"methods[{i}].", "unknown method option")
        for key, (ok, kind) in _METHOD_FIELDS.items():
            if key in m:
                _need(ok(m[key]), f"methods[{i}].{key}", f"must be {kind}, got {m[key]!r}")
        try:
            specs.append(MethodSpec(**m))
        except ValueError as exc:
            raise ConfigError(f"methods[{i}]: {exc}") from exc
    return specs


def _seeds_from_config(cfg: dict) -> list[int]:
    seeds = cfg.get("trial_seeds")
    _need(isinstance(seeds, list) and seeds and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds),
          "trial_seeds", "must be a nonempty list of integers")
    _need(len(set(seeds)) == len(seeds), "trial_seeds", "seeds must be distinct")
    return seeds


def _write_table(result: BenchmarkResult, h: HierarchySpec, path: Path) -> None:
    def cell(label: str, node=None, level=None) -> str:
        summary = result.summaries.get(label)
        if summary is None:
            rep = result.reports[label][0]
            val = rep.per_node[node] if node is not None else rep.levels[level]
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
                        **{key: rep.levels[lvl]
                           for key, lvl in zip(("root", "mid_mean", "bottom_mean", "all_mean"), LEVELS)},
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
    """``epoch_trace.csv``: one row per fit, epoch and level, in the csv module's excel dialect."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(["method", "trial_seed", "epoch", "level", "rmse"])
        for label in result.labels:
            for seed, fit in sorted(result.fits.get(label, {}).items()):
                if fit.epoch_eval is not None:
                    buf = io.StringIO()
                    csv.writer(buf, lineterminator=",").writerow([label, seed])  # quotes the label as needed
                    head = buf.getvalue().replace("%", "%%")
                    template = "".join(f"{head}%d,{level},%.17g\r\n" for level in LEVELS)  # one epoch
                    f.writelines(template % (e, root, e, mid, e, bottom, e, average)  # streamed: no whole-fit string
                                 for e, (root, mid, bottom, average) in enumerate(fit.epoch_eval.tolist(), 1))


def _slug(label: str) -> str:
    return "".join(c.lower() if c.isalnum() else "_" for c in label).strip("_")


def cmd_run(args: argparse.Namespace) -> int:
    cfg, base_dir = _load_config(args.config, _COMMON_KEYS | {"methods", "epoch_trace"})
    panel, h = _panel_from_config(cfg, base_dir)
    methods = _methods_from_config(cfg)
    seeds = _seeds_from_config(cfg)
    config = _train_config_from(cfg)
    collect_traces = _flag(cfg, "epoch_trace")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_benchmark(panel, h, methods, seeds, config, collect_traces=collect_traces, jobs=args.jobs)

    _write_table(result, h, out_dir / "table.csv")
    _write_trials(result, h, out_dir / "trials.json")
    _write_traces(result, out_dir / "epoch_trace.csv")
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for label, by_seed in result.fits.items():
        for seed, fit in by_seed.items():
            save_checkpoint(fit.params, ckpt_dir / f"{_slug(label)}_seed{seed}.json", seed=seed)
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
    cfg, base_dir = _load_config(args.config, _COMMON_KEYS | {"x_grid", "modes"})
    panel, h = _panel_from_config(cfg, base_dir)
    seeds = _seeds_from_config(cfg)
    config = _train_config_from(cfg)
    _need("x_grid" in cfg and _is_number_list(cfg["x_grid"]) and cfg["x_grid"],
          "x_grid", "must be a nonempty list of finite numbers")
    xs = sorted(float(x) for x in cfg["x_grid"])
    modes = cfg.get("modes", list(SWEEP_MODES))
    _need(isinstance(modes, list), "modes", f"must be a list of sweep modes, got {modes!r}")

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

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    t.add_argument("--eta", type=float, default=TrainConfig.eta)
    t.add_argument("--eps", type=float, default=TrainConfig.eps)
    t.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    t.add_argument("--lag", type=int, default=TrainConfig.lag)
    t.add_argument("--activation", choices=("sigmoid", "relu"), default=TrainConfig.activation)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
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
    ru.add_argument("--jobs", type=_positive_int, default=1)
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
    except MemoryError as exc:
        print(f"config error: out of memory; the configuration is too large for this machine ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
