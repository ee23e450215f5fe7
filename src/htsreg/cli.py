"""Command-line interface: generate / reconcile / run / sweep."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    SWEEP_MODES,
    BenchmarkResult,
    EvalReport,
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
from .trainer import TrainConfig, TrainingDiverged, _is_int

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Configuration problem; the message carries the offending field path."""


def _need(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _write_json(path: str | Path, obj: object, indent: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=indent)
        f.write("\n")


# ---------------------------------------------------------------- generate

def cmd_generate(args: argparse.Namespace) -> int:
    _need(args.seed >= 0, "--seed", f"must be >= 0, got {args.seed}")
    panel = generate_dataset(args.preset, seed=args.seed)
    out = Path(args.out)
    write_panel_csv(panel, out)
    sidecar = out.with_suffix(".json")
    _write_json(sidecar, {
        "preset": args.preset,
        "seed": args.seed,
        "prng": PRNG_IDENTITY,
        "burn_in": 50,
        "timepoints": panel.n_time,
        "train_len": panel.train_len,
    }, indent=2)
    print(f"wrote {out} and {sidecar}")
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
        panel = load_panel_csv(args.panel, h)
        if args.train_len is not None:
            try:
                panel = panel.with_train_len(args.train_len)
            except ValueError as exc:
                raise ConfigError(f"--train-len: {exc}") from exc
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
    diag_path = args.diagnostics or str(Path(args.out).with_suffix(".diag.json"))
    _write_json(diag_path, {
        "method": args.method,
        "sps_max_deviation": check_unbiasedness(p, s).max_deviation,
        "coherence_max_violation": check_coherence(h, coherent).max_violation,
        "gamma": gamma,
        "w_condition": w_cond,
    }, indent=2)
    print(f"wrote {args.out} and {diag_path}")
    return EXIT_OK


# ---------------------------------------------------------------- run / sweep

def _is_number(value: object) -> bool:
    """A finite JSON number: not true or false (Python ints), nor the NaN and Infinity that json reads."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _list_of(ok=lambda v: True, min_len: int = 0):
    """The check of a JSON list of at least ``min_len`` items that each pass ``ok``."""
    return lambda v: isinstance(v, list) and len(v) >= min_len and all(map(ok, v))


# A config object's table: per key, its JSON check, the check's wording in the exit-2 message and, for a
# required key, a third item True. One checker, _checked, reads every table.
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_PATH = (lambda v: isinstance(v, str), "a file path")
_COMMON = {"panel": (*_OBJECT, True), "hierarchy": _PATH, "standardize": _BOOL, "train": _OBJECT,
           "trial_seeds": (_list_of(_is_int, 1), "a nonempty list of integers", True)}
_RUN = {**_COMMON, "methods": (_list_of(min_len=1), "a nonempty list", True), "epoch_trace": _BOOL}
_SWEEP = {**_COMMON, "x_grid": (_list_of(_is_number, 1), "a nonempty list of finite numbers", True),
          "modes": (_list_of(), "a list of sweep modes")}
_PANEL = {"preset": (lambda v: isinstance(v, str), "a preset name"), "csv": _PATH, "seed": (_is_int, "an integer"),
          "train_len": (lambda v: v is None or _is_int(v), "an integer")}
# The train keys are TrainConfig's fields, which check their own values; trial_seeds give the seeds.
_TRAIN = {f.name: (lambda v: True, "") for f in fields(TrainConfig) if f.name != "seed"}
# The method keys are MethodSpec's fields, each checked in the JSON form of its annotation (None marks a field
# that may be left out); a field without a default is required.
_JSON_FORM = {"str": (lambda v: isinstance(v, str), "a string"), "bool": _BOOL,
              "float": (_is_number, "a finite number"), "tuple | list": (_list_of(_is_number), "a list of finite numbers")}
_METHOD = {f.name: (*_JSON_FORM[f.type.removesuffix(" | None")], f.default is MISSING) for f in fields(MethodSpec)}
# The keys besides 'name' that take effect, per method: an NN+SR has fixed weights, or tune: true and its grids.
_METHOD_READS = {"MA": ("grid",), "ES": ("grid",), "NN+BU": (), "NN+MinT": (),
                 "NN+SR": ("tune", "lambda1", "lambdaM"), "tuned NN+SR": ("tune", "tune_grid1", "tune_gridM")}


def _checked(obj: dict, table: dict, prefix: str, what: str) -> dict:
    """``obj``, once no key is outside ``table``, each value passes its key's check and no required key is missing."""
    for key in obj:
        _need(key in table, f"{prefix}{key}", f"unknown {what}")
    for key, (ok, kind, *required) in table.items():
        if key in obj:
            _need(ok(obj[key]), f"{prefix}{key}", f"must be {kind}, got {obj[key]!r}")
        else:
            _need(not any(required), f"{prefix}{key}", "missing key")
    return obj


def _load_config(path: str, table: dict) -> tuple[dict, list[MethodSpec], SeriesPanel, HierarchySpec, TrainConfig]:
    """A run or sweep config (or a run manifest) checked against ``table``; its methods, panel, tree and TrainConfig."""
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(cfg, dict) and "config" in cfg and "artifact_version" in cfg:  # manifest re-run
        cfg = cfg["config"]
    _need(isinstance(cfg, dict), path, "config must be a JSON object")
    _checked(cfg, table, "", "config key")
    _checked(cfg["panel"], _PANEL, "panel.", "panel option")
    seeds = cfg["trial_seeds"]
    _need(len(set(seeds)) == len(seeds), "trial_seeds", "seeds must be distinct")
    _need(min(seeds) >= 0, "trial_seeds", f"seeds must be nonnegative, got {min(seeds)}")
    train = _checked(cfg.get("train", {}), _TRAIN, "train.", "training option")
    try:
        config = TrainConfig(**train)
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc
    methods = []
    for i, m in enumerate(cfg.get("methods", [])):
        _need(isinstance(m, dict), f"methods[{i}]", f"must be an object with 'name', got {m!r}")
        _checked(m, _METHOD, f"methods[{i}].", "method option")
        try:
            methods.append(MethodSpec(**m))
        except ValueError as exc:
            raise ConfigError(f"methods[{i}]: {exc}") from exc
        kind = "tuned NN+SR" if methods[-1].name == "NN+SR" and methods[-1].tune else methods[-1].name
        for key in m:
            _need(key == "name" or key in _METHOD_READS[kind], f"methods[{i}].{key}", f"has no effect on {kind}")
    return cfg, methods, *_panel_from_config(cfg, Path(path).resolve().parent), config


def _panel_from_config(cfg: dict, base_dir: Path) -> tuple[SeriesPanel, HierarchySpec]:
    """The panel and tree of a checked config: a preset, or a csv file with its hierarchy file."""
    pc = cfg["panel"]
    if "preset" in pc:
        _need("csv" not in pc, "panel.csv", "a panel takes either 'preset' or 'csv', not both")
        _need("hierarchy" not in cfg, "hierarchy", "only a csv panel takes a hierarchy file")
        _need(pc["preset"] in PRESET_NAMES, "panel.preset", f"unknown preset; choose from {PRESET_NAMES}")
        _need(pc.get("seed", 0) >= 0, "panel.seed", f"must be nonnegative, got {pc.get('seed')}")
        h = preset_hierarchy()
        panel = generate_dataset(pc["preset"], seed=pc.get("seed", 0))
    elif "csv" in pc:
        _need("seed" not in pc, "panel.seed", "only a preset panel takes a seed")
        _need("hierarchy" in cfg, "hierarchy", "a csv panel needs a hierarchy file")
        hier_path, csv_path = base_dir / cfg["hierarchy"], base_dir / pc["csv"]
        _need(hier_path.exists(), "hierarchy", f"file not found: {hier_path}")
        h = load_hierarchy_json(hier_path)
        _need(csv_path.exists(), "panel.csv", f"file not found: {csv_path}")
        panel = load_panel_csv(csv_path, h)
    else:
        raise ConfigError("panel: needs either 'preset' or 'csv'")
    if pc.get("train_len") is not None:
        try:
            panel = panel.with_train_len(pc["train_len"])
        except ValueError as exc:
            raise ConfigError(f"panel.train_len: {exc}") from exc
    if cfg.get("standardize", True):
        panel = standardize(panel)
    return panel, h


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
    def trial(label: str, rep: EvalReport) -> dict:
        fit = result.fits.get(label, {}).get(rep.params.get("seed"))  # None for a baseline
        return {
            "seed": rep.params.get("seed"),
            "params": rep.params,
            "per_node": {str(n): v for n, v in rep.per_node.items()},
            **{key: rep.levels[lvl] for key, lvl in zip(("root", "mid_mean", "bottom_mean", "all_mean"), LEVELS)},
            **({} if fit is None else {"epochs": fit.epochs, "reason": fit.reason}),
        }

    _write_json(path, {
        "node_order": list(h.node_ids),
        "seeds": result.seeds,
        "methods": {label: {"trials": [trial(label, rep) for rep in result.reports[label]]}
                    for label in result.labels},
    })


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
    cfg, methods, panel, h, config = _load_config(args.config, _RUN)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_benchmark(panel, h, methods, cfg["trial_seeds"], config,
                           collect_traces=cfg.get("epoch_trace", True), jobs=args.jobs)

    _write_table(result, h, out_dir / "table.csv")
    _write_trials(result, h, out_dir / "trials.json")
    _write_traces(result, out_dir / "epoch_trace.csv")
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for label, by_seed in result.fits.items():
        for seed, fit in by_seed.items():
            save_checkpoint(fit.params, ckpt_dir / f"{_slug(label)}_seed{seed}.json", seed=seed)
    _write_json(out_dir / "manifest.json", {
        "artifact_version": __version__,
        "command": "run",
        "prng": PRNG_IDENTITY,
        "ci_method": "Student-t, 95% two-sided, n-1 degrees of freedom",
        "config": cfg,
    }, indent=2)
    print(f"wrote {out_dir}/table.csv, trials.json, epoch_trace.csv, manifest.json")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, _, panel, h, config = _load_config(args.config, _SWEEP)
    xs = sorted(float(x) for x in cfg["x_grid"])
    modes = cfg.get("modes", list(SWEEP_MODES))
    try:
        curves = reg_sweep(panel, h, xs, cfg["trial_seeds"], config, modes=modes)
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
