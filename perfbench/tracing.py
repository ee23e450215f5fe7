"""Per-layer tracing of htsreg from outside the package.

A :class:`Tracer` replaces each public function of each htsreg module with
a wrapper that counts calls, busy (inclusive) time, self time and calls in
which no traced callee raised. It patches every name that resolves to the
original function, including names a caller imported directly (``from
.neuralnet import activation`` in ``trainer``), so direct imports are
counted under the defining module. Two extras:

* ``reconcile.cho_factor`` (scipy's, as ``reconcile`` looks it up) counts
  the Cholesky attempts of the MinT ridge ladder;
* the closure returned by ``evaluate.make_epoch_hook`` is wrapped as
  ``evaluate.epoch_hook``.

``trainer.train`` and ``trainer.train_all_node_base`` also sum the
``epochs`` of the results they return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("hierarchy", "panel", "synthgen", "baselines", "neuralnet",
          "trainer", "reconcile", "evaluate", "cli")
FOREIGN = (("reconcile", "cho_factor"),)
HOOK_FACTORY = "evaluate.make_epoch_hook"
HOOK = "evaluate.epoch_hook"
EPOCH_COUNTERS = ("trainer.train", "trainer.train_all_node_base")


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    clean_calls: int = 0  # calls in which no traced callee raised
    epochs: int = 0


@dataclass
class _Frame:
    child_s: float = 0.0
    child_raised: bool = False


def _namespaces() -> list:
    return [importlib.import_module("htsreg")] + [
        importlib.import_module(f"htsreg.{layer}") for layer in LAYERS
    ]


def traced_functions() -> dict[str, object]:
    """Qualified name -> original function, for every function the tracer wraps."""
    found: dict[str, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"htsreg.{layer}")
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found[f"{layer}.{attr}"] = value
    for layer, attr in FOREIGN:
        found[f"{layer}.{attr}"] = getattr(importlib.import_module(f"htsreg.{layer}"), attr)
    return found


class Tracer:
    """Context manager that wraps htsreg functions while active.

    ``only`` restricts wrapping to the given qualified names (the benchmark
    uses it to count epochs in untraced passes at negligible cost).
    """

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only
        self.stats: dict[str, Stat] = {}
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        originals = {name: fn for name, fn in traced_functions().items()
                     if self.only is None or name in self.only}
        wrappers = {id(fn): (fn, name, self._wrap(name, fn)) for name, fn in originals.items()}
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value and self._should_patch(ns, entry[1]):
                    setattr(ns, attr, entry[2])
                    self._patched.append((ns, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def _should_patch(self, namespace, name: str) -> bool:
        return True

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        counts_epochs = name in EPOCH_COUNTERS
        wraps_hook = name == HOOK_FACTORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dur = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.busy_s += dur
                stat.self_s += dur - frame.child_s
                stat.clean_calls += not frame.child_raised
                if stack:
                    stack[-1].child_s += dur
                    stack[-1].child_raised |= raised
            if counts_epochs:
                stat.epochs += result.epochs
            if wraps_hook:
                return self._wrap(HOOK, result)
            return result

        return wrapper

    def counts(self) -> dict[str, int]:
        """Exact integer counters, keyed ``<layer>.<function>.calls`` / ``.epochs``."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            if name in EPOCH_COUNTERS:
                out[f"{name}.epochs"] = st.epochs
        return out


def layer_metrics(stats: dict[str, Stat], run_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see perfbench/README.md)."""
    zero = Stat()

    def st(name: str) -> Stat:
        return stats.get(name, zero)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    train, mint = st("trainer.train"), st("reconcile.mint_reconcile")
    return {
        "trainer.train.calls": train.calls,
        "trainer.train.busy_s": train.busy_s,
        "trainer.train.epochs": train.epochs,
        "trainer.train_all_node_base.busy_s": st("trainer.train_all_node_base").busy_s,
        "trainer.predict_bottom.calls": st("trainer.predict_bottom").calls,
        "trainer.predict_bottom.busy_s": st("trainer.predict_bottom").busy_s,
        "trainer.epoch_us": 1e6 * ratio(train.self_s, train.epochs),
        "neuralnet.activation.calls": st("neuralnet.activation").calls,
        "neuralnet.activation.busy_s": st("neuralnet.activation").busy_s,
        "neuralnet.activation_prime.busy_s": st("neuralnet.activation_prime").busy_s,
        "neuralnet.save_checkpoint.busy_s": st("neuralnet.save_checkpoint").busy_s,
        "evaluate.epoch_hook.calls": st(HOOK).calls,
        "evaluate.epoch_hook.busy_s": st(HOOK).busy_s,
        "evaluate.hook_overhead_frac": ratio(st(HOOK).busy_s, train.busy_s),
        "evaluate.run_benchmark.busy_s": st("evaluate.run_benchmark").busy_s,
        "evaluate.reg_sweep.busy_s": st("evaluate.reg_sweep").busy_s,
        "panel.lagged_input.calls": st("panel.lagged_input").calls,
        "panel.load_panel_csv.busy_s": st("panel.load_panel_csv").busy_s,
        "panel.write_panel_csv.busy_s": st("panel.write_panel_csv").busy_s,
        "panel.standardize.busy_s": st("panel.standardize").busy_s,
        "hierarchy.aggregate_bottom.calls": st("hierarchy.aggregate_bottom").calls,
        "hierarchy.aggregate_bottom.busy_s": st("hierarchy.aggregate_bottom").busy_s,
        "baselines.select_param.busy_s": st("baselines.select_param").busy_s,
        "baselines.es_forecast.calls": st("baselines.es_forecast").calls,
        "reconcile.mint_reconcile.calls": mint.calls,
        "reconcile.mint_reconcile.busy_s": mint.busy_s,
        "reconcile.cho_factor.calls": st("reconcile.cho_factor").calls,
        "reconcile.first_rung_frac": ratio(mint.clean_calls, mint.calls),
        "reconcile.estimate_w_sample.busy_s": st("reconcile.estimate_w_sample").busy_s,
        "synthgen.generate_dataset.busy_s": st("synthgen.generate_dataset").busy_s,
        "cli.artifacts.busy_s": st("cli.cmd_run").busy_s - st("evaluate.run_benchmark").busy_s,
        "cli.artifacts.bytes": run_bytes,
    }
