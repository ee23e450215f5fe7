"""Self-test of the per-layer trace wrapper.

Counts are compared with closed forms and with an independent count of
every call to each original function's code object, taken with
``sys.setprofile``. A wrapper that misses a name a caller imported directly
(``trainer.activation``, ``evaluate.predict_bottom``, ...) under-counts and
fails. Training runs only a few epochs here: the wrapper, not the program's
speed, is under test.
"""

import inspect
import json
import sys
from collections import Counter

import pytest

import tracing
from tracing import HOOK, HOOK_FACTORY, Tracer, traced_functions
from worker import (NGTVC_METHODS, NGTVC_PANEL, PUBLISHED_TRAIN, SWEEP_MODES, WORKLOADS,
                    call_cli)

EPOCHS = 7
TRAIN = {**PUBLISHED_TRAIN, "max_epochs": EPOCHS}
TRAIN_ROWS, TEST_LEN = 68, 30  # training timepoints at lag 2, test-period length


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def traced_calls(tracer_cls, argvs):
    """Run CLI calls under a tracer; return its stats and the profiler's call counts."""
    originals = traced_functions()
    codes = {inspect.unwrap(fn).__code__: name for name, fn in originals.items()}
    hook_code = next(c for c in originals[HOOK_FACTORY].__code__.co_consts
                     if inspect.iscode(c) and c.co_name == "hook")
    codes[hook_code] = HOOK
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    with tracer_cls() as tracer:
        sys.setprofile(profile)
        try:
            for argv in argvs:
                assert call_cli(argv) == 0, argv
        finally:
            sys.setprofile(None)
    return tracer, seen


def assert_counts_match_profile(tracer, seen):
    calls = {name: st.calls for name, st in tracer.stats.items() if st.calls}
    assert calls == dict(seen)


@pytest.fixture
def ngtvc_argv(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"panel": NGTVC_PANEL, "methods": NGTVC_METHODS, "train": TRAIN,
                                         "trial_seeds": [1], "epoch_trace": True})
    return ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]


def test_run_counts_match_profile_and_closed_forms(ngtvc_argv):
    tracer, seen = traced_calls(Tracer, [ngtvc_argv])
    assert_counts_match_profile(tracer, seen)
    st = tracer.stats
    hooked_epochs = st["trainer.train"].epochs  # NN+BU and NN+SR, both traced
    mint_epochs = st["trainer.train_all_node_base"].epochs
    assert st["trainer.train"].calls == 2 and st["trainer.train_all_node_base"].calls == 1
    assert hooked_epochs == 2 * EPOCHS and mint_epochs == EPOCHS
    assert st[HOOK].calls == hooked_epochs
    predicts = st["trainer.predict_bottom"].calls
    assert predicts == st[HOOK].calls + 2
    assert st["panel.lagged_input"].calls == 2 * TRAIN_ROWS + TEST_LEN * predicts
    # One forward per model and epoch plus the initial one, one in each
    # activation_prime, one per prediction (bottom and all-node).
    forwards = 3 + 2 * (hooked_epochs + mint_epochs)
    assert st["neuralnet.activation"].calls == forwards + predicts + 2
    assert st["baselines.es_forecast"].calls == 13 * (101 + 1)
    assert st["reconcile.mint_reconcile"].calls == 1
    assert st["reconcile.cho_factor"].calls == 2 * st["reconcile.mint_reconcile"].clean_calls


def test_counts_repeat_exactly(ngtvc_argv):
    first, _ = traced_calls(Tracer, [ngtvc_argv])
    second, _ = traced_calls(Tracer, [ngtvc_argv])
    assert first.counts() == second.counts()


def test_sweep_counts(tmp_path):
    xs = [0.0, 1.0, 2.1]
    cfg = _write(tmp_path / "sweep.json", {"panel": NGTVC_PANEL, "train": TRAIN, "trial_seeds": [1],
                                           "x_grid": xs, "modes": SWEEP_MODES})
    tracer, seen = traced_calls(Tracer, [["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]])
    assert_counts_match_profile(tracer, seen)
    models = 1 + len(SWEEP_MODES) * (len(xs) - 1)
    st = tracer.stats
    assert st["trainer.train"].calls == models and st["trainer.train"].epochs == models * EPOCHS
    assert HOOK not in st or st[HOOK].calls == 0
    assert st["panel.lagged_input"].calls == models * (TRAIN_ROWS + TEST_LEN)


def test_cli_pipeline_counts(tmp_path):
    ops = WORKLOADS["cli_pipeline"](0, tmp_path).prepare(0)
    tracer, seen = traced_calls(Tracer, [op.argv for op in ops])
    assert_counts_match_profile(tracer, seen)
    panels = len(ops) // 5
    st = tracer.stats
    assert st["synthgen.generate_dataset"].calls == panels
    assert st["baselines.select_param"].calls == 2 * panels
    assert st["panel.load_panel_csv"].calls == 2 * panels  # baselines run and top-down
    assert st["reconcile.mint_reconcile"].calls == panels
    assert "trainer.train" not in st or st["trainer.train"].calls == 0


class DefiningModuleOnly(Tracer):
    """A faulty tracer that patches only the module defining each function."""

    def _should_patch(self, namespace, name):
        return namespace.__name__ == f"htsreg.{name.split('.')[0]}"


def test_missing_direct_imports_are_detected(ngtvc_argv):
    tracer, seen = traced_calls(DefiningModuleOnly, [ngtvc_argv])
    assert tracer.stats["neuralnet.activation"].calls < seen["neuralnet.activation"]
    with pytest.raises(AssertionError):
        assert_counts_match_profile(tracer, seen)


def test_tracer_restores_every_name(ngtvc_argv):
    def names():
        return {ns.__name__: {k: id(v) for k, v in vars(ns).items()} for ns in tracing._namespaces()}

    before = names()
    traced_calls(Tracer, [ngtvc_argv])
    after = names()
    assert before == after
