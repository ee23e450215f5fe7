"""Hierarchical time-series forecasting with structured regularization.

Builds coherent forecasts for two-level hierarchies three ways: classical
per-node baselines, reconciliation of network base forecasts (bottom-up,
top-down, trace minimization), and a bottom-level network trained with an
upper-level regularization term so both phases happen at once.
"""

__version__ = "0.1.0"

from .baselines import BaselineChoice, es_forecast, ma_forecast, select_param
from .evaluate import (
    EvalReport,
    MethodSpec,
    TrialSummary,
    make_epoch_hook,
    node_report,
    reg_sweep,
    run_benchmark,
    summarize_trials,
)
from .hierarchy import (
    CoherenceReport,
    HierarchySpec,
    aggregate_bottom,
    build_hierarchy,
    check_coherence,
    level_means,
    load_hierarchy_json,
    rmse,
    structure_matrix,
    summing_matrix,
    write_hierarchy_json,
)
from .neuralnet import (
    NetworkDims,
    NetworkParams,
    activation,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .panel import Scaler, SeriesPanel, lagged_design, load_panel_csv, standardize, write_panel_csv
from .reconcile import (
    MintInfo,
    UnbiasednessCheck,
    check_unbiasedness,
    estimate_w_sample,
    historical_proportions,
    mint_reconcile,
    top_down,
)
from .synthgen import (
    SynthParams,
    generate_bottom,
    generate_dataset,
    generate_factors,
    preset_hierarchy,
    preset_params,
)
from .trainer import (
    RegWeights,
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    loss_and_grads,
    predict_all_nodes,
    predict_bottom,
    forecast_timepoints,
    train,
    train_all_node_base,
    train_batch,
    training_timepoints,
    tune_lambda,
)
