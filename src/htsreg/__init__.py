"""Hierarchical time-series forecasting with structured regularization.

Builds coherent forecasts for two-level hierarchies three ways: classical
per-node baselines, reconciliation of network base forecasts (bottom-up,
top-down, trace minimization), and a bottom-level network trained with an
upper-level regularization term so both phases happen at once.
"""

__version__ = "0.1.0"

from .evaluate import make_epoch_hook, node_report
from .hierarchy import aggregate_bottom
from .panel import standardize
from .synthgen import generate_dataset, preset_hierarchy
from .trainer import RegWeights, TrainConfig, forecast_timepoints, predict, train_batch
