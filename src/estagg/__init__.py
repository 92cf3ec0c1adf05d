"""Turn panels of individual expert predictions into an improved consensus.

The engine ingests timestamped estimates and realized outcomes, tracks each
forecaster's historical bias, fits a per-quarter linear model of forecast
error on forecaster attributes, and combines forecasts into a weighted
consensus that is benchmarked against the plain average.
"""

__version__ = "0.1.0"

from .aggregate import ModeConfig, default_mode_matrix
from .ingest import ActualTable, EstimateTable, FilterConfig, build_panel
from .ingest import cross_check_actuals, parse_actuals, parse_estimates
from .synth import SynthSpec, generate

__all__ = [
    "ActualTable",
    "EstimateTable",
    "FilterConfig",
    "ModeConfig",
    "SynthSpec",
    "build_panel",
    "cross_check_actuals",
    "default_mode_matrix",
    "generate",
    "parse_actuals",
    "parse_estimates",
]
