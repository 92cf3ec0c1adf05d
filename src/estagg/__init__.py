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


def __getattr__(name: str):
    """SynthSpec and generate, from estagg.synth, which is imported on first use:
    of the commands only `synth` needs it."""
    if name in ("SynthSpec", "generate"):
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
