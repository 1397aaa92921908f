"""Paper artefacts as declarative Studies — one module per table/figure/claim.

Each module defines a frozen config, a ``build_study(config)`` returning
the declarative :class:`repro.study.Study`, and a result adapter that
turns study rows into the artefact's rich result type.  The registry
(:data:`EXPERIMENTS`) binds them together and is the one entry point:
``EXPERIMENTS[key].run(config)``.
"""

from .alpha_ablation import AlphaAblationConfig, AlphaAblationResult
from .arrival_order import ArrivalOrderConfig, ArrivalOrderResult
from .drift_check import DriftCheckConfig, DriftCheckResult
from .charts import ascii_chart, series_from_rows
from .dynamic_load import DynamicLoadConfig, DynamicLoadResult
from .figure1 import Figure1Config, Figure1Result
from .figure2 import Figure2Config, Figure2Result
from .io import format_table, series, write_csv, write_json
from .lower_bound import LowerBoundConfig, LowerBoundResult
from .registry import EXPERIMENTS, Experiment
from .resource_above import ResourceAboveConfig, ResourceAboveResult
from .resource_tight import ResourceTightConfig, ResourceTightResult
# the trial setups live in repro.study.setups; re-exported here because
# callers that build trials by hand import them from this package
from ..study.setups import (
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)
from .speed_ablation import SpeedAblationConfig, SpeedAblationResult
from .table1 import Table1Config, Table1Result
from .tight_scaling import TightScalingConfig, TightScalingResult

__all__ = [
    "AlphaAblationConfig",
    "AlphaAblationResult",
    "ArrivalOrderConfig",
    "ArrivalOrderResult",
    "DriftCheckConfig",
    "DriftCheckResult",
    "DynamicLoadConfig",
    "DynamicLoadResult",
    "EXPERIMENTS",
    "Experiment",
    "Figure1Config",
    "Figure1Result",
    "Figure2Config",
    "Figure2Result",
    "HybridSetup",
    "LowerBoundConfig",
    "LowerBoundResult",
    "ResourceAboveConfig",
    "ResourceAboveResult",
    "ResourceControlledSetup",
    "ResourceTightConfig",
    "ResourceTightResult",
    "SpeedAblationConfig",
    "SpeedAblationResult",
    "Table1Config",
    "Table1Result",
    "TightScalingConfig",
    "TightScalingResult",
    "UserControlledSetup",
    "ascii_chart",
    "format_table",
    "series",
    "series_from_rows",
    "write_csv",
    "write_json",
]
