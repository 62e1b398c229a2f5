"""attrisk: attribution of excess outcome risk to the anthropogenic
component of a climate anomaly, with Monte Carlo uncertainty propagation."""

__version__ = "0.1.0"

from .uq import (  # noqa: E402,F401
    BoxWhiskerSummary,
    EmpiricalDistribution,
    RandomStream,
    UncertainScalar,
    histogram,
    percentile,
    sample,
    summarize,
    tail_probability,
)
from .engine import (  # noqa: E402,F401
    AnomalyDecomposition,
    DoseResponse,
    ResponseKind,
    RiskAttribution,
    analytic_product_moments,
    decompose_anomaly,
    integral_attribution,
    linear_attribution,
    propagate_attribution,
)
from .scenario import (  # noqa: E402,F401
    ReportBundle,
    ScenarioConfig,
    ScenarioError,
    ScenarioRuntimeError,
    emit_report,
    load_scenario,
    parse_report,
    parse_scenario,
    run_scenario,
)
