"""attrisk: attribution of excess outcome risk to the anthropogenic
component of a climate anomaly, with Monte Carlo uncertainty propagation."""

__version__ = "0.1.0"

from .uq import (  # noqa: E402,F401
    BoxWhiskerSummary,
    EmpiricalDistribution,
    UncertainScalar,
    histogram,
    percentile,
    summarize,
    tail_probability,
)
from .engine import (  # noqa: E402,F401
    DoseResponse,
    RiskAttribution,
    analytic_product_moments,
    integral_attribution,
    propagate,
)
from .scenario import (  # noqa: E402,F401
    ReportBundle,
    ScenarioConfig,
    ScenarioError,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)
