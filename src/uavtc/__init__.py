"""Temporally correlated interference and success in mobile aerial-BS downlinks."""

from .analytic import (
    InterfererPmf,
    SuccessReport,
    conditional_interferer_pmf,
    footprint_egress_integral,
    footprint_ingress_integral,
    joint_success,
    marginal_success,
    mean_departures,
    retransmission_report,
    success_report,
    success_reports,
    unconditional_interferer_pmf,
)
from .mobility import containment_cdf, displaced_distance
from .model import (
    AntennaPattern,
    ConfigError,
    FadingParams,
    FixedSpeed,
    NetworkParams,
    SpeedDistribution,
    TabulatedSpeed,
    UniformSpeed,
    ValidatedScenario,
    config_from_dict,
    db_to_linear,
    linear_to_db,
    load_config,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
    validate,
)
from .simulate import (
    EstimatorResult,
    JointSuccessEstimate,
    NetworkRealization,
    estimate_arrivals_departures,
    estimate_conditional_pmf,
    estimate_conditional_success,
    estimate_joint_success,
    interference,
    sample_conditioned,
    sample_network,
    sinr,
)

__version__ = "0.1.0"
