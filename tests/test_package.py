"""The package's public surface: every exported name is a code path."""

import riskcal

# A new export, or a removed one, shows up in the diff of this list.
_EXPORTS = [
    "BinaryLossFn", "CenterFailureFn", "ConstantHeuristic", "ConstantModel",
    "CqrConstructor", "CsvStream", "CsvStreamConfig", "EMPTY_SET",
    "EvalReport", "FULL_SPACE", "ImageIntervalConstructor",
    "ImageMiscoverageFn", "ImageStreamConfig", "Interval", "IntervalGrid",
    "KnownQuantileConfig", "KnownQuantileStream", "LinearPinballModel",
    "McLossFn", "MultiRiskSpec", "OracleModel",
    "PreviousResidualsHeuristic", "QuantileScaleConstructor", "ReplayModel",
    "RiskSpec", "RunningResidualHeuristic", "StreamTrace", "Stretch",
    "SyntheticConfig", "WindowQuantileConstructor", "aci_update",
    "baseline", "check_lower_theta_bound", "check_recursion",
    "check_two_sided_risk_bound", "check_upper_risk_bound",
    "check_upper_theta_bound", "clip", "control_update", "coverage",
    "cqr_interval", "cqr_score", "csv_ingest", "default_center_region",
    "delta_coverage", "empirical_quantile", "engine", "evaluate",
    "image_interval", "image_stream", "loss_contract_guaranteed", "losses",
    "mc_risk", "metrics", "miscoverage_streaks", "models", "msl", "multirisk",
    "pinball_grad", "pinball_loss", "quantile_scale_interval", "risk_bound",
    "run_aci_stream", "run_multi_stream", "run_stream", "sets", "streams",
    "stretching", "synthetic_step", "synthetic_stream",
    "two_sided_deviation_bound", "upper_deviation_bound",
]


def test_exports_are_pinned():
    assert sorted(riskcal.__all__) == _EXPORTS

