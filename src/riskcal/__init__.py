"""riskcal: streaming calibration of prediction sets with provable long-run
risk control under arbitrary distribution shift.

The core loop wraps any online model: announce a set, observe the label,
score a bounded loss, and nudge a calibration parameter by a fixed step
times the loss excess. Safeguard clamping makes the average loss converge
to the target deterministically; this package also ships the set
constructors, losses, stretching functions, multi-risk controller, metrics,
a window-quantile baseline, stream generators, and an experiment runner
that certifies the finite-sample bounds on every trace it produces.
"""

from .baseline import (WindowQuantileConstructor, aci_update,
                       empirical_quantile, run_aci_stream)
from .engine import (MultiRiskSpec, RiskSpec, StreamTrace, check_lower_theta_bound,
                     check_recursion, check_two_sided_risk_bound,
                     check_upper_risk_bound, check_upper_theta_bound,
                     control_update, loss_contract_guaranteed, risk_bound,
                     run_stream, two_sided_deviation_bound,
                     upper_deviation_bound)
from .losses import (BinaryLossFn, CenterFailureFn, ImageMiscoverageFn,
                     McLossFn, default_center_region)
from .metrics import (EvalReport, coverage, delta_coverage, evaluate, mc_risk,
                      miscoverage_streaks, msl)
from .models import (ConstantModel, LinearPinballModel, OracleModel,
                     ReplayModel, pinball_grad, pinball_loss)
from .multirisk import run_multi_stream
from .sets import (EMPTY_SET, FULL_SPACE, ConstantHeuristic, CqrConstructor,
                   ImageIntervalConstructor, Interval, IntervalGrid,
                   PreviousResidualsHeuristic, QuantileScaleConstructor,
                   RunningResidualHeuristic, cqr_interval, cqr_score,
                   image_interval, quantile_scale_interval)
from .stretching import Stretch, clip
from .streams import (CsvStream, CsvStreamConfig, ImageStreamConfig,
                      KnownQuantileConfig, KnownQuantileStream,
                      SyntheticConfig, csv_ingest, image_stream,
                      synthetic_step, synthetic_stream)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
