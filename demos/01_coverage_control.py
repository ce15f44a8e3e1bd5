"""
Coverage control on a shifting stream
=====================================

A linear quantile model is far too weak for this data: the stream jumps
between regimes whose scale differs by two orders of magnitude every ~500
steps. The calibration loop doesn't care. It watches the realized 0-1 loss,
nudges one parameter after every label, and the long-run coverage lands on
the requested 90% anyway.
"""

import numpy as np

import riskcal as rc

TARGET_MISCOVERAGE = 0.1
STEPS = 20_000

stream = rc.synthetic_stream(rc.SyntheticConfig(seed=0), STEPS)
model = rc.LinearPinballModel(n_features=5, taus=(0.05, 0.95), lr=2.0)
spec = rc.RiskSpec(r=TARGET_MISCOVERAGE, gamma=0.05, m=-9999, M=9999, B=1.0)

trace = rc.run_stream(stream, model, rc.CqrConstructor(0.05, 0.95),
                      rc.BinaryLossFn(), spec)

# Evaluate after the model's warm-up period, like a deployment would.
report = rc.evaluate(trace, window=(8001, STEPS), alpha=TARGET_MISCOVERAGE)
print(f"coverage over steps 8001-{STEPS}: {report.coverage:.4f} "
      f"(target {1 - TARGET_MISCOVERAGE:.2f})")
print(f"mean interval length: {report.mean_length:.2f}")
print(f"miscoverage streak length: {report.msl:.3f} (ideal 1.111)")

# The guarantee behind the number: theta never leaves its box, and every
# prefix of the run satisfies the deterministic deviation bound.
ok1 = (rc.check_upper_theta_bound(trace, spec)[0]
       and rc.check_lower_theta_bound(trace, spec)[0])
ok2, _ = rc.check_two_sided_risk_bound(trace, spec)
print(f"theta bounded: {ok1}; prefix risk bound: {ok2}")

# Watch theta absorb a regime change: its swings are the model's errors.
theta = trace.theta_post
print("theta quantiles:", np.round(np.quantile(theta, [0.05, 0.5, 0.95]), 3))
