"""Section 4: modeling and stability analysis of the adaptive DVFS system.

The paper derives a continuous-time aggregate model of the controller +
queue + clock-domain dynamics (eqs 1-9), linearizes it by choosing
``h(f) = f^2`` to cancel the mu-f nonlinearity (eqs 10-12), and applies
classical second-order analysis to the linearized system (eq 13), yielding
three design remarks.  This package implements the model, the linearization,
the closed-form analysis, and numerical ODE simulation of both the nonlinear
and linearized closed loops so the approximations can be checked.
"""

from repro.analysis.model import (
    ServiceModel,
    ControllerModel,
    ClosedLoopModel,
)
from repro.analysis.linearize import LinearizedSystem, linearize
from repro.analysis.stability import (
    StabilityReport,
    analyze,
    characteristic_roots,
    damping_ratio,
    settling_time,
    rise_time,
    percent_overshoot,
    delay_ratio_bounds,
    recommended_delay_ratio_range,
)
from repro.analysis.ode import StepResponse, simulate_linear_step, simulate_nonlinear
from repro.analysis.estimation import (
    MuFEstimate,
    OnlineMuFEstimator,
    fit_mu_f,
    estimate_from_history,
    offline_characterization,
)
from repro.analysis.discrete import (
    DiscreteClosedLoop,
    from_continuous,
    max_stable_km,
)

__all__ = [
    "MuFEstimate",
    "OnlineMuFEstimator",
    "fit_mu_f",
    "estimate_from_history",
    "offline_characterization",
    "DiscreteClosedLoop",
    "from_continuous",
    "max_stable_km",
    "ServiceModel",
    "ControllerModel",
    "ClosedLoopModel",
    "LinearizedSystem",
    "linearize",
    "StabilityReport",
    "analyze",
    "characteristic_roots",
    "damping_ratio",
    "settling_time",
    "rise_time",
    "percent_overshoot",
    "delay_ratio_bounds",
    "recommended_delay_ratio_range",
    "StepResponse",
    "simulate_linear_step",
    "simulate_nonlinear",
]
