"""Trace phenomenology: idle waves, desynchronisation, bandwidth curves,
stability and calibration."""

from .bandwidth import (
    ScalingCurve,
    analytic_bandwidth_curve,
    measure_scaling,
    saturation_point,
)
from .calibrate import (
    CycleEstimate,
    calibrate_beta_kappa,
    estimate_cycle_from_trace,
    estimate_sigma_from_gaps,
    estimate_sigma_from_trace,
    fit_model_to_trace,
)
from .desync import (
    DesyncReport,
    analyze_desync,
    iteration_skew,
    trace_phase_gaps,
    wavefront_slope,
)
from .dispersion import (
    StabilityReport,
    analyze_stability,
    fastest_growing_mode,
    growth_rates,
    jacobian,
    potential_slope_at_origin,
    ring_dispersion,
)
from .idle_wave import (
    TraceWaveFit,
    lag_matrix,
    measure_trace_wave,
    trace_arrival_times,
)
from .recurrence import maxplus_iteration_ends, predicted_wave_cone

__all__ = [
    "ScalingCurve", "analytic_bandwidth_curve", "measure_scaling",
    "saturation_point",
    "CycleEstimate", "calibrate_beta_kappa", "estimate_cycle_from_trace",
    "estimate_sigma_from_gaps", "estimate_sigma_from_trace",
    "fit_model_to_trace",
    "DesyncReport", "analyze_desync", "iteration_skew", "trace_phase_gaps",
    "wavefront_slope",
    "StabilityReport", "analyze_stability", "fastest_growing_mode",
    "growth_rates", "jacobian", "potential_slope_at_origin",
    "ring_dispersion",
    "maxplus_iteration_ends", "predicted_wave_cone",
    "TraceWaveFit", "lag_matrix", "measure_trace_wave", "trace_arrival_times",
]
