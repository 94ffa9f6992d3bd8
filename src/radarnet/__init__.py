"""Self-calibrating multi-radar network simulation and one-shot fusion.

Desk-scale toolkit for a network of 2D radars watching one moving
point target: exact measurement model (range, spatial frequency,
radial Doppler), per-node extended Kalman tracking, closed-form
pairwise self-calibration by least-squares track matching, and
single-frame ML/Bayesian fusion of position and vector velocity with
grid-based posterior covariance.
"""

from .calibration import (
    CalibrationResult,
    DegenerateTrackError,
    apply_calibration,
    brute_force_calibration,
    calibrate_pair,
    calibration_cost,
)
from .experiment import (
    ExperimentReport,
    PipelineOptions,
    emit_plot_data,
    run_experiment,
    run_monte_carlo,
)
from .fusion import (
    FusionEstimate,
    FusionObservation,
    ObservationEntry,
    PriorConfig,
    bayes_objective,
    initial_position_estimate,
    initial_velocity_estimate,
    laplace_covariance,
    ml_objective,
    posterior_covariance_grid,
    solve,
    solve_frames,
)
from .geometry import (
    IdealMeasurement,
    Pose2D,
    TargetState,
    aoa_from_spatial_frequency,
    detection_to_local_cartesian,
    local_to_global,
    measure,
    measure_radial_velocity,
    measure_range,
    measure_spatial_frequency,
)
from .scene import (
    ConfigError,
    Detection,
    MeasurementFrame,
    NoiseConfig,
    ScenarioConfig,
    TrajectorySpec,
    builtin_scenario,
    generate_trajectory,
    load_scenario,
    save_scenario,
    synthesize_measurements,
)
from .tracking import (
    EkfConfig,
    Track,
    TrackPoint,
    ekf_predict,
    ekf_update,
    run_tracker,
    track_level_fusion,
    transform_track,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "ConfigError",
    "DegenerateTrackError",
    "Detection",
    "EkfConfig",
    "ExperimentReport",
    "FusionEstimate",
    "FusionObservation",
    "IdealMeasurement",
    "MeasurementFrame",
    "NoiseConfig",
    "ObservationEntry",
    "PipelineOptions",
    "Pose2D",
    "PriorConfig",
    "ScenarioConfig",
    "Track",
    "TrackPoint",
    "TargetState",
    "TrajectorySpec",
    "aoa_from_spatial_frequency",
    "apply_calibration",
    "bayes_objective",
    "brute_force_calibration",
    "builtin_scenario",
    "calibrate_pair",
    "calibration_cost",
    "detection_to_local_cartesian",
    "ekf_predict",
    "ekf_update",
    "emit_plot_data",
    "generate_trajectory",
    "initial_position_estimate",
    "initial_velocity_estimate",
    "laplace_covariance",
    "load_scenario",
    "local_to_global",
    "measure",
    "measure_radial_velocity",
    "measure_range",
    "measure_spatial_frequency",
    "ml_objective",
    "posterior_covariance_grid",
    "run_experiment",
    "run_monte_carlo",
    "run_tracker",
    "save_scenario",
    "solve",
    "solve_frames",
    "synthesize_measurements",
    "track_level_fusion",
    "transform_track",
]
