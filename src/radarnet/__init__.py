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
    FusionEstimates,
    FusionObservation,
    ObservationEntry,
    PriorConfig,
    bayes_objective,
    frame_table,
    initial_position_estimate,
    initial_velocity_estimate,
    laplace_covariance,
    ml_objective,
    posterior_covariance_grid,
    solve,
    solve_frames,
)
from .geometry import (
    Detection,
    Pose2D,
    TargetState,
    aoa_from_spatial_frequency,
    detection_to_local_cartesian,
    local_to_global,
    measure,
)
from .scene import (
    ConfigError,
    MeasurementFrame,
    NoiseConfig,
    ScenarioConfig,
    Simulation,
    TrajectorySpec,
    builtin_scenario,
    generate_trajectory,
    load_scenario,
    save_scenario,
    simulate,
    synthesize_measurements,
)
from .tracking import (
    EkfConfig,
    Track,
    ekf_predict,
    ekf_update,
    run_tracker,
    track_level_fusion,
    transform_track,
)

__version__ = "0.1.0"
