"""Topometric localization on a place graph.

A discrete Bayes filter over map nodes plus an explicit off-map state,
driven by an odometry-conditioned motion model and an appearance
measurement model, with optional backward smoothing.  Ships with a
deterministic synthetic benchmark, task harnesses for loop-closure
detection and wakeup localization, and precision-recall evaluation.
"""

from .config import Config, FilterConfig, MapConfig, TaskConfig
from .errors import ConfigError, DataError, MeasurementDegenerateError
from .evaluate import (
    GroundTruthLabel,
    PrCurve,
    WakeupScore,
    label_ground_truth,
    recall_at_precision,
    score_lcd,
    score_wakeup,
)
from .filtering import (
    Belief,
    Decision,
    FilterTrace,
    convergence_score,
    decide,
    forward_init,
    forward_step,
    init_belief,
    run_forward,
    smooth_pass,
)
from .geometry import (
    Covariance3,
    OdometryStep,
    Pose2,
    chi2_cdf_3,
    compose,
    interpolate_pose,
    inverse,
    mahalanobis_sq,
    min_mahalanobis_on_segment,
    min_mahalanobis_on_segments,
    relative,
    wrap_angle,
)
from .mapping import TopometricMap, build_map
from .measurement import (
    MeasurementParams,
    calibrate_lambda,
    likelihood_vector,
    order_stat_k,
)
from .motion import (
    MOTION_MODES,
    MotionParams,
    TransitionModel,
    build_transition_model,
)
from .simulate import (
    Detour,
    RouteSpec,
    ScenarioSpec,
    World,
    builtin_scenarios,
    generate_world,
    noiseless_scenario,
    render_traverse,
    simulate_scenario,
)
from .tasks import (
    LcdFrame,
    LcdResult,
    PipelineParams,
    WakeupResult,
    run_lcd,
    run_wakeup,
    run_wakeup_batch,
)
from .traverse import Frame, Traverse

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "Config",
    "ConfigError",
    "Covariance3",
    "DataError",
    "Decision",
    "Detour",
    "FilterConfig",
    "FilterTrace",
    "Frame",
    "GroundTruthLabel",
    "LcdFrame",
    "LcdResult",
    "MOTION_MODES",
    "MapConfig",
    "MeasurementDegenerateError",
    "MeasurementParams",
    "MotionParams",
    "OdometryStep",
    "PipelineParams",
    "Pose2",
    "PrCurve",
    "RouteSpec",
    "ScenarioSpec",
    "TaskConfig",
    "TopometricMap",
    "TransitionModel",
    "Traverse",
    "WakeupResult",
    "WakeupScore",
    "World",
    "build_map",
    "build_transition_model",
    "builtin_scenarios",
    "calibrate_lambda",
    "chi2_cdf_3",
    "compose",
    "convergence_score",
    "decide",
    "forward_init",
    "forward_step",
    "generate_world",
    "init_belief",
    "interpolate_pose",
    "inverse",
    "label_ground_truth",
    "likelihood_vector",
    "mahalanobis_sq",
    "min_mahalanobis_on_segment",
    "min_mahalanobis_on_segments",
    "noiseless_scenario",
    "order_stat_k",
    "recall_at_precision",
    "relative",
    "render_traverse",
    "run_forward",
    "run_lcd",
    "run_wakeup",
    "run_wakeup_batch",
    "score_lcd",
    "score_wakeup",
    "simulate_scenario",
    "smooth_pass",
    "wrap_angle",
]
