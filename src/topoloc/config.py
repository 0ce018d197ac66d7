"""Typed run configuration with a strict JSON round trip.

Every tunable the CLI exposes lives here.  ``Config.from_dict`` rejects
unknown keys and values of the wrong type or out of range, so a typo in a
config file fails loudly instead of silently running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._records import Record
from .errors import ConfigError
from .measurement import MeasurementParams
from .motion import MotionParams
from .tasks import PipelineParams

__all__ = ["Config", "FilterConfig", "MapConfig", "TaskConfig"]


@dataclass(frozen=True)
class MapConfig(Record):
    """Map-building knobs."""

    node_spacing: float = 2.0
    window: int = 5

    def __post_init__(self):
        if not self.node_spacing > 0.0:
            raise ConfigError("node_spacing must be positive")
        if self.window < 2:
            raise ConfigError("window must be at least 2")


@dataclass(frozen=True)
class FilterConfig(Record):
    """Inference knobs: motion mode, measurement kernel, decision rule."""

    mode: str = "full"
    off_self: float = 0.9
    no_odom_off: float = 0.01
    lam: float | None = None
    k_frac: float = 0.02
    k_min: int = 10
    rho: float = 2.718281828459045
    p0_off: float = 0.1
    radius_m: float = 3.0
    tau_thres: float = 0.95
    forward_only: bool = False

    def __post_init__(self):
        self.pipeline_params()  # a bad value fails when the config is read

    def pipeline_params(self) -> PipelineParams:
        """Materialize the validated parameter objects inference consumes."""
        try:
            motion = MotionParams(
                off_self=self.off_self, mode=self.mode, no_odom_off=self.no_odom_off
            )
            measurement = MeasurementParams(
                lam=self.lam, k_frac=self.k_frac, k_min=self.k_min, rho=self.rho
            )
            return PipelineParams(
                motion=motion,
                measurement=measurement,
                p0_off=self.p0_off,
                radius_m=self.radius_m,
                tau_thres=self.tau_thres,
                forward_only=self.forward_only,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class TaskConfig(Record):
    """Wakeup batch settings."""

    max_steps: int = 30
    n_trials: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class Config(Record):
    """Aggregate of all run settings."""

    map: MapConfig = field(default_factory=MapConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
