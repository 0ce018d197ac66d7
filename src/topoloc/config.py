"""Typed run configuration with a strict JSON round trip.

A config has three sections: ``map``, ``filter`` (the inference settings,
:class:`~topoloc.tasks.PipelineParams`) and ``task``.  ``Config.from_dict``
rejects unknown keys and values of the wrong type or out of range, so a typo
in a config file fails loudly instead of silently running with defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._records import Record
from .errors import ConfigError
from .tasks import PipelineParams

__all__ = ["Config", "MapConfig", "TaskConfig"]


@dataclass(frozen=True)
class MapConfig(Record):
    """Map-building knobs."""

    node_spacing: float = 2.0
    window: int = 5

    def __post_init__(self):
        if not 0.0 < self.node_spacing < math.inf:
            raise ConfigError("node_spacing must be positive and finite")
        if self.window < 2:
            raise ConfigError("window must be at least 2")


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
    filter: PipelineParams = field(default_factory=PipelineParams)
    task: TaskConfig = field(default_factory=TaskConfig)
