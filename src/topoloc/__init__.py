"""Topometric localization on a place graph.

A discrete Bayes filter over map nodes plus an explicit off-map state,
driven by an odometry-conditioned motion model and an appearance
measurement model, with optional backward smoothing.  Ships with a
deterministic synthetic benchmark, task harnesses for loop-closure
detection and wakeup localization, and precision-recall evaluation.
"""

__version__ = "0.1.0"
