"""Per-sample reference code for the array-based trajectory layer.

The library works on whole arrays; these frame-by-frame forms are kept
as test oracles.  ``KinematicState``, ``relative_polar``,
``relative_distance_series`` and ``derivative`` describe one pair-frame
or one series at a time; ``reference_states`` is ``smoothed_states``
built from one TimedPosition per sample: span split, gap filling and
Brown's smoothing sample by sample, then ``kinematics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from proxrf.errors import FrameMismatch, InsufficientData, InvalidFeature
from proxrf.trajectory import (
    DEFAULT_MAX_GAP,
    TWO_PI,
    RelativePolar,
    SmoothingConfig,
    TimedPosition,
    TrackStates,
    Trajectory,
    finite_difference,
    kinematics,
    wrap_angle,
)


@dataclass(frozen=True)
class KinematicState:
    """Smoothed position, velocity, speed and heading at one frame.

    ``orientation`` is None exactly when ``speed`` is below the smoothing
    config's slow threshold.
    """

    frame: int
    position: tuple
    velocity: tuple
    speed: float
    orientation: Optional[float]


def relative_polar(
    anchor: KinematicState, target: KinematicState, rng: np.random.Generator
) -> RelativePolar:
    """Target position in the anchor's body frame.

    When the anchor's orientation is unavailable (slow anchor) the angle
    is drawn uniformly from (-pi, pi] using ``rng``, so the distance is
    the only informative coordinate; rho is always the true distance.
    """
    if anchor.frame != target.frame:
        raise FrameMismatch(f"anchor frame {anchor.frame} != target frame {target.frame}")
    dx = target.position[0] - anchor.position[0]
    dy = target.position[1] - anchor.position[1]
    rho = math.hypot(dx, dy)
    if anchor.orientation is None:
        theta = math.pi - TWO_PI * float(rng.random())
    else:
        theta = wrap_angle(math.atan2(dy, dx) - anchor.orientation)
    return RelativePolar(rho=rho, theta=theta)


def relative_distance_series(
    anchor: Trajectory, target: Trajectory, window: tuple, max_gap: int = DEFAULT_MAX_GAP
) -> list:
    """Per-frame Euclidean distance between two tracks over [start, end]."""
    start, end = window
    pa = anchor.positions(start, end, max_gap=max_gap)
    pb = target.positions(start, end, max_gap=max_gap)
    d = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    return [(int(f), float(v)) for f, v in zip(range(start, end + 1), d)]


def derivative(series: Sequence, fps: float) -> list:
    """Finite-difference derivative of a uniformly sampled (frame, value)
    series, in value units per second.  Central differences inside,
    one-sided at both ends."""
    if len(series) < 2:
        raise InsufficientData("derivative needs >= 2 points")
    frames = np.array([p[0] for p in series], dtype=np.int64)
    values = np.array([p[1] for p in series], dtype=float)
    steps = np.diff(frames)
    if np.any(steps != steps[0]):
        raise ValueError("derivative requires uniform frame spacing")
    dv = finite_difference(values, steps[0] / fps)
    return [(int(f), float(v)) for f, v in zip(frames, dv)]


def reference_filled(traj: Trajectory, max_gap: int = DEFAULT_MAX_GAP) -> Trajectory:
    """Trajectory.filled, one TimedPosition per frame; an overflow is
    caught as TimedPosition refuses the non-finite result."""
    pos = traj.positions(traj.first_frame, traj.last_frame, max_gap=max_gap)
    out = []
    for f, p in zip(range(traj.first_frame, traj.last_frame + 1), pos):
        try:
            out.append(TimedPosition(f, float(p[0]), float(p[1])))
        except ValueError:  # finite input, overflowing arithmetic
            raise InvalidFeature(
                f"track {traj.track_id}: interpolated position overflows at frame {f}"
            ) from None
    return Trajectory(traj.track_id, out, traj.fps)


def reference_smooth(traj: Trajectory, cfg: SmoothingConfig) -> Trajectory:
    """smooth, sample by sample; an overflow is caught as TimedPosition
    refuses the non-finite result."""
    samples = traj.samples
    if len(samples) < 2:
        raise InsufficientData(f"track {traj.track_id}: need >= 2 samples to smooth")
    a = cfg.alpha
    b = 1.0 - a
    s1x, s1y = samples[0].x, samples[0].y
    s2x, s2y = a * s1x + b * s1x, a * s1y + b * s1y  # s1[0]
    out = []
    for s in samples:
        s1x = a * s.x + b * s1x
        s1y = a * s.y + b * s1y
        s2x = a * s1x + b * s2x
        s2y = a * s1y + b * s2y
        try:
            out.append(TimedPosition(s.frame, 2.0 * s1x - s2x, 2.0 * s1y - s2y))
        except ValueError:  # finite input, overflowing arithmetic
            raise InvalidFeature(
                f"track {traj.track_id}: smoothed position overflows at frame {s.frame}"
            ) from None
    return Trajectory(traj.track_id, out, traj.fps)


def reference_states(
    traj: Trajectory, cfg: SmoothingConfig, max_gap: int = DEFAULT_MAX_GAP
) -> TrackStates:
    """smoothed_states over per-sample spans, fills and smoothing."""
    samples = traj.samples
    frames = [s.frame for s in samples]
    cuts = [i for i in range(1, len(frames)) if frames[i] - frames[i - 1] > max_gap + 1]
    parts = [TrackStates(np.empty(0, np.int64), np.empty((0, 2)), np.empty((0, 2)),
                         np.empty(0), np.empty(0))]
    for lo, hi in zip([0] + cuts, cuts + [len(samples)]):
        if hi - lo >= 2:
            seg = reference_filled(Trajectory(traj.track_id, samples[lo:hi], traj.fps), max_gap)
            parts.append(kinematics(reference_smooth(seg, cfg), cfg))
    return TrackStates(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(TrackStates)))
