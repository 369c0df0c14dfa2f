"""Ground-plane trajectories and smoothed kinematics.

Positions are metric ground-plane coordinates indexed by integer video
frames.  Smoothing uses double exponential smoothing (a level and a trend
smoother sharing one factor); velocities come from central finite
differences on the smoothed positions.  Heading orientation is only
trusted above a configurable speed threshold: below it, downstream code
substitutes a seeded random direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import InvalidFeature

DEFAULT_MAX_GAP = 5

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.remainder(theta, TWO_PI)
    if np.ndim(wrapped) == 0:
        return float(wrapped - TWO_PI) if wrapped > math.pi else float(wrapped)
    wrapped = np.asarray(wrapped)
    wrapped[wrapped > math.pi] -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class TimedPosition:
    """One ground-plane sample of a track at an integer frame."""

    frame: int
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position at frame {self.frame}")


@dataclass(frozen=True)
class SmoothingConfig:
    """Double-exponential smoothing factor and the slow-speed threshold.

    ``alpha`` weights the current observation in both the level and trend
    smoothers.  ``t_s`` is the speed (m/s) below which motion-derived
    orientation is considered unreliable.
    """

    alpha: float = 0.5
    t_s: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 <= self.t_s < math.inf:
            raise ValueError(f"t_s must be finite and >= 0, got {self.t_s}")


@dataclass(frozen=True, eq=False)
class TrackStates:
    """Smoothed kinematics of one track, one row per frame with a state.

    ``frames`` (int64) increases, with jumps where the track splits into
    separately smoothed spans; ``xy`` and ``velocity`` are (n, 2),
    ``speed`` and ``orientation`` (n,).  ``orientation`` is nan exactly
    where ``speed`` is below the smoothing config's slow threshold.  The
    arrays are shared by every reader, which must not write to them.
    """

    frames: np.ndarray
    xy: np.ndarray
    velocity: np.ndarray
    speed: np.ndarray
    orientation: np.ndarray

    def __len__(self):
        return len(self.frames)

    def rows(self, frames) -> np.ndarray:
        """Row of each of ``frames``, or -1 where the track has no state."""
        frames = np.asarray(frames, dtype=np.int64)
        if not len(self.frames):
            return np.full(frames.shape, -1)
        at = np.minimum(np.searchsorted(self.frames, frames), len(self.frames) - 1)
        return np.where(self.frames[at] == frames, at, -1)


class Trajectory:
    """Ground-plane positions of one track id at a fixed frame rate.

    A track is two read-only arrays: int64 ``frames``, strictly increasing,
    and float ``xy`` of shape (n, 2), finite.  ``Trajectory(track_id,
    samples, fps)`` builds one from TimedPosition samples and
    ``Trajectory.from_arrays`` from the arrays themselves; ``samples``
    gives the TimedPosition view back.
    """

    __slots__ = ("track_id", "fps", "_frames", "_xy")

    def __init__(self, track_id, samples: Iterable[TimedPosition], fps: float):
        samples = tuple(samples)
        self._set(track_id, [s.frame for s in samples], [(s.x, s.y) for s in samples], fps)

    @classmethod
    def from_arrays(cls, track_id, frames, xy, fps: float) -> "Trajectory":
        """Track from its frames (n,) and positions (n, 2), both copied."""
        traj = cls.__new__(cls)
        traj._set(track_id, frames, xy, fps)
        return traj

    def _set(self, track_id, frames, xy, fps):
        if fps <= 0.0:
            raise ValueError(f"fps must be > 0, got {fps}")
        frames = np.array(frames, dtype=np.int64)
        xy = np.array(xy, dtype=float).reshape(len(frames), 2)
        if (frames[1:] <= frames[:-1]).any():
            raise ValueError(f"track {track_id}: frames must strictly increase")
        finite = np.isfinite(xy)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=1))[0]
            raise ValueError(f"non-finite position at frame {frames[bad]}")
        frames.flags.writeable = False
        xy.flags.writeable = False
        self.track_id = str(track_id)
        self.fps = float(fps)
        self._frames = frames
        self._xy = xy

    def __len__(self):
        return len(self._frames)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.track_id == other.track_id
            and self.fps == other.fps
            and np.array_equal(self._frames, other._frames)
            and np.array_equal(self._xy, other._xy)
        )

    def __repr__(self):
        span = f"{self.first_frame}..{self.last_frame}" if len(self) else "empty"
        return f"Trajectory({self.track_id!r}, {len(self)} samples, frames {span})"

    @property
    def first_frame(self):
        return int(self._frames[0])

    @property
    def last_frame(self):
        return int(self._frames[-1])

    @property
    def frames(self):
        return self._frames.copy()

    @property
    def xy(self):
        return self._xy.copy()

    @property
    def samples(self) -> tuple:
        """The track as TimedPosition samples, built on each call."""
        return tuple(map(TimedPosition, self._frames.tolist(), *self._xy.T.tolist()))

    def pieces(self, max_gap: int = DEFAULT_MAX_GAP) -> list:
        """(first, last) frame of each stretch of the track whose interior
        gaps are at most ``max_gap`` frames, in frame order."""
        if len(self) == 0:
            return []
        cuts = np.flatnonzero(np.diff(self._frames) > max_gap + 1)
        firsts = self._frames[np.r_[0, cuts + 1]].tolist()
        lasts = self._frames[np.r_[cuts, len(self) - 1]].tolist()
        return list(zip(firsts, lasts))

    def covers(self, start: int, end: int, max_gap: int = DEFAULT_MAX_GAP) -> bool:
        """True when every frame in [start, end] is available after
        interpolating interior gaps of at most ``max_gap`` frames."""
        return any(first <= start and end <= last for first, last in self.pieces(max_gap))


def _brown(values: list, a: float) -> list:
    """Brown's double exponential smoothing of one coordinate, in floats."""
    b = 1.0 - a
    s1 = values[0]
    s2 = a * s1 + b * s1  # s1[0]
    out = []
    for v in values:
        s1 = a * v + b * s1
        s2 = a * s1 + b * s2
        out.append(2.0 * s1 - s2)
    return out


def smoothed_states(
    traj: Trajectory, cfg: SmoothingConfig, max_gap: int = DEFAULT_MAX_GAP
) -> TrackStates:
    """Smoothed positions and their kinematics over each contiguous span,
    concatenated.

    Gaps of at most ``max_gap`` frames are interpolated first; larger gaps
    split the track into independent spans.  Spans of a single frame yield
    no state.  Each span is smoothed from its own start in Brown's form: a
    level smoother s1[t] = a*x[t] + (1-a)*s1[t-1] feeds a second smoother
    s2 of the same form, and the output 2*s1 - s2 removes the steady-state
    lag.  s1 is seeded with x[0] and s2 with s1[0], so the first sample
    passes through unchanged.  Velocity is the central finite difference
    of the smoothed positions (one-sided at the span's ends) in meters per
    second, and orientation is atan2 of the velocity where the speed is at
    least ``t_s``, else nan.  Finite positions so large that the gap
    interpolation, the smoothing or the velocity overflows raise
    InvalidFeature naming the track and the first such frame.
    """
    cuts = (np.flatnonzero(np.diff(traj._frames) > max_gap + 1) + 1).tolist()
    parts = [TrackStates(np.empty(0, np.int64), np.empty((0, 2)), np.empty((0, 2)),
                         np.empty(0), np.empty(0))]
    for lo, hi in zip([0] + cuts, cuts + [len(traj)]):
        if hi - lo < 2:
            continue
        frames, xy = traj._frames[lo:hi], traj._xy[lo:hi]
        first, last = int(frames[0]), int(frames[-1])
        if last - first + 1 > hi - lo:  # interpolate the span's interior gaps
            filled = np.arange(first, last + 1)
            xy = np.column_stack([np.interp(filled, frames, xy[:, 0]),
                                  np.interp(filled, frames, xy[:, 1])])
            bad = np.flatnonzero(~np.isfinite(xy).all(axis=1))
            if len(bad):  # finite input, overflowing arithmetic
                raise InvalidFeature(f"track {traj.track_id}: interpolated position "
                                     f"overflows at frame {filled[bad[0]]}")
            frames = filled
        pos = np.column_stack([_brown(xy[:, 0].tolist(), cfg.alpha),
                               _brown(xy[:, 1].tolist(), cfg.alpha)])
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if len(bad):  # finite input, overflowing arithmetic
            raise InvalidFeature(
                f"track {traj.track_id}: smoothed position overflows at frame {frames[bad[0]]}"
            )
        # the span's frames are consecutive, so each step is one frame
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
            velocity = finite_difference(pos.T, 1.0).T * traj.fps
            speed = np.hypot(velocity[:, 0], velocity[:, 1])
        bad = np.flatnonzero(~np.isfinite(speed))
        if len(bad):
            raise InvalidFeature(
                f"track {traj.track_id}: velocity overflows at frame {frames[bad[0]]}"
            )
        orientation = np.fromiter(map(math.atan2, velocity[:, 1].tolist(),
                                      velocity[:, 0].tolist()), float, len(pos))
        orientation[speed < cfg.t_s] = np.nan
        parts.append(TrackStates(frames, pos, velocity, speed, orientation))
    return TrackStates(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(TrackStates)))


def finite_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative along the last axis of values sampled every ``h``
    seconds: central differences inside, one-sided at both ends (>= 2
    values)."""
    dv = np.empty_like(values)
    dv[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    dv[..., 0] = (values[..., 1] - values[..., 0]) / h
    dv[..., -1] = (values[..., -1] - values[..., -2]) / h
    return dv
