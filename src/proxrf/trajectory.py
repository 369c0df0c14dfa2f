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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import FrameMismatch, InsufficientData, InvalidFeature, MissingFrames

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


@dataclass(frozen=True)
class RelativePolar:
    """Polar coordinates of a target in the anchor's body frame.

    theta is measured from the anchor's facing direction, positive
    counterclockwise, in (-pi, pi].
    """

    rho: float
    theta: float

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")


class Trajectory:
    """Ordered ground-plane samples of one track id at a fixed frame rate."""

    __slots__ = ("track_id", "samples", "fps", "_frames", "_xy")

    def __init__(self, track_id, samples: Iterable[TimedPosition], fps: float):
        samples = tuple(samples)
        if fps <= 0.0:
            raise ValueError(f"fps must be > 0, got {fps}")
        frames = np.array([s.frame for s in samples], dtype=np.int64)
        if len(frames) > 1 and np.any(np.diff(frames) <= 0):
            raise ValueError(f"track {track_id}: frames must strictly increase")
        self.track_id = str(track_id)
        self.samples = samples
        self.fps = float(fps)
        self._frames = frames
        self._xy = np.array([[s.x, s.y] for s in samples], dtype=float).reshape(len(samples), 2)

    def __len__(self):
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.track_id == other.track_id
            and self.fps == other.fps
            and self.samples == other.samples
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

    def positions(self, start: int, end: int, max_gap: int = DEFAULT_MAX_GAP) -> np.ndarray:
        """Per-frame positions over [start, end] inclusive, shape (n, 2).

        Interior gaps up to ``max_gap`` missing frames are filled by linear
        interpolation; anything worse raises MissingFrames.
        """
        if len(self) == 0 or start < self.first_frame or end > self.last_frame:
            raise MissingFrames(
                f"track {self.track_id}: frames {start}..{end} outside "
                f"{self.first_frame}..{self.last_frame}"
            )
        pieces = self.pieces(max_gap)
        for (_, g0), (g1, _) in zip(pieces, pieces[1:]):
            if g0 < end and g1 > start:
                raise MissingFrames(
                    f"track {self.track_id}: gap {g0}..{g1} exceeds {max_gap} frames"
                )
        want = np.arange(start, end + 1)
        x = np.interp(want, self._frames, self._xy[:, 0])
        y = np.interp(want, self._frames, self._xy[:, 1])
        return np.column_stack([x, y])

    def filled(self, max_gap: int = DEFAULT_MAX_GAP) -> "Trajectory":
        """Copy with every interior gap of at most ``max_gap`` interpolated."""
        pos = self.positions(self.first_frame, self.last_frame, max_gap=max_gap)
        frames = range(self.first_frame, self.last_frame + 1)
        return Trajectory(
            self.track_id,
            (TimedPosition(f, float(p[0]), float(p[1])) for f, p in zip(frames, pos)),
            self.fps,
        )


def smooth(traj: Trajectory, cfg: SmoothingConfig) -> Trajectory:
    """Double-exponential smoothing of the positions, frames unchanged.

    Brown's form: a level smoother s1[t] = a*x[t] + (1-a)*s1[t-1] feeds a
    second smoother s2 of the same form, and the output 2*s1 - s2 removes
    the steady-state lag.  s1 is seeded with x[0] and s2 with s1[0], so
    the first sample passes through unchanged.  Samples are treated as
    uniformly spaced in time.  Finite positions so large that the
    arithmetic overflows raise InvalidFeature naming the track.
    """
    if len(traj) < 2:
        raise InsufficientData(f"track {traj.track_id}: need >= 2 samples to smooth")
    a = cfg.alpha
    b = 1.0 - a
    s1x, s1y = traj.samples[0].x, traj.samples[0].y
    s2x, s2y = a * s1x + b * s1x, a * s1y + b * s1y  # s1[0]
    out = []
    for s in traj.samples:
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


def kinematics(traj: Trajectory, cfg: SmoothingConfig) -> TrackStates:
    """Per-sample kinematic states from an (already smoothed) trajectory.

    Velocity is the central finite difference of position (one-sided at
    the ends) using the actual frame deltas, scaled to meters per second.
    Orientation is atan2 of the velocity when speed >= t_s, else nan.
    Finite positions whose velocity or speed overflows raise
    InvalidFeature naming the track and the first such frame.
    """
    n = len(traj)
    if n < 2:
        raise InsufficientData(f"track {traj.track_id}: need >= 2 samples for kinematics")
    pos = traj.xy
    f = traj._frames.astype(float)
    v = np.empty_like(pos)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        v[1:-1] = (pos[2:] - pos[:-2]) / (f[2:, None] - f[:-2, None])
        v[0] = (pos[1] - pos[0]) / (f[1] - f[0])
        v[-1] = (pos[-1] - pos[-2]) / (f[-1] - f[-2])
        v *= traj.fps
        speed = np.hypot(v[:, 0], v[:, 1])
    bad = np.flatnonzero(~np.isfinite(speed))
    if len(bad):
        raise InvalidFeature(
            f"track {traj.track_id}: velocity overflows at frame {traj._frames[bad[0]]}"
        )
    orientation = np.fromiter(map(math.atan2, v[:, 1].tolist(), v[:, 0].tolist()), float, n)
    orientation[speed < cfg.t_s] = np.nan
    return TrackStates(traj.frames, pos, v, speed, orientation)


def smoothed_states(
    traj: Trajectory, cfg: SmoothingConfig, max_gap: int = DEFAULT_MAX_GAP
) -> TrackStates:
    """Smooth + kinematics over each contiguous span, concatenated.

    Gaps of at most ``max_gap`` frames are interpolated before smoothing;
    larger gaps split the track into independent spans (each smoothed from
    its own start).  Spans of a single frame yield no state.
    """
    cuts = (np.flatnonzero(np.diff(traj._frames) > max_gap + 1) + 1).tolist()
    parts = [TrackStates(np.empty(0, np.int64), np.empty((0, 2)), np.empty((0, 2)),
                         np.empty(0), np.empty(0))]
    for lo, hi in zip([0] + cuts, cuts + [len(traj)]):
        if hi - lo >= 2:
            seg = Trajectory(traj.track_id, traj.samples[lo:hi], traj.fps).filled(max_gap=max_gap)
            parts.append(kinematics(smooth(seg, cfg), cfg))
    return TrackStates(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(TrackStates)))


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


def finite_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative of values sampled every ``h`` seconds: central
    differences inside, one-sided at both ends (>= 2 values)."""
    dv = np.empty_like(values)
    dv[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    dv[0] = (values[1] - values[0]) / h
    dv[-1] = (values[-1] - values[-2]) / h
    return dv
