"""Collective behavior descriptor for a group of pedestrians in a window.

The descriptor pools first-stage interaction predictions over all ordered
member pairs into a normalized 6-bin histogram and appends the group's
mean speed, the rate of change of its dispersion, and the eigenvalue
ratio of the member-position covariance, which separates aligned
formations (queues) from isotropic ones (conversation circles).  A
second random forest over these vectors, or over a subset of their cues,
assigns one of six collective behaviors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyGroup,
    FrameMismatch,
    ModelShapeMismatch,
    ShapeMismatch,
)
from .pid import (
    InteractionLabel,
    PidConfig,
    _pid_from_states,
    interaction_labels,
    pair_batches,
)
from .trajectory import (
    DEFAULT_MAX_GAP,
    SmoothingConfig,
    TrackStates,
    Trajectory,
    finite_difference,
    smoothed_states,
)

DEFAULT_PREDICTION_STRIDE = 5


class CollectiveLabel(enum.Enum):
    """The six collective behaviors."""

    Gathering = "Gathering"
    Talking = "Talking"
    Dismissal = "Dismissal"
    Walking = "Walking"
    Chasing = "Chasing"
    Queuing = "Queuing"

    @property
    def code(self) -> str:
        return self.value

    @property
    def class_id(self) -> int:
        return _COLLECTIVE_IDS[self]


_COLLECTIVE_ORDER = tuple(CollectiveLabel)
_COLLECTIVE_IDS = {lab: i for i, lab in enumerate(_COLLECTIVE_ORDER)}
_LABEL_IDS = {lab: lab.class_id for lab in InteractionLabel}


class GroupWindow:
    """Per-frame membership and smoothed kinematics of a group in a window.

    ``member_states`` maps track id to its TrackStates, which cover each
    track's whole contiguous spans, not just the window, so pair
    descriptors centered near the window edges can reach back and forward
    as far as the tracks allow.  ``present`` (members x t2) marks the
    frames where each member has a state, in member_states order, and
    ``xy`` (members x t2 x 2) and ``speed`` (members x t2) hold its state
    there (zero where absent).
    """

    __slots__ = ("center_frame", "t2", "fps", "member_states", "present", "xy", "speed")

    def __init__(self, center_frame, t2, fps, member_states):
        if t2 < 2 or t2 & (t2 - 1):
            raise ValueError(f"t2 must be a power of two >= 2, got {t2}")
        self.center_frame = int(center_frame)
        self.t2 = int(t2)
        self.fps = float(fps)
        self.member_states = member_states
        start, end = self.span
        frames = np.arange(start, end + 1)
        rows = np.array([st.rows(frames) for st in member_states.values()]).reshape(-1, t2)
        self.present = rows >= 0
        empty = np.flatnonzero(~self.present.any(axis=0))
        if len(empty):
            raise EmptyGroup(f"no group member at frame {frames[empty[0]]}")
        self.xy = np.zeros(rows.shape + (2,))
        self.speed = np.zeros(rows.shape)
        for i, st in enumerate(member_states.values()):
            have = self.present[i]
            self.xy[i, have] = st.xy[rows[i, have]]
            self.speed[i, have] = st.speed[rows[i, have]]

    @property
    def span(self) -> tuple:
        """First and last frame (inclusive): [t - t2/2 + 1, t + t2/2]."""
        return self.center_frame - self.t2 // 2 + 1, self.center_frame + self.t2 // 2

    @classmethod
    def build(
        cls,
        trajectories: Sequence[Trajectory],
        center_frame: int,
        t2: int,
        smoothing: SmoothingConfig,
        max_gap: int = DEFAULT_MAX_GAP,
        states: Optional[dict] = None,
    ) -> "GroupWindow":
        """Window over the given tracks; ``states`` may carry precomputed
        TrackStates per track id to reuse across windows."""
        if not trajectories:
            raise EmptyGroup("no trajectories")
        fps = trajectories[0].fps
        for tr in trajectories:
            if tr.fps != fps:
                raise FrameMismatch(f"fps mismatch: {tr.fps} vs {fps}")
        member_states = {}
        for tr in trajectories:
            if states is not None and tr.track_id in states:
                member_states[tr.track_id] = states[tr.track_id]
            else:
                member_states[tr.track_id] = smoothed_states(tr, smoothing, max_gap=max_gap)
        return cls(center_frame, t2, fps, member_states)


@dataclass(frozen=True, eq=False)
class CbdDescriptor:
    """Interaction histogram + speed, dispersion and shape cues."""

    interaction_hist: np.ndarray
    mean_speed: float
    dispersion_change: float
    shape_ratio: float
    center_frame: int

    def vector(self) -> np.ndarray:
        tail = [self.mean_speed, self.dispersion_change, self.shape_ratio]
        return np.concatenate([self.interaction_hist, tail])

    def __len__(self):
        return len(self.interaction_hist) + 3


def interaction_histogram(predictions: Sequence[InteractionLabel]) -> np.ndarray:
    """Normalized label counts; all zeros when there are no predictions."""
    if not predictions:
        return np.zeros(len(InteractionLabel))
    ids = np.fromiter(map(_LABEL_IDS.__getitem__, predictions), np.intp, len(predictions))
    return np.bincount(ids, minlength=len(InteractionLabel)) / len(predictions)


def mean_speed(window: GroupWindow) -> float:
    """Double average of member speeds: over members, then over frames.

    The axis-0 sum adds member rows in order, as a per-frame sum would."""
    per_frame = window.speed.sum(axis=0) / window.present.sum(axis=0)
    return sum(per_frame.tolist()) / window.t2


def dispersion(positions: Sequence) -> float:
    """RMS distance of the points from their centroid."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise EmptyGroup("dispersion of an empty point set")
    centered = pts - pts.mean(axis=0)
    return float(np.sqrt((centered**2).sum(axis=1).mean()))


def _spread(window: GroupWindow) -> np.ndarray:
    """Per-frame dispersion() of the present members.

    One masked pass sums every frame's members in member order, absent
    members adding exact zeros, which is dispersion()'s order while a
    frame has fewer than 8 members.  numpy sums 8 or more values
    pairwise, so frames with that many go again through one (frames,
    members, 2) array per member count.
    """
    present = window.present
    counts = present.sum(axis=0)
    mean = window.xy.sum(axis=0) / counts[:, None]
    sq = ((window.xy - mean) ** 2).sum(axis=2) * present
    spread = np.sqrt(sq.sum(axis=0) / counts)
    for n in np.unique(counts[counts >= 8]).tolist():
        at = np.flatnonzero(counts == n)
        pts = window.xy.transpose(1, 0, 2)[at][present.T[at]].reshape(len(at), n, 2)
        centered = pts - pts.mean(axis=1, keepdims=True)
        spread[at] = np.sqrt((centered**2).sum(axis=2).mean(axis=1))
    return spread


def dispersion_change(window: GroupWindow) -> float:
    """Mean derivative of the per-frame group dispersion, in m/s."""
    return float(np.mean(finite_difference(_spread(window), 1.0 / window.fps)))


def shape_ratio(positions: Sequence) -> float:
    """Covariance eigenvalue ratio lambda_max / lambda_min of the points.

    Returns 0 for fewer than two points or a degenerate (collinear)
    spread, where the smallest eigenvalue is below 1e-9 m^2.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        return 0.0
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    lam_min, lam_max = np.linalg.eigvalsh(cov)
    if lam_min <= 1e-9:
        return 0.0
    return float(lam_max / lam_min)


def _pid_centers(window: GroupWindow, stride: int) -> range:
    start, end = window.span
    return range(start, end + 1, stride)


def _covers(states: TrackStates, centers: range, back: int, fwd: int) -> np.ndarray:
    """Per center, whether ``states`` has every frame of [c - back, c + fwd]."""
    frames = states.frames
    first = np.asarray(centers) - back
    inside = np.searchsorted(frames, first + back + fwd, "right") - np.searchsorted(frames, first)
    return inside == back + fwd + 1


def pair_keys(
    window: GroupWindow, pid_cfg: PidConfig, stride: int = DEFAULT_PREDICTION_STRIDE
) -> list:
    """(anchor, target, center) of every ordered member pair at every
    stride center of the window, in pooling order.  A pair has a key at
    a center only when both tracks cover the full descriptor window
    there."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    back, fwd = pid_cfg.window_halves
    ids = sorted(window.member_states)
    centers = _pid_centers(window, stride)
    covered = {tid: _covers(window.member_states[tid], centers, back, fwd) for tid in ids}
    keys = []
    for k, center in enumerate(centers):
        present = [tid for tid in ids if covered[tid][k]]
        keys += [(aid, tid, center) for aid in present for tid in present if aid != tid]
    return keys


def pair_vectors(
    states: dict, keys: Sequence, pid_cfg: PidConfig, fps: float, seed: int, cache: dict
) -> list:
    """PID vector of each (anchor, target, center) key, described once.

    ``states`` maps track id to its smoothed states.  ``cache`` maps keys
    to the vectors already described; they depend on no model, so one
    cache serves every model while the states, descriptor config and
    seed stay fixed.  The missing keys are grouped by pair and described
    by PairBatches over whole pairs (pair_batches); each key's vector is
    then read out of its batch.
    """
    missing = {}
    for aid, tid, center in keys:
        if (aid, tid, center) not in cache:
            missing.setdefault((aid, tid), {})[center] = None
    pairs = [(states[aid], states[tid], aid, tid, list(centers))
             for (aid, tid), centers in missing.items()]
    for chunk, batch in pair_batches(pairs, pid_cfg, fps, seed):
        for sa, sb, aid, tid, centers in chunk:
            for center in centers:
                cache[aid, tid, center] = _pid_from_states(
                    sa, sb, aid, tid, center, pid_cfg, fps, seed, batch
                ).vector()
    return [cache[key] for key in keys]


def pair_predictions(
    windows: Sequence[GroupWindow],
    pid_model,
    pid_cfg: PidConfig,
    stride: int = DEFAULT_PREDICTION_STRIDE,
    seed: int = 0,
    cache: Optional[dict] = None,
) -> list:
    """First-stage predictions over each window's pair_keys, one label
    list per window in pooling order.

    The windows must come from one recording: a track id names the same
    smoothed states in all of them.  Each distinct key is described once
    through ``cache`` (as for pair_vectors; None uses a fresh one) and
    voted once, in a single ``predict_batch`` call over all windows; a
    vote's label is read from the model's class names (interaction_labels).
    """
    per_window = [pair_keys(w, pid_cfg, stride) for w in windows]
    keys = list(dict.fromkeys(k for window_keys in per_window for k in window_keys))
    if not keys:
        return [[] for _ in per_window]
    states = {tid: st for w in windows for tid, st in w.member_states.items()}
    vecs = pair_vectors(states, keys, pid_cfg, windows[0].fps, seed,
                        {} if cache is None else cache)
    try:
        votes = pid_model.predict_batch(np.array(vecs))
    except ShapeMismatch as e:
        raise ModelShapeMismatch(str(e)) from None
    by_id = interaction_labels(pid_model)
    labels = {key: by_id[vote] for key, vote in zip(keys, votes.tolist())}
    return [[labels[k] for k in window_keys] for window_keys in per_window]


def compute_cbd(window: GroupWindow, predictions: Sequence[InteractionLabel]) -> CbdDescriptor:
    """Full group descriptor for one window from its first-stage
    ``predictions``, as pair_predictions gives them: for a lone window,
    ``compute_cbd(w, *pair_predictions([w], model, pid_cfg))``."""
    k = window.center_frame - window.span[0]
    return CbdDescriptor(
        interaction_hist=interaction_histogram(predictions),
        mean_speed=mean_speed(window),
        dispersion_change=dispersion_change(window),
        shape_ratio=shape_ratio(window.xy[window.present[:, k], k]),
        center_frame=window.center_frame,
    )


def classify_collective(descriptor: CbdDescriptor, model) -> tuple:
    """Forest vote over one descriptor: (label, per-class vote fractions).

    Votes are mapped to labels by the model's class names, so a model
    trained on a subset of the labels (cross_dataset after a drop)
    scores correctly.
    """
    try:
        votes = model.vote_fractions(descriptor.vector()[None, :])[0]
    except ShapeMismatch as e:
        raise ModelShapeMismatch(str(e)) from None
    probs = np.zeros(len(_COLLECTIVE_ORDER))
    for name, share in zip(model.class_names, votes):
        try:
            probs[CollectiveLabel(name).class_id] = share
        except ValueError:
            raise ModelShapeMismatch(f"model class {name!r} is no collective label") from None
    return _COLLECTIVE_ORDER[int(np.argmax(probs))], probs
