"""Collective behavior descriptor for a group of pedestrians in a window.

The descriptor pools first-stage interaction predictions over all ordered
member pairs into a normalized 6-bin histogram and appends the group's
mean speed, the rate of change of its dispersion, and the eigenvalue
ratio of the member-position covariance, which separates aligned
formations (queues) from isotropic ones (conversation circles).  A
second random forest over these vectors, or over a subset of their cues,
assigns one of six collective behaviors.

A GroupWindow holds the members' smoothed states (see
trajectory.smoothed_states) over a window.  Its histogram takes two
steps over all windows of one recording: pair_vectors describes each
distinct (anchor, target, center) key once and needs no model, and
pool_votes votes those vectors under a stage-one model and pools them
per window.  group_cues gives the other three cues.
evaluate.Pipeline runs these steps and caches the model-free ones.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .errors import EmptyGroup, ModelShapeMismatch, ShapeMismatch
from .pid import InteractionLabel, PidConfig, describe_pairs, interaction_labels
from .trajectory import TrackStates, finite_difference


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


_COLLECTIVE_IDS = {lab: i for i, lab in enumerate(CollectiveLabel)}


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


def interaction_histogram(window, label, n_windows: int) -> np.ndarray:
    """(n_windows, 6) normalized label counts from one bincount: pair
    prediction i of window ``window[i]`` has the InteractionLabel class
    id ``label[i]``.  A window without predictions gets a zero row."""
    k = len(InteractionLabel)
    slot = np.asarray(window, dtype=np.intp) * k + np.asarray(label, dtype=np.intp)
    counts = np.bincount(slot, minlength=n_windows * k).reshape(n_windows, k)
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)


def mean_speed(window: GroupWindow) -> float:
    """Double average of member speeds: over members, then over frames.

    The axis-0 sum adds member rows in order, as a per-frame sum would."""
    per_frame = window.speed.sum(axis=0) / window.present.sum(axis=0)
    return sum(per_frame.tolist()) / window.t2


def _spread(window: GroupWindow) -> np.ndarray:
    """Per-frame RMS distance of the present members from their centroid.

    Each frame's sums run over its members in member order, absent
    members adding exact zeros.  Frames with 8 or more present members
    are summed again over those members alone, with numpy's pairwise
    sum, through one (frames, members, 2) array per member count.  Either
    way a frame's value is the mean over its present members' points
    alone, in the order numpy's mean over those points takes.
    """
    present = window.present
    counts = present.sum(axis=0)
    mean = window.xy.sum(axis=0) / counts[:, None]
    sq = ((window.xy - mean) ** 2).sum(axis=2) * present
    spread = np.sqrt(sq.sum(axis=0) / counts)
    # ascending member counts from 8 up; np.unique would cost its first
    # call in a process about 10 ms
    for n in (np.flatnonzero(np.bincount(counts)[8:]) + 8).tolist():
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


def _covers(states: TrackStates, centers: np.ndarray, back: int, fwd: int) -> np.ndarray:
    """Per center, whether ``states`` has every frame of [c - back, c + fwd]."""
    frames = states.frames
    inside = frames.searchsorted(centers + fwd, "right") - frames.searchsorted(centers - back)
    return inside == back + fwd + 1


def pair_keys(window: GroupWindow, pid_cfg: PidConfig, stride: int) -> tuple:
    """(anchor, target, center) arrays of every ordered member pair at
    every stride center of the window, in pooling order (by center, then
    anchor, then target); anchor and target index the members in sorted
    id order.  A pair has a key at a center only when both tracks cover
    the full descriptor window there."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    back, fwd = pid_cfg.window_halves
    start, end = window.span
    centers = np.arange(start, end + 1, stride)
    covered = np.array([_covers(window.member_states[tid], centers, back, fwd)
                        for tid in sorted(window.member_states)]).reshape(-1, len(centers)).T
    both = covered[:, :, None] & covered[:, None, :] & ~np.eye(covered.shape[1], dtype=bool)
    at, anchor, target = np.nonzero(both)
    return anchor, target, centers[at]


def pair_vectors(windows: Sequence[GroupWindow], pid_cfg: PidConfig, stride: int,
                 seed: int) -> tuple:
    """The first, model-free step of a CBD histogram: (vectors, window, row).

    ``window`` and ``row`` hold one entry per pair_keys key of every
    window, in pooling order: the key's window index and its row of
    ``vectors``, which holds the PID vector of each distinct key once,
    from one describe_pairs call under ``pid_cfg`` and ``seed``.  The
    windows must come from one recording: a track id names the same
    smoothed states in all of them.
    """
    keys = [pair_keys(w, pid_cfg, stride) for w in windows]
    sizes = [len(centers) for _, _, centers in keys]
    window = np.repeat(np.arange(len(windows)), sizes)
    if not sum(sizes):
        return np.empty((0, pid_cfg.descriptor_length)), window, np.empty(0, dtype=np.intp)
    states = {tid: st for w in windows for tid, st in w.member_states.items()}
    ids = sorted(states)
    n = len(ids)
    codes = {tid: k for k, tid in enumerate(ids)}
    members = [np.array([codes[tid] for tid in sorted(w.member_states)]) for w in windows]
    anchor, target, centers = (np.concatenate(col) for col in zip(
        *[(c[a], c[t], cs) for c, (a, t, cs) in zip(members, keys)]))
    # one int64 per key, sorted by pair, then center
    first = centers.min()
    span = int(centers.max()) - int(first) + 1
    key = (anchor * n + target) * span + (centers - first)
    order = key.argsort(kind="stable")
    fresh = np.append(True, key[order[1:]] != key[order[:-1]])
    row = np.empty(len(key), dtype=np.intp)
    row[order] = np.cumsum(fresh) - 1
    distinct = key[order[fresh]]
    pair, center = distinct // span, (distinct % span + first).tolist()
    cut = [0, *(np.flatnonzero(pair[1:] != pair[:-1]) + 1).tolist(), len(distinct)]
    pairs = [(states[ids[p // n]], states[ids[p % n]], ids[p // n], ids[p % n], center[lo:hi])
             for p, lo, hi in zip(pair[cut[:-1]].tolist(), cut, cut[1:])]
    return describe_pairs(pairs, pid_cfg, windows[0].fps, seed), window, row


def pool_votes(pid_model, vectors: np.ndarray, window, row, n_windows: int) -> np.ndarray:
    """The second step of a CBD histogram, under a stage-one model: the
    interaction histogram of each of ``n_windows`` windows, (n_windows,
    6), from one ``predict_batch`` call over ``vectors`` (see
    pair_vectors); the votes are mapped to label ids by the model's class
    names (interaction_labels)."""
    if not len(row):
        return np.zeros((n_windows, len(InteractionLabel)))
    try:
        votes = pid_model.predict_batch(vectors)
    except ShapeMismatch as e:
        raise ModelShapeMismatch(str(e)) from None
    label_ids = np.array([lab.class_id for lab in interaction_labels(pid_model)])
    return interaction_histogram(window, label_ids[votes][row], n_windows)


def group_cues(window: GroupWindow) -> tuple:
    """(mean speed, dispersion change, shape ratio) of a window: the
    cues of its CBD after the interaction histogram.  The shape ratio is
    taken over the members present at the center frame.  A window's full
    CBD vector is ``np.hstack([pool_votes(model, *pair_vectors([w],
    pid_cfg, stride, seed), 1)[0], group_cues(w)])``."""
    k = window.center_frame - window.span[0]
    return (mean_speed(window), dispersion_change(window),
            shape_ratio(window.xy[window.present[:, k], k]))
