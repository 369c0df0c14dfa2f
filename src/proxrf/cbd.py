"""Collective behavior descriptor for a group of pedestrians in a window.

The descriptor pools first-stage interaction predictions over all ordered
member pairs into a normalized 6-bin histogram and appends the group's
mean speed, the rate of change of its dispersion, and the eigenvalue
ratio of the member-position covariance, which separates aligned
formations (queues) from isotropic ones (conversation circles).  A
second random forest over these vectors, or over a subset of their cues,
assigns one of six collective behaviors.

A GroupBlock holds the smoothed states (see trajectory.smoothed_states)
of a recording's members over many group windows at once, as one
(windows x members x t2) block.  The histograms take two steps over the
blocks of one recording: pair_vectors describes each distinct (anchor,
target, center) key once and needs no model, and pool_votes votes those
vectors under a stage-one model and pools them per window.  group_cues
gives the other three cues of every window of a block.
evaluate.Pipeline runs these steps and caches the model-free ones.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .errors import ModelShapeMismatch, ShapeMismatch
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


class GroupBlock:
    """Per-frame membership and smoothed kinematics of group windows of
    one recording, as one (windows x members x t2) block.

    ``member_states`` maps track id to its TrackStates, which cover each
    track's whole contiguous spans, not just the windows, so pair
    descriptors centered near a window's edges can reach back and
    forward as far as the tracks allow.  The members are its ids in
    sorted order (``ids``), the order in which dataset.windows lists a
    window's members; a track that is no member of a window has no state
    in it, so every window may share one member list.  Window i spans
    [centers[i] - t2/2 + 1, centers[i] + t2/2].  ``present`` (windows x
    members x t2) marks the frames where each member has a state, and
    ``xy`` (windows x members x t2 x 2) and ``speed`` (windows x members
    x t2) hold its state there (zero where absent); each member's rows
    come from one TrackStates.rows lookup over all windows.

    A placement with a frame where no member is present is dropped:
    ``centers`` holds the kept placements' centers and ``kept`` their
    indices among the centers given.
    """

    __slots__ = ("centers", "kept", "t2", "fps", "ids", "member_states", "present", "xy",
                 "speed")

    def __init__(self, centers, t2, fps, member_states):
        if t2 < 2 or t2 & (t2 - 1):
            raise ValueError(f"t2 must be a power of two >= 2, got {t2}")
        self.t2 = int(t2)
        self.fps = float(fps)
        self.member_states = member_states
        self.ids = sorted(member_states)
        states = [member_states[tid] for tid in self.ids]
        centers = np.asarray(centers, dtype=np.int64).reshape(-1)
        frames = centers[:, None] + np.arange(1 - t2 // 2, t2 // 2 + 1)
        rows = np.array([st.rows(frames) for st in states], dtype=np.intp).reshape(
            (len(states),) + frames.shape)
        self.kept = np.flatnonzero((rows >= 0).any(axis=0).all(axis=1))
        self.centers = centers[self.kept]
        rows = rows.transpose(1, 0, 2)[self.kept]
        self.present = rows >= 0
        # one gather from all members' states laid end to end, absent
        # slots reading the zero row after them
        sizes = [len(st.frames) for st in states]
        at = rows + np.cumsum([0] + sizes[:-1], dtype=np.intp)[:, None]
        at[~self.present] = sum(sizes)
        self.xy = np.concatenate([st.xy for st in states] + [np.zeros((1, 2))])[at]
        self.speed = np.concatenate([st.speed for st in states] + [np.zeros(1)])[at]

    def __len__(self):
        return len(self.centers)


def interaction_histogram(window, label, n_windows: int) -> np.ndarray:
    """(n_windows, 6) normalized label counts from one bincount: pair
    prediction i of window ``window[i]`` has the InteractionLabel class
    id ``label[i]``.  A window without predictions gets a zero row."""
    k = len(InteractionLabel)
    slot = np.asarray(window, dtype=np.intp) * k + np.asarray(label, dtype=np.intp)
    counts = np.bincount(slot, minlength=n_windows * k).reshape(n_windows, k)
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)


def mean_speed(block: GroupBlock) -> np.ndarray:
    """Each window's double average of member speeds: over members, then
    over frames.

    The member-axis sum adds member rows in order, as a per-frame sum
    would, and each window's frames are summed in order by Python's sum."""
    per_frame = block.speed.sum(axis=1) / block.present.sum(axis=1)
    return np.array([sum(frames) for frames in per_frame.tolist()]) / block.t2


def _spread(block: GroupBlock) -> np.ndarray:
    """(windows, t2) RMS distance of the present members from their
    centroid.

    Each frame's sums run over its members in member order, absent
    members adding exact zeros.  Frames with 8 or more present members
    are summed again over those members alone, with numpy's pairwise
    sum, through one (frames, members, 2) array per member count over
    all windows.  Either way a frame's value is the mean over its
    present members' points alone, in the order numpy's mean over those
    points takes.
    """
    present = block.present
    counts = present.sum(axis=1)
    mean = block.xy.sum(axis=1) / counts[..., None]
    sq = ((block.xy - mean[:, None]) ** 2).sum(axis=3) * present
    spread = np.sqrt(sq.sum(axis=1) / counts)
    # ascending member counts from 8 up; np.unique would cost its first
    # call in a process about 10 ms
    for n in (np.flatnonzero(np.bincount(counts.ravel())[8:]) + 8).tolist():
        w, f = np.nonzero(counts == n)
        pts = block.xy[w, :, f][present[w, :, f]].reshape(len(w), n, 2)
        centered = pts - pts.mean(axis=1, keepdims=True)
        spread[w, f] = np.sqrt((centered**2).sum(axis=2).mean(axis=1))
    return spread


def dispersion_change(block: GroupBlock) -> np.ndarray:
    """Each window's mean derivative of the per-frame group dispersion,
    in m/s."""
    return finite_difference(_spread(block), 1.0 / block.fps).mean(axis=1)


def shape_ratio(points, present=None):
    """Covariance eigenvalue ratio lambda_max / lambda_min of each point
    set.

    ``points`` is one (n, 2) point set or a (..., n, 2) stack of them,
    and ``present`` (..., n), if given, marks the points each set holds.
    A set's ratio is 0 for fewer than two points or a degenerate
    (collinear) spread, where the smallest eigenvalue is below 1e-9 m^2.
    Sets of one size share one batched covariance and eigenvalue call,
    which gives each set the bits it gets alone.  Returns a float for
    one set and an array of shape ``...`` for a stack.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 2)
    shape = pts.shape[:-2]
    pts = pts.reshape((int(np.prod(shape)),) + pts.shape[-2:])
    if present is None:
        mask = np.ones(pts.shape[:2], dtype=bool)
    else:
        mask = np.asarray(present, dtype=bool).reshape(pts.shape[:2])
    counts = mask.sum(axis=1)
    ratio = np.zeros(len(pts))
    for n in (np.flatnonzero(np.bincount(counts)[2:]) + 2).tolist():
        at = np.flatnonzero(counts == n)
        sets = pts[at][mask[at]].reshape(len(at), n, 2)
        centered = sets - sets.mean(axis=1, keepdims=True)
        cov = centered.transpose(0, 2, 1) @ centered / n
        lam = np.linalg.eigvalsh(cov)
        ok = ~(lam[:, 0] <= 1e-9)
        ratio[at[ok]] = lam[ok, 1] / lam[ok, 0]
    return ratio.reshape(shape)[()]


def _covers(states: TrackStates, centers: np.ndarray, back: int, fwd: int) -> np.ndarray:
    """Per center, whether ``states`` has every frame of [c - back, c + fwd]."""
    frames = states.frames
    inside = frames.searchsorted(centers + fwd, "right") - frames.searchsorted(centers - back)
    return inside == back + fwd + 1


def pair_keys(block: GroupBlock, pid_cfg: PidConfig, stride: int) -> tuple:
    """(window, anchor, target, center) arrays of every ordered member
    pair at every stride center of every window of the block, in pooling
    order (by window, then center, then anchor, then target); anchor and
    target index ``block.ids``.  A pair has a key at a center only when
    both tracks cover the full descriptor window there."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    back, fwd = pid_cfg.window_halves
    centers = (block.centers - block.t2 // 2 + 1)[:, None] + np.arange(0, block.t2, stride)
    m = len(block.ids)
    covered = np.array([_covers(block.member_states[tid], centers.ravel(), back, fwd)
                        for tid in block.ids]).reshape(m, -1).T
    both = covered[:, :, None] & covered[:, None, :] & ~np.eye(m, dtype=bool)
    at, anchor, target = np.nonzero(both)
    return at // centers.shape[1], anchor, target, centers.ravel()[at]


def _distinct_keys(blocks: Sequence[GroupBlock], pid_cfg: PidConfig, stride: int) -> tuple:
    """(window, row, pairs) of pair_vectors: ``pairs`` lists each
    distinct key once, as describe_pairs takes it, by pair, then center.
    Its per-key work arrays are freed on return, before the describe."""
    keys = [pair_keys(b, pid_cfg, stride) for b in blocks]
    shift = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    window = np.concatenate([np.empty(0, dtype=np.intp)] + [k[0] + s for k, s in zip(keys, shift)])
    if not len(window):
        return window, np.empty(0, dtype=np.intp), []
    states = {tid: st for b in blocks for tid, st in b.member_states.items()}
    ids = sorted(states)
    n = len(ids)
    codes = {tid: k for k, tid in enumerate(ids)}
    members = [np.array([codes[tid] for tid in b.ids], dtype=np.intp) for b in blocks]
    anchor, target, centers = (np.concatenate(col) for col in zip(
        *[(c[a], c[t], cs) for c, (_, a, t, cs) in zip(members, keys)]))
    del keys
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
    return window, row, pairs


def pair_vectors(blocks: Sequence[GroupBlock], pid_cfg: PidConfig, stride: int,
                 seed: int) -> tuple:
    """The first, model-free step of a CBD histogram: (vectors, window, row).

    ``window`` and ``row`` hold one entry per pair_keys key of every
    window of the blocks, in pooling order: the key's window index, the
    blocks' windows counted one block after another, and its row of
    ``vectors``, which holds the PID vector of each distinct key once,
    from one describe_pairs call under ``pid_cfg`` and ``seed``.  The
    blocks must come from one recording: a track id names the same
    smoothed states in all of them.
    """
    window, row, pairs = _distinct_keys(blocks, pid_cfg, stride)
    if not pairs:
        return np.empty((0, pid_cfg.descriptor_length)), window, row
    return describe_pairs(pairs, pid_cfg, blocks[0].fps, seed), window, row


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


def group_cues(block: GroupBlock) -> np.ndarray:
    """(windows, 3) mean speed, dispersion change and shape ratio of
    every window of a block: the cues of its CBD after the interaction
    histogram.  The shape ratio is taken over the members present at the
    center frame.  The full CBD vectors of a block's windows are
    ``np.hstack([pool_votes(model, *pair_vectors([block], pid_cfg,
    stride, seed), len(block)), group_cues(block)])``."""
    k = block.t2 // 2 - 1
    return np.column_stack([mean_speed(block), dispersion_change(block),
                            shape_ratio(block.xy[:, :, k], block.present[:, :, k])])
