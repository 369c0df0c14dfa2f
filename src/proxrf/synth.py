"""Seeded synthetic scene generators for the twelve behavior classes.

Geometries are simple constant-velocity or standing arrangements placed
well inside the proxemic distance bands, so each class is analytically
unambiguous before noise.  Noise is isotropic per-frame Gaussian jitter.
The same seed always produces the same scene; F/BF and S/Ap pairs share
one geometry stream so the two labels of a dual differ only in role
assignment or time direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cbd import CollectiveLabel
from .dataset import CollectiveAnnotation, PairAnnotation, SceneRecording
from .errors import InvalidParams
from .pid import InteractionLabel
from .trajectory import Trajectory

FOLLOW_GAP = 1.5
WALK_ABREAST = 0.8
STAND_GAP = 1.0
SPLIT_GAP = 1.0
CHASE_GAP = 2.0
CHASE_SPEED_FACTOR = 2.0
GATHER_RADIUS = 6.0
CLUSTER_RADIUS = 1.0
QUEUE_SPACING = 0.55
FAR_SPACING = 4.3


@dataclass(frozen=True)
class SynthParams:
    """Knobs shared by all generators."""

    fps: float = 10.0
    duration_frames: int = 112
    walk_speed: float = 1.2
    noise_sigma: float = 0.0
    group_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.fps <= 0 or self.duration_frames < 2 or self.walk_speed <= 0:
            raise InvalidParams("fps, duration_frames and walk_speed must be positive")
        if self.noise_sigma < 0:
            raise InvalidParams(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.group_size < 1:
            raise InvalidParams(f"group_size must be >= 1, got {self.group_size}")


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _scene_rng(p: SynthParams):
    return np.random.default_rng(np.random.SeedSequence([p.seed & 0xFFFFFFFF, 0x51CE]))


def _common_draws(rng) -> tuple:
    """(origin, heading, aux angle, spread factor), drawn in a fixed order
    so every label sees the same geometry stream for the same seed."""
    origin = rng.uniform(-5.0, 5.0, size=2)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    aux = rng.uniform(0.0, 2.0 * math.pi)
    spread = rng.uniform(0.8, 1.2)
    return origin, heading, aux, spread


def _to_scene(sequence_id, p, positions, pair_annotations=(), collective_annotations=(), rng=None):
    """positions: {track_id: (T, 2) array}; jitter applied here."""
    trajectories = []
    for tid in positions:
        pos = np.asarray(positions[tid], dtype=float)
        if rng is not None and p.noise_sigma > 0:
            pos = pos + rng.normal(0.0, p.noise_sigma, size=pos.shape)
        trajectories.append(Trajectory.from_arrays(tid, np.arange(len(pos)), pos, p.fps))
    return SceneRecording(sequence_id, p.fps, trajectories, pair_annotations, collective_annotations)


def gen_pair(label: InteractionLabel, p: SynthParams) -> SceneRecording:
    """Two-track scene realizing one interaction, annotated both ways.

    The direct ordering (A, B) carries ``label``; the reverse ordering
    carries the matching label seen from the other side (F <-> BF, the
    symmetric classes map to themselves).
    """
    rng = _scene_rng(p)
    origin, heading, aux, spread = _common_draws(rng)
    t = np.arange(p.duration_frames, dtype=float) / p.fps
    u = _unit(heading)
    v = p.walk_speed
    L = InteractionLabel

    if label in (L.Following, L.BeingFollowed):
        trail = origin + t[:, None] * (v * u)
        lead = trail + FOLLOW_GAP * u
        if label is L.Following:
            pos_a, pos_b, back_label = trail, lead, L.BeingFollowed
        else:
            pos_a, pos_b, back_label = lead, trail, L.Following
    elif label is L.WalkingTogether:
        side = spread * WALK_ABREAST * np.array([-u[1], u[0]])
        pos_a = origin + t[:, None] * (v * u)
        pos_b = pos_a + side
        back_label = L.WalkingTogether
    elif label is L.StandingPair:
        pos_a = np.tile(origin, (p.duration_frames, 1))
        pos_b = np.tile(origin + STAND_GAP * _unit(aux), (p.duration_frames, 1))
        back_label = L.StandingPair
    else:  # Splitting / Approaching share one diverging geometry
        w = _unit(aux)
        half = 0.5 * v
        pos_a = origin - (half * t)[:, None] * w
        pos_b = origin + SPLIT_GAP * w + (half * t)[:, None] * w
        if label is L.Approaching:
            pos_a, pos_b = pos_a[::-1], pos_b[::-1]
        back_label = label

    last = p.duration_frames - 1
    annotations = [
        PairAnnotation(0, last, "A", "B", label),
        PairAnnotation(0, last, "B", "A", back_label),
    ]
    return _to_scene(
        f"pair-{label.code}-{p.seed:08x}", p, {"A": pos_a, "B": pos_b}, annotations, (), rng
    )


def _polygon_offsets(n: int, radius: float, rotation: float) -> np.ndarray:
    angles = rotation + 2.0 * math.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def _line_offsets(n: int, spacing: float, direction: np.ndarray) -> np.ndarray:
    return -spacing * np.arange(n)[:, None] * direction


def _standing(offsets: np.ndarray, origin: np.ndarray, frames: int) -> dict:
    return {
        f"m{i}": np.tile(origin + off, (frames, 1)) for i, off in enumerate(offsets)
    }


def gen_collective(label: CollectiveLabel, p: SynthParams) -> SceneRecording:
    """Group scene realizing one collective behavior for the whole span."""
    n = p.group_size
    if n < 2:
        raise InvalidParams(f"{label.code} needs group_size >= 2, got {n}")
    if label is CollectiveLabel.Queuing and n < 4:
        raise InvalidParams(f"Queuing needs group_size >= 4, got {n}")
    rng = _scene_rng(p)
    origin, heading, aux, spread = _common_draws(rng)
    frames = p.duration_frames
    t = np.arange(frames, dtype=float) / p.fps
    u = _unit(heading)
    C = CollectiveLabel

    if label in (C.Gathering, C.Dismissal):
        r0, r1 = GATHER_RADIUS * spread, CLUSTER_RADIUS
        radius = r0 + (r1 - r0) * np.arange(frames) / (frames - 1)
        if label is C.Dismissal:
            radius = radius[::-1]
        rays = _polygon_offsets(n, 1.0, aux)
        positions = {
            f"m{i}": origin + radius[:, None] * ray for i, ray in enumerate(rays)
        }
    elif label is C.Talking:
        positions = _standing(_polygon_offsets(n, spread, aux), origin, frames)
    elif label is C.Walking:
        drift = t[:, None] * (p.walk_speed * u)
        offsets = _polygon_offsets(n, spread, aux)
        positions = {f"m{i}": origin + off + drift for i, off in enumerate(offsets)}
    elif label is C.Chasing:
        drift = t[:, None] * (CHASE_SPEED_FACTOR * p.walk_speed * u)
        offsets = _line_offsets(n, CHASE_GAP * spread, u)
        positions = {f"m{i}": origin + off + drift for i, off in enumerate(offsets)}
    else:  # Queuing: standing line, short synchronized forward shuffles
        offsets = _line_offsets(n, QUEUE_SPACING * spread, u)
        period, burst, hop = 56, 12, 0.25
        phase = np.arange(frames) % period
        shuffles = np.arange(frames) // period
        progress = (shuffles + np.minimum(phase, burst) / burst) * hop
        drift = progress[:, None] * u
        positions = {f"m{i}": origin + off + drift for i, off in enumerate(offsets)}

    annotation = CollectiveAnnotation(0, frames - 1, label)
    return _to_scene(
        f"coll-{label.code}-{p.seed:08x}", p, positions, (), [annotation], rng
    )


def _spawn_seed(base_seed: int, *key) -> int:
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFF, *key])
    return int(ss.generate_state(1)[0])


def make_pair_corpus(p: SynthParams, scenes_per_class: int) -> list:
    """scenes_per_class scenes per interaction label, ids made unique."""
    scenes = []
    for label in InteractionLabel:
        for i in range(scenes_per_class):
            sp = replace(p, seed=_spawn_seed(p.seed, 1, label.class_id, i))
            scenes.append(gen_pair(label, sp))
    return scenes


def make_collective_corpus(p: SynthParams, scenes_per_class: int, vary_group_size: bool = True) -> list:
    """scenes_per_class scenes per collective label; group size cycles
    group_size..group_size+2 across scenes when vary_group_size is set."""
    scenes = []
    for label in CollectiveLabel:
        for i in range(scenes_per_class):
            size = p.group_size + (i % 3 if vary_group_size else 0)
            sp = replace(p, seed=_spawn_seed(p.seed, 2, label.class_id, i), group_size=size)
            scenes.append(gen_collective(label, sp))
    return scenes


def make_contrast_corpus(
    p: SynthParams, scenes_per_class: int, pair_scenes_per_class: int = 3
) -> list:
    """Talking vs Queuing corpus where alignment is the only separator.

    Both classes are standing formations with matched speed, dispersion
    change and pairwise interaction statistics: Talking scenes are
    polygons, Queuing scenes are lines, both scaled to the same
    nearest-neighbor distance in the outermost proxemic band.  Pair
    scenes are included so the first-stage model can be trained from
    the same corpus.
    """
    scenes = make_pair_corpus(replace(p, seed=_spawn_seed(p.seed, 3)), pair_scenes_per_class)
    for label in (CollectiveLabel.Talking, CollectiveLabel.Queuing):
        for i in range(scenes_per_class):
            n = p.group_size + i % 3
            sp = replace(p, seed=_spawn_seed(p.seed, 4, label.class_id, i), group_size=n)
            rng = _scene_rng(sp)
            origin, heading, aux, spread = _common_draws(rng)
            # Matched nearest-neighbor distance, placed far enough out
            # that every pair of either class sits in the outermost
            # distance band beyond the kernel's reach of the band edge:
            # the pairwise relative-position statistics then carry no
            # class information and alignment is the only separator.
            nearest = FAR_SPACING + (spread - 0.8)
            if label is CollectiveLabel.Talking:
                radius = nearest / (2.0 * math.sin(math.pi / n))
                offsets = _polygon_offsets(n, radius, aux)
            else:
                offsets = _line_offsets(n, nearest, _unit(heading))
            positions = _standing(offsets, origin, sp.duration_frames)
            scene = _to_scene(
                f"contrast-{label.code}-{sp.seed:08x}",
                sp,
                positions,
                (),
                [CollectiveAnnotation(0, sp.duration_frames - 1, label)],
                rng,
            )
            scenes.append(scene)
    return scenes
