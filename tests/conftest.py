import math

import numpy as np
import pytest

from proxrf.trajectory import TimedPosition, TrackStates, Trajectory


def make_traj(track_id, xy, fps=10.0, first_frame=0, frames=None):
    """Trajectory from an (n, 2) array, frames defaulting to a range."""
    xy = np.asarray(xy, dtype=float)
    if frames is None:
        frames = range(first_frame, first_frame + len(xy))
    return Trajectory(
        track_id,
        (TimedPosition(int(f), float(x), float(y)) for f, (x, y) in zip(frames, xy)),
        fps,
    )


def straight_traj(track_id, speed, heading, n_frames, fps=10.0, origin=(0.0, 0.0),
                  first_frame=0):
    t = np.arange(n_frames) / fps
    u = np.array([math.cos(heading), math.sin(heading)])
    xy = np.asarray(origin, dtype=float) + t[:, None] * (speed * u)
    return make_traj(track_id, xy, fps=fps, first_frame=first_frame)


def track_states(xy_by_frame, speed=0.0):
    """TrackStates over exact {frame: (x, y)} positions, bypassing
    smoothing: velocity (speed, 0), constant speed, no heading."""
    frames = sorted(xy_by_frame)
    n = len(frames)
    return TrackStates(
        np.array(frames, dtype=np.int64),
        np.array([xy_by_frame[f] for f in frames], dtype=float).reshape(n, 2),
        np.column_stack([np.full(n, float(speed)), np.zeros(n)]),
        np.full(n, float(speed)),
        np.full(n, np.nan),
    )


@pytest.fixture(scope="session")
def tiny_pair_corpus():
    from proxrf.synth import SynthParams, make_pair_corpus

    p = SynthParams(duration_frames=112, noise_sigma=0.02, seed=3)
    return make_pair_corpus(p, scenes_per_class=2)


@pytest.fixture(scope="session")
def tiny_stage1(tiny_pair_corpus):
    """Small but competent first-stage forest, shared across test files."""
    from proxrf.evaluate import Pipeline, PipelineConfig
    from proxrf.forest import ForestConfig

    pipe = Pipeline(tiny_pair_corpus, PipelineConfig(forest=ForestConfig(n_trees=15)))
    return pipe.train_stage1(pipe.seq_ids, seed=1234)
