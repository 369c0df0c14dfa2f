"""The benchmark's workloads: seeded corpora, CLI command rounds, expected rows.

Every workload is a fixed sequence of ``proxrf`` commands (one round) run
on corpora generated from the workload seed.  The expected output rows
are derived here from each scene's length and its generated annotations,
apart from the program's own window enumeration, so the checks in
``checks.py`` do not compare against a stored copy of earlier output.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

T1 = 64  # pairwise window
T2 = 64  # group window
STEP = 5  # window grid step
STRIDE = 5  # pair-descriptor stride inside group windows
GROUP_SIZE = 4  # members of every generated group

# Window parameters are passed explicitly, so the expected row counts
# below stay right if the program's defaults ever change.
COMMON_FLAGS = (
    "--threads", "1",
    "--t1", str(T1),
    "--t2", str(T2),
    "--step", str(STEP),
    "--stride", str(STRIDE),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Make-up of one generated corpus."""

    pair_scenes: int  # scenes per interaction class (two tracks each)
    group_scenes: int  # scenes per collective class (GROUP_SIZE members each)
    noise: float  # per-frame Gaussian jitter, metres
    dropout: float = 0.0  # share of interior detections dropped one at a time
    frames: int = 80  # length of every scene: 2 window centres at 72, 4 at 80, 10 at 112


@dataclass(frozen=True)
class Command:
    role: str  # "eval", "train" or "predict"
    argv: tuple  # CLI arguments; {name} fields are filled by fill()


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: dict  # size -> {corpus name -> CorpusSpec}
    commands: tuple  # Command, run in this order every round
    models: tuple  # (output file, "pair" or "group" model) written by the round
    report_kind: str  # row kind scored in the cv report.json that gives mpca, or ""


PAIRWISE_CV = Workload(
    name="pairwise-cv",
    corpora={
        "full": {"cv": CorpusSpec(30, 0, 0.4, frames=72), "heldout": CorpusSpec(2, 0, 0.4)},
        "tiny": {"cv": CorpusSpec(3, 0, 0.4, frames=72), "heldout": CorpusSpec(1, 0, 0.4)},
    },
    commands=(
        Command("eval", ("eval", "{cv}", "--task", "interaction", "--folds", "3",
                         "--out-dir", "{out}/report")),
        Command("train", ("train", "interactions", "{cv}", "--out", "{out}/pair.model")),
        Command("predict", ("predict", "{heldout}", "--interactions-model", "{out}/pair.model",
                            "--out", "{out}/predictions.csv")),
    ),
    models=(("pair.model", "pair"),),
    report_kind="pair",
)

COLLECTIVE_CV = Workload(
    name="collective-cv",
    corpora={
        "full": {
            "cv": CorpusSpec(4, 6, 0.05, frames=72),
            "heldout": CorpusSpec(0, 2, 0.05, frames=72),
        },
        "tiny": {
            "cv": CorpusSpec(1, 1, 0.05, frames=72),
            "heldout": CorpusSpec(0, 1, 0.05, frames=72),
        },
    },
    commands=(
        Command("eval", ("eval", "{cv}", "--task", "collective", "--folds", "3",
                         "--out-dir", "{out}/report")),
        # without --stage1, train collective fits and writes its own stage-one model
        Command("train", ("train", "collective", "{cv}", "--out", "{out}/group.model")),
        Command("predict", ("predict", "{heldout}",
                            "--interactions-model", "{out}/group.stage1.model",
                            "--collective-model", "{out}/group.model",
                            "--out", "{out}/predictions.csv")),
    ),
    models=(("group.stage1.model", "pair"), ("group.model", "group")),
    report_kind="group",
)

DEPLOY = Workload(
    name="deploy",
    corpora={
        "full": {
            "train": CorpusSpec(3, 5, 0.02),
            # the generator's default length: long tracks, where overlapping
            # windows evaluate each pair-frame many times over
            "heldout": CorpusSpec(1, 2, 0.02, dropout=0.05, frames=112),
        },
        "tiny": {
            "train": CorpusSpec(1, 1, 0.02),
            "heldout": CorpusSpec(1, 1, 0.02, dropout=0.05),
        },
    },
    commands=(
        Command("train", ("train", "interactions", "{train}", "--out", "{out}/pair.model")),
        Command("train", ("train", "collective", "{train}", "--stage1", "{out}/pair.model",
                          "--out", "{out}/group.model")),
        Command("predict", ("predict", "{heldout}",
                            "--interactions-model", "{out}/pair.model",
                            "--collective-model", "{out}/group.model",
                            "--out", "{out}/predictions.csv")),
    ),
    models=(("pair.model", "pair"), ("group.model", "group")),
    report_kind="",
)

WORKLOADS = {w.name: w for w in (COLLECTIVE_CV, PAIRWISE_CV, DEPLOY)}
SIZES = ("full", "tiny")


def corpus_seed(seed: int, corpus: str) -> int:
    """Generator seed of one corpus, derived from the workload seed."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(corpus.encode("utf-8"))])
    return int(ss.generate_state(1)[0])


def fill(argv: tuple, paths: dict, seed: int) -> list:
    return [a.format(**paths) for a in argv] + ["--seed", str(seed), *COMMON_FLAGS]


def _drop_detections(scene, rate: float, rng):
    """Drop single interior detections; first and last frames stay, and no
    two neighbours go, so every gap is one frame, well within max_gap."""
    from proxrf.dataset import SceneRecording
    from proxrf.trajectory import Trajectory

    tracks, dropped = [], 0
    for tr in scene.trajectories:
        keep, last_dropped = [tr.samples[0]], False
        for s in tr.samples[1:-1]:
            if not last_dropped and rng.random() < rate:
                last_dropped = True
                dropped += 1
            else:
                keep.append(s)
                last_dropped = False
        keep.append(tr.samples[-1])
        tracks.append(Trajectory(tr.track_id, keep, tr.fps))
    rec = SceneRecording(
        scene.sequence_id, scene.fps, tracks, scene.pair_annotations, scene.collective_annotations
    )
    return rec, dropped


def make_corpus(spec: CorpusSpec, seed: int) -> tuple:
    """(scenes, dropped detections) for one corpus spec."""
    from proxrf.synth import SynthParams, make_collective_corpus, make_pair_corpus

    params = SynthParams(
        seed=seed, noise_sigma=spec.noise, duration_frames=spec.frames, group_size=GROUP_SIZE
    )
    scenes = []
    if spec.pair_scenes:
        scenes += make_pair_corpus(params, spec.pair_scenes)
    if spec.group_scenes:
        scenes += make_collective_corpus(params, spec.group_scenes, vary_group_size=False)
    dropped = 0
    if spec.dropout > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD809]))
        out = []
        for scene in scenes:
            rec, n = _drop_detections(scene, spec.dropout, rng)
            out.append(rec)
            dropped += n
        scenes = out
    return scenes, dropped


def write_corpora(workload: Workload, size: str, seed: int, directory: str) -> dict:
    """Generate and write every corpus of a workload under ``directory``.

    Returns {corpus name: {"path", "seed", "scenes", "dropped", "rows"}},
    where "rows" are the corpus' expected output rows.
    """
    from proxrf.dataset import write_corpus

    out = {}
    for name, spec in workload.corpora[size].items():
        cseed = corpus_seed(seed, name)
        scenes, dropped = make_corpus(spec, cseed)
        path = os.path.join(directory, name)
        write_corpus(scenes, path)
        out[name] = {
            "path": path,
            "seed": cseed,
            "scenes": scenes,
            "dropped": dropped,
            "rows": expected_rows(scenes, spec.frames),
        }
    return out


def centers(window: int, frames: int) -> range:
    """Window centres in a scene of ``frames`` frames: the first is
    window/2 - 1 and the window [c - window/2 + 1, c + window/2] must end
    inside the scene."""
    return range(window // 2 - 1, frames - window // 2, STEP)


def _check_spans(scene, annotation, frames):
    if (annotation.start, annotation.end) != (0, frames - 1):
        raise ValueError(f"{scene.sequence_id}: annotation does not span the scene")


def expected_rows(scenes, frames: int) -> dict:
    """{(sequence, centre, kind, ids): true label code} for every window.

    Generated annotations span each whole scene and every track covers
    every frame (dropped detections are single-frame gaps), so each pair
    annotation yields one row per pairwise centre and each collective
    annotation one row per group centre over all of the scene's tracks.
    """
    rows = {}
    for scene in scenes:
        for a in scene.pair_annotations:
            _check_spans(scene, a, frames)
            for c in centers(T1, frames):
                rows[(scene.sequence_id, c, "pair", f"{a.anchor_id}|{a.target_id}")] = a.label.code
        members = "|".join(sorted(t.track_id for t in scene.trajectories))
        for a in scene.collective_annotations:
            _check_spans(scene, a, frames)
            for c in centers(T2, frames):
                rows[(scene.sequence_id, c, "group", members)] = a.label.code
    return rows

