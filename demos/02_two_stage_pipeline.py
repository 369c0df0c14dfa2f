"""Train both stages from scratch and classify a fresh group scene.

Stage 1 learns the six pairwise interactions from window descriptors;
stage 2 summarizes each group window as the histogram of stage-1
predictions plus three motion cues and learns the collective label.
Everything here uses the public library API only.
"""

import numpy as np

from proxrf.cbd import (
    CollectiveLabel,
    GroupWindow,
    classify_collective,
    compute_cbd,
    pair_predictions,
)
from proxrf.dataset import windows
from proxrf.forest import ForestConfig, train
from proxrf.pid import InteractionLabel, PidConfig, compute_pid
from proxrf.synth import SynthParams, gen_collective, make_pair_corpus
from proxrf.trajectory import SmoothingConfig, smoothed_states

CFG = PidConfig()
SMOOTH = SmoothingConfig()


def train_stage1():
    x, y = [], []
    for scene in make_pair_corpus(SynthParams(seed=12, noise_sigma=0.02), 3):
        for center, (aid, tid), label in windows(scene, CFG.t1, 5, "pairs"):
            x.append(compute_pid(scene.track(aid), scene.track(tid),
                                 center, CFG, SMOOTH).vector())
            y.append(label.class_id)
    model = train(np.array(x), np.array(y), ForestConfig(n_trees=40, seed=1),
                  class_names=tuple(l.code for l in InteractionLabel))
    print(f"stage 1: {len(x)} pairwise windows -> {len(model.trees)} trees")
    return model


def group_descriptors(scene, stage1):
    states = {t.track_id: smoothed_states(t, SMOOTH) for t in scene.trajectories}
    placed = [(GroupWindow.build([scene.track(i) for i in ids], center, 64,
                                 SMOOTH, states=states), label)
              for center, ids, label in windows(scene, 64, 5, "group")]
    # one stage-1 vote over every pair-centre of the scene's windows, one
    # interaction histogram per window
    hists = pair_predictions([win for win, _ in placed], stage1, CFG)
    for (win, label), hist in zip(placed, hists):
        yield compute_cbd(win, hist), label


def train_stage2(stage1):
    x, y = [], []
    for label in CollectiveLabel:
        for k in range(3):
            scene = gen_collective(label, SynthParams(seed=100 + k, noise_sigma=0.02))
            for desc, lab in group_descriptors(scene, stage1):
                x.append(desc.vector())
                y.append(lab.class_id)
    model = train(np.array(x), np.array(y), ForestConfig(n_trees=60, seed=2),
                  class_names=tuple(l.code for l in CollectiveLabel))
    print(f"stage 2: {len(x)} group windows -> {len(model.trees)} trees")
    return model


def main():
    stage1 = train_stage1()
    stage2 = train_stage2(stage1)

    probe = gen_collective(CollectiveLabel.Gathering,
                           SynthParams(seed=999, noise_sigma=0.02))
    win = GroupWindow.build(probe.trajectories, 56, 64, SMOOTH)
    desc = compute_cbd(win, *pair_predictions([win], stage1, CFG))
    label, probs = classify_collective(desc, stage2)

    print("\nprobe scene (held-out seed, true label Gathering):")
    hist = ", ".join(f"{l.code} {v:.2f}"
                     for l, v in zip(InteractionLabel, desc.interaction_hist))
    print(f"  interaction histogram: {hist}")
    print(f"  mean speed        {desc.mean_speed:+.3f} m/s")
    print(f"  dispersion change {desc.dispersion_change:+.3f} m/s")
    print(f"  shape ratio       {desc.shape_ratio:.2f}")
    votes = ", ".join(f"{l.code} {p:.2f}" for l, p in zip(CollectiveLabel, probs)
                      if p > 0)
    print(f"  predicted: {label.code}  (votes: {votes})")
    print("\nShrinking dispersion with everyone heading inward is the")
    print("signature the second stage picks up for a gathering group.")


if __name__ == "__main__":
    main()
