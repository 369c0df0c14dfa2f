"""Train both stages from scratch and classify a fresh group scene.

Stage 1 learns the six pairwise interactions from window descriptors;
stage 2 summarizes each group window as the histogram of stage-1
predictions plus three motion cues and learns the collective label.
Everything goes through ``Pipeline``, the path the CLI takes.
"""

from proxrf.cbd import CollectiveLabel
from proxrf.evaluate import CUE_NAMES, Pipeline, PipelineConfig, cue_columns
from proxrf.forest import ForestConfig
from proxrf.pid import InteractionLabel
from proxrf.synth import SynthParams, gen_collective, make_pair_corpus

CFG = PipelineConfig(forest=ForestConfig(n_trees=40), forest2=ForestConfig(n_trees=60))
COLS = cue_columns(CUE_NAMES)


def train_stage1():
    pipe = Pipeline(make_pair_corpus(SynthParams(seed=12, noise_sigma=0.02), 3), CFG)
    model = pipe.train_stage1(pipe.seq_ids, seed=1)
    print(f"stage 1: {len(pipe.pair_matrix(pipe.seq_ids)[0])} pairwise windows"
          f" -> {len(model.trees)} trees")
    return model


def train_stage2(stage1):
    scenes = [gen_collective(label, SynthParams(seed=100 + k, noise_sigma=0.02))
              for label in CollectiveLabel for k in range(3)]
    pipe = Pipeline(scenes, CFG)
    # one stage-1 vote over every pair-centre of a scene's windows, one
    # interaction histogram per window, then the motion cues
    _, x, labels = pipe.group_matrix(stage1, pipe.seq_ids)
    model = pipe.train_stage2(x[:, COLS], labels, seed=2)
    print(f"stage 2: {len(labels)} group windows -> {len(model.trees)} trees")
    return model


def main():
    stage1 = train_stage1()
    stage2 = train_stage2(stage1)

    probe = gen_collective(CollectiveLabel.Gathering,
                           SynthParams(seed=999, noise_sigma=0.02))
    rows, x, _ = Pipeline([probe], CFG).group_matrix(stage1, [probe.sequence_id])
    desc = x[[center for _, center, _ in rows].index(56)]
    probs = stage2.vote_fractions(desc[None, COLS])[0]

    print("\nprobe window at frame 56 (held-out seed, true label Gathering):")
    hist = ", ".join(f"{l.code} {v:.2f}" for l, v in zip(InteractionLabel, desc[:6]))
    print(f"  interaction histogram: {hist}")
    print(f"  mean speed        {desc[6]:+.3f} m/s")
    print(f"  dispersion change {desc[7]:+.3f} m/s")
    print(f"  shape ratio       {desc[8]:.2f}")
    votes = ", ".join(f"{name} {p:.2f}" for name, p in zip(stage2.class_names, probs)
                      if p > 0)
    print(f"  predicted: {stage2.class_names[probs.argmax()]}  (votes: {votes})")
    print("\nShrinking dispersion with everyone heading inward is the")
    print("signature the second stage picks up for a gathering group.")


if __name__ == "__main__":
    main()
