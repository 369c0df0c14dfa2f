"""Anatomy of the pairwise descriptor on a follow scenario.

The histogram lives in the anchor's body frame: four proxemic distance
bands crossed with four angular sectors.  Swapping anchor and target
moves the mass from the front sector to the back sector, which is what
lets the classifier tell "following" from "being followed".
"""

from proxrf.evaluate import Pipeline, PipelineConfig
from proxrf.pid import InteractionLabel
from proxrf.synth import SynthParams, gen_pair

BANDS = ("intimate", "personal", "social", "public")
SECTORS = ("front", "left", "back", "right")


def show(vec, title):
    hist = vec[:16].reshape(4, 4)
    print(title)
    print(" " * 10 + "".join(f"{s:>9}" for s in SECTORS))
    for name, row in zip(BANDS, hist):
        print(f"{name:>10}" + "".join(f"{v:9.3f}" for v in row))
    print(f"speed pyramid: whole {vec[16]:+.3f}, "
          f"halves {vec[17]:+.3f} / {vec[18]:+.3f}")
    print()


def main():
    scene = gen_pair(InteractionLabel.Following, SynthParams(seed=2))
    # one row per annotated pair window, both ways round
    rows, x, _ = Pipeline([scene], PipelineConfig()).pair_matrix([scene.sequence_id])
    vec = {(ids, center): v for (_, center, ids), v in zip(rows, x)}

    show(vec[("A", "B"), 56], "anchor A, target B (A walks behind B):")
    show(vec[("B", "A"), 56], "anchor B, target A (same scene, roles swapped):")

    print("The follower sees its target in the front sector; the leader")
    print("sees the same geometry in the back sector.  A near-zero")
    print("speed pyramid says the gap between them is not changing.")


if __name__ == "__main__":
    main()
