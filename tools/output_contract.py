"""Check that two proxrf source trees write byte-identical outputs.

    python3 tools/output_contract.py PARENT_SRC CHANGE_SRC

Each argument is a source tree root or its ``src`` directory.  Both trees
run the same command set, each in its own scratch directory: a synthetic
corpus, the interaction and collective models (with and without the
shape cue, and the stage-one sidecar, plus forests grown with one
feature per split, a depth cap, larger nodes or several worker
threads), pid extracts (one with a zero speed threshold, so that no
heading is drawn) and cbd extracts, predictions, evaluations and
cross-corpus reports.  A second, longer synthetic corpus gets an
interaction model grown by two worker threads, pid extracts under other
descriptor settings (hard assignment, kernel grids of 1 and 4 samples
with a wider radial kernel and the variance denominator, a speed
threshold that leaves most headings random, and short windows far
apart) and a cbd extract with a pair descriptor at every frame of each
group window.  A copy of it whose collective scenes also carry pair
labels (see ``add_pairs``) gets predictions from both models and a
collective evaluation, both with a pair descriptor at every frame of
each group window; the predictions use a collective model trained at
that stride.  A copy of the first corpus joined by 25 fps scenes, with one scene
renamed so that its file sorts before its sequence id (see
``mix_fps``), gets both kinds of model, evaluation and extract and
predictions from both models.  Another copy loses track samples (see
``punch_gaps``), which gives tracks with gaps and groups with uneven
member spans; a collective model, pid and cbd extracts, predictions and
a collective evaluation run on it too, and pid and cbd extracts with a
max_gap that fills its 8-frame holes, the cbd extract with an
interaction model trained under that max_gap.  The gapped corpus is then
rewritten as an ``ncad-like`` external tree (see ``to_ncad``: shuffled
image-coordinate rows and a perspective homography), which ``adapt``
turns back into a canonical corpus that gets a pid extract, so the
external-track parser is covered as well.  Two copies of that tree are
adapted too, each followed by a pid extract: one whose track rows are
mostly boxes (see ``to_boxes``), adapted with the ``bottom-center`` and
the ``box-center`` foot point, and a ``behave-like`` one whose group
files also hold a ``Fighting`` range (see ``to_behave``).  Last, a copy
of the first corpus whose track files carry comment and blank lines
among their rows (see ``to_commented``) gets a pid extract and
predictions from both models, so plain, commented and box-row track
files are all read.  Every output file and every command's standard
output are then compared byte for byte.  Exit status: 0 when everything
matches, 1 on any difference, 2 when a command fails in either tree.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile

SEED = ["--seed", "7"]
NO_SHAPE = ["--include-shape", "false"]
COMMANDS = (
    ["synth", "--set", "all", "--scenes-per-class", "2", "--out", "corpus"] + SEED,
    ["train", "interactions", "corpus", "--out", "models/inter.json"] + SEED,
    ["train", "collective", "corpus", "--out", "models/coll.json"] + SEED,
    ["train", "collective", "corpus", "--stage1", "models/inter.json",
     "--out", "models/coll-noshape.json"] + NO_SHAPE + SEED,
    # forests grown under other limits: one feature per split (constant
    # draws take the full-scan fallback), a depth cap and larger nodes
    ["train", "interactions", "corpus", "--interaction-features-per-split", "1",
     "--out", "models/inter-fps1.json"] + SEED,
    ["train", "interactions", "corpus", "--interaction-max-depth", "3",
     "--interaction-min-samples-split", "6", "--out", "models/inter-depth3.json"] + SEED,
    ["train", "collective", "corpus", "--stage1", "models/inter.json",
     "--collective-features-per-split", "1", "--out", "models/coll-fps1.json"] + SEED,
    # a collective model for the stride-1 predictions on "mixed" below
    ["train", "collective", "corpus", "--stage1", "models/coll.stage1.json", "--stride", "1",
     "--out", "models/coll-stride1.json"] + SEED,
    ["extract", "corpus", "--kind", "pid", "--out", "extract/pid.csv"] + SEED,
    # no anchor is slower than a zero threshold, so no heading is drawn:
    # these descriptors do not depend on the random draws at all
    ["extract", "corpus", "--kind", "pid", "--speed-threshold", "0",
     "--out", "extract/pid-no-slow.csv"] + SEED,
    ["extract", "corpus", "--kind", "cbd", "--model", "models/inter.json",
     "--out", "extract/cbd.csv"] + SEED,
    ["extract", "corpus", "--kind", "cbd", "--model", "models/inter.json",
     "--out", "extract/cbd-noshape.csv"] + NO_SHAPE + SEED,
    ["predict", "corpus", "--interactions-model", "models/inter.json",
     "--out", "predict/pairs.csv"] + SEED,
    ["predict", "corpus", "--interactions-model", "models/coll.stage1.json",
     "--collective-model", "models/coll.json", "--out", "predict/both.csv"] + SEED,
    ["predict", "corpus", "--interactions-model", "models/inter.json",
     "--collective-model", "models/coll-noshape.json",
     "--out", "predict/noshape.csv"] + NO_SHAPE + SEED,
    ["eval", "corpus", "--task", "interaction", "--folds", "3",
     "--out-dir", "eval/interaction"] + SEED,
    ["eval", "corpus", "--task", "interaction", "--folds", "3",
     "--interaction-features-per-split", "1", "--out-dir", "eval/interaction-fps1"] + SEED,
    ["eval", "corpus", "--task", "collective", "--folds", "3",
     "--out-dir", "eval/collective"] + SEED,
    ["eval", "corpus", "--task", "collective", "--folds", "3",
     "--out-dir", "eval/collective-noshape"] + NO_SHAPE + SEED,
    # three workers, each growing its own range of trees in lockstep
    ["eval", "corpus", "--task", "collective", "--folds", "3", "--threads", "3",
     "--out-dir", "eval/collective-t3"] + SEED,
    ["cross", "corpus", "corpus", "--out-dir", "cross/full"] + SEED,
    ["cross", "corpus", "corpus", "--out-dir", "cross/noshape"] + NO_SHAPE + SEED,
    ["synth", "--set", "all", "--scenes-per-class", "2", "--duration-frames", "160",
     "--out", "long"] + SEED,
    # larger training sets, so split-search passes mix large and small
    # nodes, grown by two workers
    ["train", "interactions", "long", "--threads", "2",
     "--out", "models/long-inter-t2.json"] + SEED,
    ["extract", "long", "--kind", "pid", "--assignment", "hard",
     "--out", "extract/long-pid-hard.csv"] + SEED,
    ["extract", "long", "--kind", "pid", "--grid-samples", "1",
     "--out", "extract/long-pid-grid1.csv"] + SEED,
    ["extract", "long", "--kind", "pid", "--grid-samples", "4", "--sigma-rho", "0.6",
     "--variance-denominator", "--out", "extract/long-pid-grid4.csv"] + SEED,
    # most track-frames (62 %, against 46 % at the default) fall below this
    # threshold, so most headings are random draws
    ["extract", "long", "--kind", "pid", "--speed-threshold", "0.8",
     "--out", "extract/long-pid-slow.csv"] + SEED,
    # windows 40 frames apart and 16 long: each pair's frames have holes
    ["extract", "long", "--kind", "pid", "--t1", "16", "--step", "40",
     "--out", "extract/long-pid-t16-step40.csv"] + SEED,
    # a pair descriptor at every frame of each group window: many pairs
    # and heavily overlapping windows described together
    ["extract", "long", "--kind", "cbd", "--model", "models/inter.json", "--stride", "1",
     "--out", "extract/long-cbd-stride1.csv"] + SEED,
    ["synth", "--set", "all", "--scenes-per-class", "1", "--fps", "25", "--out", "fast"] + SEED,
)
# run once punch_gaps has derived "gapped" from "long"
GAPPED_COMMANDS = (
    ["train", "collective", "gapped", "--out", "models/gapped.json"] + SEED,
    ["extract", "gapped", "--kind", "pid", "--out", "extract/gapped-pid.csv"] + SEED,
    ["extract", "gapped", "--kind", "cbd", "--model", "models/gapped.stage1.json",
     "--out", "extract/gapped-cbd.csv"] + SEED,
    ["predict", "gapped", "--interactions-model", "models/gapped.stage1.json",
     "--collective-model", "models/gapped.json", "--out", "predict/gapped.csv"] + SEED,
    ["eval", "gapped", "--task", "collective", "--folds", "3",
     "--out-dir", "eval/gapped"] + SEED,
    # a max_gap above the 8-frame holes: they are filled, not split
    ["extract", "gapped", "--kind", "pid", "--max-gap", "10",
     "--out", "extract/gapped-pid-gap10.csv"] + SEED,
    ["train", "interactions", "gapped", "--max-gap", "10",
     "--out", "models/gapped-inter-gap10.json"] + SEED,
    ["extract", "gapped", "--kind", "cbd", "--model", "models/gapped-inter-gap10.json",
     "--max-gap", "10", "--out", "extract/gapped-cbd-gap10.csv"] + SEED,
)
# run once add_pairs has derived "mixed" from "long": at stride 1 the
# group windows' pair centers include every pair window's center
MIXED_COMMANDS = (
    ["predict", "mixed", "--interactions-model", "models/coll.stage1.json",
     "--collective-model", "models/coll-stride1.json", "--stride", "1",
     "--out", "predict/mixed.csv"] + SEED,
    ["eval", "mixed", "--task", "collective", "--folds", "3", "--stride", "1",
     "--out-dir", "eval/mixed"] + SEED,
)
# run once mix_fps has derived "mixfps" from "corpus" and "fast": both frame
# rates in one corpus, and sequence ids whose order is not file name order
MIXFPS_COMMANDS = (
    ["train", "interactions", "mixfps", "--out", "models/mixfps-inter.json"] + SEED,
    ["train", "collective", "mixfps", "--out", "models/mixfps-coll.json"] + SEED,
    ["eval", "mixfps", "--task", "interaction", "--folds", "3",
     "--out-dir", "eval/mixfps-interaction"] + SEED,
    ["eval", "mixfps", "--task", "collective", "--folds", "3",
     "--out-dir", "eval/mixfps-collective"] + SEED,
    ["predict", "mixfps", "--interactions-model", "models/mixfps-coll.stage1.json",
     "--collective-model", "models/mixfps-coll.json", "--out", "predict/mixfps.csv"] + SEED,
    ["extract", "mixfps", "--kind", "pid", "--out", "extract/mixfps-pid.csv"] + SEED,
    ["extract", "mixfps", "--kind", "cbd", "--model", "models/mixfps-coll.stage1.json",
     "--out", "extract/mixfps-cbd.csv"] + SEED,
)
# run once to_ncad has derived "ncad" from "gapped", and to_boxes and
# to_behave "boxes" and "behave" from "ncad"
ADAPT_COMMANDS = (
    ["adapt", "ncad", "--layout", "ncad-like", "--out", "adapted"],
    ["extract", "adapted", "--kind", "pid", "--out", "extract/adapted-pid.csv"] + SEED,
    ["adapt", "boxes", "--layout", "ncad-like", "--foot-point", "bottom-center",
     "--out", "adapted-bottom"],
    ["extract", "adapted-bottom", "--kind", "pid", "--out", "extract/adapted-bottom-pid.csv"]
    + SEED,
    ["adapt", "boxes", "--layout", "ncad-like", "--foot-point", "box-center",
     "--out", "adapted-center"],
    ["extract", "adapted-center", "--kind", "pid", "--out", "extract/adapted-center-pid.csv"]
    + SEED,
    ["adapt", "behave", "--layout", "behave-like", "--out", "adapted-behave"],
    ["extract", "adapted-behave", "--kind", "pid", "--out", "extract/adapted-behave-pid.csv"]
    + SEED,
)
# run once to_commented has derived "commented" from "corpus": track files
# with comment and blank lines among their rows
COMMENTED_COMMANDS = (
    ["extract", "commented", "--kind", "pid", "--out", "extract/commented-pid.csv"] + SEED,
    ["predict", "commented", "--interactions-model", "models/coll.stage1.json",
     "--collective-model", "models/coll.json", "--out", "predict/commented.csv"] + SEED,
)
ALL_COMMANDS = (COMMANDS + MIXED_COMMANDS + MIXFPS_COMMANDS + GAPPED_COMMANDS + ADAPT_COMMANDS
                + COMMENTED_COMMANDS)
# image-to-ground map with a perspective row, so every coordinate changes
HOMOGRAPHY = "0.9 -0.1 2.0\n0.05 1.1 -1.0\n0.001 0.002 1.0\n"
RUN_CLI = "import sys; from proxrf.cli import main; sys.exit(main(sys.argv[1:]))"


def source_dir(path: str) -> str:
    """The directory holding the ``proxrf`` package."""
    for candidate in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(candidate, "proxrf", "__init__.py")):
            return os.path.abspath(candidate)
    sys.exit(f"no proxrf package under {path!r}")


def punch_gaps(corpus: str, out: str) -> None:
    """Copy of ``corpus`` whose tracks lose samples by a fixed rule.

    In each .trj file, taking the tracks in id order and each track's
    samples in file order (synth writes them by frame, without holes),
    every third track loses 8 frames from its middle (a hole beyond the
    default max_gap), the next one its first quarter (a late start), and
    the next every 20th sample (single drops).  Other files are copied
    unchanged.
    """
    os.mkdir(out)
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            lines = fh.readlines()
        if name.endswith(".trj"):
            rows = {}
            for line in lines:
                if not line.startswith("#"):
                    rows.setdefault(line.split(",")[1], []).append(line)
            drop = set()
            for k, track in enumerate(sorted(rows)):
                samples = rows[track]
                n = len(samples)
                if k % 3 == 0:
                    drop.update(samples[n // 2 : n // 2 + 8])
                elif k % 3 == 1:
                    drop.update(samples[: n // 4])
                else:
                    drop.update(samples[10::20])
            lines = [line for line in lines if line not in drop]
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def add_pairs(corpus: str, out: str) -> None:
    """Copy of ``corpus`` in which each collective scene (a .cba file)
    also carries pair labels: its first two tracks in id order walk
    together ("WT"), each way, over the range of the .cba file's first
    line.  Other files are copied unchanged.
    """
    os.mkdir(out)
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        stem, ext = os.path.splitext(name)
        if ext == ".cba":
            start, end, _ = text.splitlines()[0].split(",")
            with open(os.path.join(corpus, stem + ".trj"), encoding="utf-8") as fh:
                ids = sorted({line.split(",")[1] for line in fh if not line.startswith("#")})
            with open(os.path.join(out, stem + ".pia"), "w", encoding="utf-8") as fh:
                fh.write(f"{start},{end},{ids[0]},{ids[1]},WT\n"
                         f"{start},{end},{ids[1]},{ids[0]},WT\n")


def mix_fps(corpus: str, fast: str, out: str) -> None:
    """Copy of ``corpus`` with the scenes of ``fast`` (another frame rate)
    added under the prefix ``f25-``.  The scene second in file name
    order is renamed after the first, with a ``.b`` suffix: its file
    now sorts first, but its sequence id second."""
    os.mkdir(out)
    for directory, prefix in ((corpus, ""), (fast, "f25-")):
        for name in os.listdir(directory):
            shutil.copy(os.path.join(directory, name), os.path.join(out, prefix + name))
    first, second = sorted({os.path.splitext(name)[0] for name in os.listdir(out)})[:2]
    for name in sorted(os.listdir(out)):
        stem, ext = os.path.splitext(name)
        if stem == second:
            os.rename(os.path.join(out, name), os.path.join(out, first + ".b" + ext))


def to_ncad(corpus: str, out: str) -> None:
    """``ncad-like`` tree of ``corpus``: one directory per scene holding
    ``tracks.txt`` (the .trj header, then its data rows in a shuffled
    order fixed by the scene name), ``H.hom`` (HOMOGRAPHY), and the .pia
    and .cba files as ``pairs.txt`` and ``groups.txt``.  The rows' x, y
    are read as image points; adapt maps them through the homography.
    """
    os.mkdir(out)
    for name in sorted(os.listdir(corpus)):
        stem, ext = os.path.splitext(name)
        scene = os.path.join(out, stem)
        os.makedirs(scene, exist_ok=True)
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            lines = fh.readlines()
        if ext == ".trj":
            header = [line for line in lines if line.startswith("#")]
            rows = [line for line in lines if not line.startswith("#")]
            random.Random(stem).shuffle(rows)
            lines = header + rows
            with open(os.path.join(scene, "H.hom"), "w", encoding="utf-8") as fh:
                fh.write(HOMOGRAPHY)
        target = {".trj": "tracks.txt", ".pia": "pairs.txt", ".cba": "groups.txt"}[ext]
        with open(os.path.join(scene, target), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def to_boxes(tree: str, out: str) -> None:
    """Copy of the external ``tree`` whose track rows become boxes
    ``frame,track_id,x1,y1,x2,y2``.  A row's point is its box's bottom
    center; the box's width and height are drawn from a generator seeded
    by the scene name, and its two y corners come in either order.  Every
    fifth line of a track file stays as it is, so point rows remain.
    """
    shutil.copytree(tree, out)
    for scene in sorted(os.listdir(out)):
        path = os.path.join(out, scene, "tracks.txt")
        rng = random.Random(scene)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        for k, line in enumerate(lines):
            if k % 5 and not line.startswith("#"):
                frame, track, u, v = line.rstrip("\n").split(",")
                u, v = float(u), float(v)
                half, h = rng.uniform(0.1, 0.4), rng.uniform(1.0, 2.0)
                y1, y2 = (v, v - h) if k % 2 else (v - h, v)
                lines[k] = f"{frame},{track},{u - half!r},{y1!r},{u + half!r},{y2!r}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def to_behave(tree: str, out: str) -> None:
    """Copy of the external ``tree`` in which each ``groups.txt`` also
    labels its first line's range ``Fighting``, which the ``behave-like``
    layout drops."""
    shutil.copytree(tree, out)
    for scene in sorted(os.listdir(out)):
        path = os.path.join(out, scene, "groups.txt")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                start, end, _ = fh.readline().split(",")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{start},{end},Fighting\n")


def to_commented(corpus: str, out: str) -> None:
    """Copy of ``corpus`` whose .trj files carry comment and blank lines:
    a comment above the `# fps=` header and below it, then a comment
    after every 7th row and a blank line after every 11th, and two blank
    lines at the end.  Other files are copied unchanged."""
    os.mkdir(out)
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            lines = fh.readlines()
        if name.endswith(".trj"):
            header, rows = lines[0], lines[1:]
            lines = ["# commented copy\n", header, "# frame,track_id,x,y\n"]
            for k, row in enumerate(rows, start=1):
                lines.append(row)
                if k % 7 == 0:
                    lines.append(f"# row {k}\n")
                if k % 11 == 0:
                    lines.append("\n")
            lines.append("\n\n")
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def run_tree(src: str, work: str) -> list:
    """Standard output of each command, run in ``work``."""
    env = dict(os.environ, PYTHONPATH=src)
    outputs = []
    for argv in ALL_COMMANDS:
        if argv is MIXED_COMMANDS[0]:
            add_pairs(os.path.join(work, "long"), os.path.join(work, "mixed"))
        if argv is MIXFPS_COMMANDS[0]:
            mix_fps(os.path.join(work, "corpus"), os.path.join(work, "fast"),
                    os.path.join(work, "mixfps"))
        if argv is GAPPED_COMMANDS[0]:
            punch_gaps(os.path.join(work, "long"), os.path.join(work, "gapped"))
        if argv is ADAPT_COMMANDS[0]:
            to_ncad(os.path.join(work, "gapped"), os.path.join(work, "ncad"))
            to_boxes(os.path.join(work, "ncad"), os.path.join(work, "boxes"))
            to_behave(os.path.join(work, "ncad"), os.path.join(work, "behave"))
        if argv is COMMENTED_COMMANDS[0]:
            to_commented(os.path.join(work, "corpus"), os.path.join(work, "commented"))
        proc = subprocess.run([sys.executable, "-c", RUN_CLI] + argv, cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{src}: `proxrf {' '.join(argv)}` exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            sys.exit(2)
        outputs.append(proc.stdout)
    return outputs


def output_files(work: str) -> dict:
    """Relative path -> bytes of every file under ``work``."""
    files = {}
    for root, _, names in os.walk(work):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return files


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (source_dir(p) for p in argv)
    with tempfile.TemporaryDirectory() as scratch:
        outcomes = []
        for name, src in (("parent", parent), ("change", change)):
            work = os.path.join(scratch, name)
            os.mkdir(work)
            outcomes.append((run_tree(src, work), output_files(work)))
    (runs_a, files_a), (runs_b, files_b) = outcomes
    differences = [
        f"stdout of `proxrf {' '.join(argv)}`"
        for argv, a, b in zip(ALL_COMMANDS, runs_a, runs_b) if a != b
    ]
    for path in sorted(set(files_a) | set(files_b)):
        if files_a.get(path) != files_b.get(path):
            differences.append(path)
    for what in differences:
        print(f"DIFFERS {what}")
    print(f"{len(files_a)} files and {len(ALL_COMMANDS)} commands compared, "
          f"{len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
