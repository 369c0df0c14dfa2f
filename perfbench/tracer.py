"""Run one proxrf command in-process with spans around each layer's entry points.

    python perfbench/tracer.py SPANS.json proxrf-arguments...

Times ``import proxrf.cli``, installs the wrappers listed in ENTRY_POINTS
at the names where callers look them up, runs ``proxrf.cli.main`` inside
a "cli" span, writes every span and counter to SPANS.json and exits with
the command's exit code.  Only per-call entry points are wrapped, never
per-frame helpers, so the trace stays cheap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter


class Trace:
    """Spans kept in memory as (name, start, end, parent index), plus counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.pair_centers = {}  # (id(anchor states), id(target states)) -> [a, b, back, fwd, centres]

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, clock(), parent)
                self.stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def pid_frames(self) -> tuple:
        """(pair-frame evaluations, distinct pair-frames) over all descriptor calls."""
        evaluations = distinct = 0
        for _a, _b, back, fwd, centres in self.pair_centers.values():
            frames = set()
            for c in centres:
                frames.update(range(c - back, c + fwd + 1))
            evaluations += len(centres) * (back + fwd + 1)
            distinct += len(frames)
        return evaluations, distinct


# ------------------------------------------------------------------ counters


def _count_scenes(trace, args, result):
    trace.count("dataset.scenes", len(result))


def _count_tracks(trace, args, result):
    trace.count("trajectory.tracks")


def _count_descriptor(trace, args, result):
    anchor, target, _aid, _tid, center, cfg = args[:6]
    back, fwd = cfg.window_halves
    key = (id(anchor), id(target))
    # the state dicts are kept alive here so their ids stay unique
    entry = trace.pair_centers.setdefault(key, [anchor, target, back, fwd, []])
    entry[4].append(center)
    trace.count("pid.descriptors")


def _count_training(trace, args, result):
    trace.count("forest.trees", len(result.trees))
    trace.count("forest.train_rows", len(args[0]))


def _count_votes(trace, args, result):
    trace.count("forest.vote_calls")
    trace.count("forest.vote_rows", len(result))


def _count_windows(trace, args, result):
    trace.count("cbd.group_windows")


# Every entry point the trace times: (module, attribute, span name, counter).
# Functions are wrapped in the module that calls them, because callers
# bind them by name at import; methods are wrapped on their class.
ENTRY_POINTS = (
    ("proxrf.cli", "read_corpus", "dataset.read", _count_scenes),
    ("proxrf.evaluate", "smoothed_states", "trajectory.smooth", _count_tracks),
    ("proxrf.cbd", "smoothed_states", "trajectory.smooth", _count_tracks),
    ("proxrf.evaluate", "_pid_from_states", "pid.descriptor", _count_descriptor),
    ("proxrf.cbd", "_pid_from_states", "pid.descriptor", _count_descriptor),
    ("proxrf.cli", "train", "forest.train", _count_training),
    ("proxrf.evaluate", "train", "forest.train", _count_training),
    ("proxrf.forest", "RandomForest.vote_fractions", "forest.vote", _count_votes),
    ("proxrf.cli", "serialize", "forest.serialize", None),
    ("proxrf.cli", "deserialize", "forest.deserialize", None),
    ("proxrf.cbd", "GroupWindow.build", "cbd.window_build", None),
    ("proxrf.evaluate", "compute_cbd", "cbd", _count_windows),
    ("proxrf.cbd", "mean_speed", "cbd.cues", None),
    ("proxrf.cbd", "dispersion_change", "cbd.cues", None),
    ("proxrf.cbd", "shape_ratio", "cbd.cues", None),
    ("proxrf.cli", "kfold_evaluate", "evaluate", None),
    ("proxrf.cli", "_train_stage1", "evaluate", None),
    ("proxrf.cli", "_collective_matrix", "evaluate", None),
)


def install(trace: Trace) -> list:
    """Wrap every entry point; returns the ones this tree no longer has."""
    missing = []
    for module_name, attr, name, counter in ENTRY_POINTS:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{attr}")
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(trace.wrap(name, raw.__func__, counter))
        else:
            wrapped = trace.wrap(name, raw, counter)
        setattr(owner, leaf, wrapped)
    return missing


def main(argv: list) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    start = clock()
    cli = importlib.import_module("proxrf.cli")
    import_s = clock() - start
    trace = Trace()
    missing = install(trace)
    if missing:
        print(f"perfbench tracer: entry points not found: {missing}", file=sys.stderr)
    rc = trace.wrap("cli", cli.main)(cli_argv)
    evaluations, distinct = trace.pid_frames()
    doc = {
        "import_s": import_s,
        "spans": trace.spans,
        "counts": trace.counts,
        "pid_evaluations": evaluations,
        "pid_distinct": distinct,
        "missing": missing,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
