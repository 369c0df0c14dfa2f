"""Command-line front end: synth, adapt, extract, train, eval, cross, predict.

Every command exits 0 on success; failures print one machine-parsable
line ``ERROR <CODE>: <detail>`` to stderr, where CODE is the error class
name, and exit with a class-specific code: configuration problems 2,
model/shape problems 3, data-format problems 4, label-coverage problems
5, anything else domain-specific 6.  Outputs are written atomically and
are byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
import warnings
import zlib
from dataclasses import fields, is_dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .cbd import CollectiveLabel
from .config import SETTINGS, load_run_config
from .dataset import (
    LAYOUTS,
    FOOT_POINTS,
    FoldSplit,
    adapt_external,
    atomic_write,
    read_corpus,
    write_corpus,
)
from .errors import (
    AnnotationConflict,
    ConfigError,
    CorruptModel,
    InvalidConfig,
    InvalidParams,
    LabelCoverageError,
    ModelShapeMismatch,
    ParseError,
    ProxrfError,
    ReferentialError,
    ShapeMismatch,
)
from .evaluate import (
    EvalReport,
    Pipeline,
    PipelineConfig,
    cross_dataset,
    cue_columns,
    fold_seeds,
    kfold_evaluate,
)
from .forest import RandomForest, deserialize, serialize
from .pid import DESCRIPTOR_VERSION, InteractionLabel
from .synth import (
    SynthParams,
    make_collective_corpus,
    make_contrast_corpus,
    make_pair_corpus,
)

# A command is one process.  The interpreter's last collection at exit
# walks every object still alive, most of them numpy's and proxrf's
# modules, only to free memory the OS reclaims anyway; freezing them
# first skips that walk, about 40 ms per command on a 2-CPU host.
atexit.register(gc.freeze)

_EXIT_CODES = (
    ((ModelShapeMismatch, ShapeMismatch, CorruptModel), 3),
    ((ParseError, AnnotationConflict, ReferentialError), 4),
    ((LabelCoverageError,), 5),
    ((ConfigError, InvalidConfig, InvalidParams), 2),
)


def _exit_code(exc: ProxrfError) -> int:
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return 6


def _fmt(x: float) -> str:
    return repr(float(x))


def _makedirs_for(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _fields(prefix: str, config) -> Iterator:
    """(dotted name, value) of every field of a config dataclass, with the
    fields of nested dataclasses named below theirs."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _fields(f"{prefix}{f.name}.", value)
        else:
            yield prefix + f.name, value


def _provenance(cfg: PipelineConfig, stage: str, stage1_blob: bytes = b"") -> dict:
    """What a ``stage`` model's training rows depended on besides the
    corpus: the descriptor version and config, smoothing, max_gap and
    seed; a collective model also records t2, stride, include_shape and
    the CRC-32 of the bytes of the stage-one model file whose votes made
    its rows, as 8 hex digits: it catches a model used with another
    stage-one file by mistake, not a forged one."""
    prov = {"descriptor_version": DESCRIPTOR_VERSION, "max_gap": cfg.max_gap, "seed": cfg.seed}
    prov.update(_fields("pid.", cfg.pid))
    prov.update(_fields("smoothing.", cfg.smoothing))
    if stage == "collective":
        prov.update(t2=cfg.t2, stride=cfg.stride, include_shape=cfg.include_shape,
                    stage1_crc32=f"{zlib.crc32(stage1_blob):08x}")
    return prov


def _read_model(path: str, stage: str, cfg: PipelineConfig, stage1_blob: bytes = b"") -> tuple:
    """The ``stage`` ("interaction" or "collective") model at ``path``,
    and the file's bytes.

    ModelShapeMismatch unless it takes the configured descriptor of that
    stage, every class name is a label code of that stage and its
    provenance equals ``_provenance(cfg, stage, stage1_blob)``: a
    collective model needs the bytes of the stage-one model it is used
    with."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from None
    model = deserialize(blob)
    if stage == "interaction":
        want, labels = cfg.pid.descriptor_length, InteractionLabel
    else:
        want, labels = len(cue_columns(cfg.cues)), CollectiveLabel
    if model.feature_count != want:
        raise ModelShapeMismatch(
            f"{stage} model expects {model.feature_count} features, "
            f"but the configured descriptor has {want}"
        )
    codes = {lab.code for lab in labels}
    for name in model.class_names:
        if name not in codes:
            raise ModelShapeMismatch(f"model class {name!r} is no {stage} label")
    trained = model.provenance
    if not trained:
        raise ModelShapeMismatch(f"{stage} model {path} records no provenance; retrain it")
    run = _provenance(cfg, stage, stage1_blob)
    # JSON texts, so that a tuple matches its list and true does not match 1
    for key in sorted(trained.keys() | run.keys()):
        was, now = (json.dumps(d[key]) if key in d else "(absent)" for d in (trained, run))
        if was != now:
            raise ModelShapeMismatch(
                f"{stage} model was trained with {key} = {was}, but this run has {key} = {now}")
    return model, blob


def _write_model(model: RandomForest, path: str, provenance: dict) -> bytes:
    """Write ``model``, stamped with ``provenance``; returns the bytes."""
    model.provenance = provenance
    blob = serialize(model)
    _makedirs_for(path)
    atomic_write(path, blob)
    return blob


def _write_report(report: EvalReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "report.json"), report.to_json() + "\n")
    atomic_write(os.path.join(out_dir, "confusion.txt"), report.confusion.text() + "\n")
    atomic_write(os.path.join(out_dir, "per_class.csv"), report.per_class_csv())
    return out_dir


# ---------------------------------------------------------------- commands


def _cmd_synth(args, cfg: PipelineConfig) -> int:
    params = SynthParams(
        fps=args.fps,
        duration_frames=args.duration_frames,
        walk_speed=args.walk_speed,
        noise_sigma=args.noise_sigma,
        group_size=args.group_size,
        seed=cfg.seed,
    )
    scenes = []
    if args.set in ("pairs", "all"):
        scenes += make_pair_corpus(params, args.scenes_per_class)
    if args.set in ("collective", "all"):
        scenes += make_collective_corpus(params, args.scenes_per_class)
    if args.set == "contrast":
        scenes += make_contrast_corpus(
            params, args.scenes_per_class, args.pair_scenes_per_class
        )
    write_corpus(scenes, args.out)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def _cmd_adapt(args, cfg: PipelineConfig) -> int:
    scenes = adapt_external(args.root, args.layout, foot_point=args.foot_point)
    write_corpus(scenes, args.out)
    print(f"adapted {len(scenes)} sequences to {args.out}")
    return 0


# Recordings per Pipeline in predict and extract: enough that one
# smoothed_states and one describe_pairs call serve many recordings, few
# enough that the states and caches of one run of them, not of the
# whole corpus, bound the memory.
_PIPELINE_RECORDINGS = 16


def _runs(recordings: list) -> Iterator:
    """Consecutive runs of at most _PIPELINE_RECORDINGS recordings."""
    for i in range(0, len(recordings), _PIPELINE_RECORDINGS):
        yield recordings[i:i + _PIPELINE_RECORDINGS]


def _cmd_extract(args, cfg: PipelineConfig) -> int:
    recordings = read_corpus(args.corpus)
    lines = []
    if args.kind == "pid":
        d = cfg.pid.descriptor_length
        lines.append(f"# pid d={d} t1={cfg.pid.t1} l_max={cfg.pid.l_max} step={cfg.step}")
        lines.append("# sequence,center_frame,anchor,target,label,values...")
        for run in _runs(recordings):
            order = [rec.sequence_id for rec in run]
            rows, x, labels = Pipeline(run, cfg).pair_matrix(order)
            for (seq, center, (aid, tid)), vec, label in zip(rows, x, labels):
                lines.append(
                    f"{seq},{center},{aid},{tid},{label.code}," + ",".join(_fmt(v) for v in vec)
                )
    else:
        if args.model is None:
            raise ConfigError("extract --kind cbd needs --model (first-stage forest)")
        stage1, _ = _read_model(args.model, "interaction", cfg)
        cols = cue_columns(cfg.cues)
        lines.append(
            f"# cbd d={len(cols)} t2={cfg.t2} step={cfg.step} stride={cfg.stride}"
            f" include_shape={str(cfg.include_shape).lower()}"
        )
        lines.append("# sequence,center_frame,members,label,values...")
        for run in _runs(recordings):
            order = [rec.sequence_id for rec in run]
            rows, x, labels = Pipeline(run, cfg).group_matrix(stage1, order)
            for (seq, center, ids), vec, label in zip(rows, x[:, cols], labels):
                lines.append(
                    f"{seq},{center},{'|'.join(ids)},{label.code},"
                    + ",".join(_fmt(v) for v in vec)
                )
    _makedirs_for(args.out)
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 2} descriptors to {args.out}")
    return 0


def _stage1_out_path(out: str) -> str:
    base, ext = os.path.splitext(out)
    return base + ".stage1" + (ext or ".json")


def _cmd_train(args, cfg: PipelineConfig) -> int:
    pipe = Pipeline(read_corpus(args.corpus), cfg)
    s1_seed, s2_seed = fold_seeds(cfg.seed, 0)
    if args.task == "interactions":
        model = pipe.train_stage1(pipe.seq_ids, s1_seed)
        _write_model(model, args.out, _provenance(cfg, "interaction"))
        print(f"wrote interaction model ({model.feature_count} features) to {args.out}")
        return 0
    if args.stage1 is not None:
        stage1, stage1_blob = _read_model(args.stage1, "interaction", cfg)
    else:
        stage1 = pipe.train_stage1(pipe.seq_ids, s1_seed)
        side = _stage1_out_path(args.out)
        stage1_blob = _write_model(stage1, side, _provenance(cfg, "interaction"))
        print(f"wrote interaction model to {side}")
    _, x, labels = pipe.group_matrix(stage1, pipe.seq_ids)
    if not labels:
        raise ConfigError("corpus has no usable collective windows")
    model = pipe.train_stage2(x[:, cue_columns(cfg.cues)], labels, s2_seed)
    _write_model(model, args.out, _provenance(cfg, "collective", stage1_blob))
    print(f"wrote collective model ({model.feature_count} features) to {args.out}")
    return 0


def _cmd_eval(args, cfg: PipelineConfig) -> int:
    recordings = read_corpus(args.corpus)
    if args.folds_file is not None:
        folds = FoldSplit.from_file(args.folds_file, args.folds)
    else:
        folds = FoldSplit.round_robin([r.sequence_id for r in recordings], args.folds)
        warnings.warn("no --folds-file given; falling back to a round-robin split")
    report = kfold_evaluate(recordings, folds, cfg, task=args.task)
    _write_report(report, args.out_dir)
    print(f"mpca {report.mpca:.4f} std {report.std:.4f}; report in {args.out_dir}")
    return 0


def _cmd_cross(args, cfg: PipelineConfig) -> int:
    train_recs = read_corpus(args.train_corpus)
    test_recs = read_corpus(args.test_corpus)
    report = cross_dataset(train_recs, test_recs, cfg)
    _write_report(report, args.out_dir)
    print(f"mpca {report.mpca:.4f} std {report.std:.4f}; report in {args.out_dir}")
    return 0


def _prediction_lines(kind: str, rows: list, model: RandomForest, x: np.ndarray) -> list:
    """One CSV line per row: the arg-max class and every vote fraction."""
    return [
        f"{seq},{center},{kind},{'|'.join(ids)},{model.class_names[int(np.argmax(probs))]},"
        + ",".join(_fmt(p) for p in probs)
        for (seq, center, ids), probs in zip(rows, model.vote_fractions(x))
    ]


def _predictions(recordings: list, cfg: PipelineConfig, stage1: RandomForest,
                 stage2: Optional[RandomForest], cols) -> tuple:
    """The prediction lines of recordings described by one Pipeline,
    recording by recording in the given order, pair rows first, and the
    numbers of pair and group rows."""
    pipe = Pipeline(recordings, cfg)
    order = [rec.sequence_id for rec in recordings]
    by_seq = {seq: [] for seq in order}
    rows, x, _ = pipe.pair_matrix(order)
    for (seq, *_), line in zip(rows, _prediction_lines("pair", rows, stage1, x)):
        by_seq[seq].append(line)
    n_pairs, n_groups = len(rows), 0
    if stage2 is not None:
        rows, x, _ = pipe.group_matrix(stage1, order)
        for (seq, *_), line in zip(rows, _prediction_lines("group", rows, stage2, x[:, cols])):
            by_seq[seq].append(line)
        n_groups = len(rows)
    return [line for seq in order for line in by_seq[seq]], n_pairs, n_groups


def _cmd_predict(args, cfg: PipelineConfig) -> int:
    recordings = read_corpus(args.corpus)
    stage1, stage1_blob = _read_model(args.interactions_model, "interaction", cfg)
    stage2 = None
    if args.collective_model is not None:
        stage2, _ = _read_model(args.collective_model, "collective", cfg, stage1_blob)
    cols = cue_columns(cfg.cues)
    lines = [
        "# sequence,center_frame,kind,ids,label,probabilities"
        " (pair rows over interaction classes, group rows over collective classes)"
    ]
    n_pairs = n_groups = 0
    for run in _runs(recordings):
        run_lines, run_pairs, run_groups = _predictions(run, cfg, stage1, stage2, cols)
        lines += run_lines
        n_pairs += run_pairs
        n_groups += run_groups
    _makedirs_for(args.out)
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {n_pairs} pair and {n_groups} group predictions to {args.out}")
    return 0


# ----------------------------------------------------------------- parser


_FLAG_TYPES = {"int": int, "optint": int, "float": float}


def _add_config_flags(sub: argparse.ArgumentParser):
    g = sub.add_argument_group("configuration (flags > file > defaults)")
    g.add_argument("--config", metavar="FILE", help="key = value config file")
    for key, kind, _, help_text in SETTINGS:
        flag = "--" + key.replace("_", "-")
        if key == "variance_denominator":
            g.add_argument(flag, action="store_const", const=True, help=help_text)
        elif key == "include_shape":
            g.add_argument(flag, choices=("true", "false"), help=help_text)
        elif key == "assignment":
            g.add_argument(flag, choices=("kde", "hard"), help=help_text)
        else:
            g.add_argument(flag, type=_FLAG_TYPES.get(kind), help=help_text)


def overrides_from_args(args) -> dict:
    """Setting overrides from parsed flags; flags not given are left out
    (None is an explicit setting for the optional-integer keys in
    build_run_config, so absent flags must not shadow config-file values)."""
    overrides = {}
    for key, kind, _, _ in SETTINGS:
        value = getattr(args, key)
        if value is None:
            continue
        if key == "include_shape":
            value = value == "true"
        elif kind == "list":
            value = [s.strip() for s in value.split(",") if s.strip()]
        overrides[key] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxrf",
        description="Two-stage pedestrian behavior recognition from ground-plane trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = subs.add_parser("synth", help="generate a seeded synthetic corpus")
    sp.add_argument("--out", required=True, help="output corpus directory")
    sp.add_argument(
        "--set",
        choices=("pairs", "collective", "contrast", "all"),
        default="all",
        help="which scene families to generate",
    )
    sp.add_argument("--scenes-per-class", type=int, default=5)
    sp.add_argument("--pair-scenes-per-class", type=int, default=3,
                    help="pair scenes bundled into the contrast set")
    sp.add_argument("--fps", type=float, default=10.0)
    sp.add_argument("--duration-frames", type=int, default=112)
    sp.add_argument("--walk-speed", type=float, default=1.2)
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--group-size", type=int, default=4)
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_synth)

    sp = subs.add_parser("adapt", help="canonicalize an external corpus layout")
    sp.add_argument("root", help="external corpus root directory")
    sp.add_argument("--layout", required=True, choices=LAYOUTS)
    sp.add_argument("--out", required=True, help="output corpus directory")
    sp.add_argument("--foot-point", choices=FOOT_POINTS, default="bottom-center")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_adapt)

    sp = subs.add_parser("extract", help="dump descriptor vectors for a corpus")
    sp.add_argument("corpus", help="canonical corpus directory")
    sp.add_argument("--kind", required=True, choices=("pid", "cbd"))
    sp.add_argument("--model", help="first-stage model (required for cbd)")
    sp.add_argument("--out", required=True, help="output text file")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_extract)

    sp = subs.add_parser("train", help="train and serialize forest models")
    sp.add_argument("task", choices=("interactions", "collective"))
    sp.add_argument("corpus", help="canonical corpus directory")
    sp.add_argument("--out", required=True, help="output model file")
    sp.add_argument("--stage1", help="existing first-stage model (collective only)")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_train)

    sp = subs.add_parser("eval", help="k-fold cross-validated evaluation")
    sp.add_argument("corpus", help="canonical corpus directory")
    sp.add_argument("--task", choices=("interaction", "collective"), default="collective")
    sp.add_argument("--folds", type=int, default=3, help="fold count (round-robin split)")
    sp.add_argument("--folds-file", help="explicit `sequence_id,fold` assignment file")
    sp.add_argument("--out-dir", required=True, help="report output directory")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = subs.add_parser("cross", help="train on one corpus, test on another")
    sp.add_argument("train_corpus", help="training corpus directory")
    sp.add_argument("test_corpus", help="test corpus directory")
    sp.add_argument("--out-dir", required=True, help="report output directory")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_cross)

    sp = subs.add_parser("predict", help="per-window predictions as CSV")
    sp.add_argument("corpus", help="canonical corpus directory")
    sp.add_argument("--interactions-model", required=True)
    sp.add_argument("--collective-model")
    sp.add_argument("--out", required=True, help="output CSV file")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_predict)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, overrides_from_args(args))
        return args.func(args, cfg)
    except ProxrfError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"ERROR OSError: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
