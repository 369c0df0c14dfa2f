"""Scene recordings, canonical file formats, external-corpus adapters and
sliding-window enumeration.

Canonical on-disk formats (UTF-8, a leading byte-order mark and `#`
comment lines ignored):
  .trj  one header `# fps=<float>`, then `frame,track_id,x,y` (meters)
  .pia  `start,end,anchor_id,target_id,LABEL` with the two-letter codes
  .cba  `start,end,LABEL` with full collective label names
  .hom  nine whitespace-separated reals, row-major image-to-ground matrix

A scene on disk is `<sequence_id>.trj` plus optional sibling `.pia` and
`.cba` files with the same stem.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .cbd import CollectiveLabel
from .errors import (
    AnnotationConflict,
    ConfigError,
    InvalidConfig,
    ParseError,
    ReferentialError,
)
from .pid import InteractionLabel
from .trajectory import DEFAULT_MAX_GAP, Trajectory

LAYOUTS = ("ncad-like", "behave-like", "canonical")
FOOT_POINTS = ("bottom-center", "box-center", "point")
_MAX_FRAME = 2**53  # the largest magnitude up to which float64 holds every integer


@dataclass(frozen=True)
class PairAnnotation:
    """One directional interaction over an inclusive frame range."""

    start: int
    end: int
    anchor_id: str
    target_id: str
    label: InteractionLabel

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"annotation range {self.start}..{self.end} is empty")
        if self.anchor_id == self.target_id:
            raise ValueError(f"pair annotation with anchor == target ({self.anchor_id})")


@dataclass(frozen=True)
class CollectiveAnnotation:
    """One collective behavior over an inclusive frame range."""

    start: int
    end: int
    label: CollectiveLabel

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"annotation range {self.start}..{self.end} is empty")


def _ranges_overlap(a_start, a_end, b_start, b_end):
    return a_start <= b_end and b_start <= a_end


@dataclass(eq=True)
class SceneRecording:
    """One annotated scene: trajectories plus pair/collective labels.

    Construction canonicalizes ordering (tracks by id, annotations by
    range) and validates referential integrity and label consistency, so
    two recordings with the same content compare equal.
    """

    sequence_id: str
    fps: float
    trajectories: tuple
    pair_annotations: tuple
    collective_annotations: tuple

    def __init__(self, sequence_id, fps, trajectories, pair_annotations=(), collective_annotations=()):
        self.sequence_id = str(sequence_id)
        self.fps = float(fps)
        self.trajectories = tuple(sorted(trajectories, key=lambda t: t.track_id))
        self.pair_annotations = tuple(
            sorted(
                pair_annotations,
                key=lambda a: (a.start, a.end, a.anchor_id, a.target_id, a.label.code),
            )
        )
        self.collective_annotations = tuple(
            sorted(collective_annotations, key=lambda a: (a.start, a.end, a.label.code))
        )
        self._validate()

    def _validate(self):
        ids = [t.track_id for t in self.trajectories]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate track ids {dup}")
        known = set(ids)
        for t in self.trajectories:
            if t.fps != self.fps:
                raise ValueError(f"track {t.track_id} fps {t.fps} != scene fps {self.fps}")
        for a in self.pair_annotations:
            for tid in (a.anchor_id, a.target_id):
                if tid not in known:
                    raise ReferentialError(
                        f"{self.sequence_id}: annotation references unknown track {tid!r}"
                    )
        by_pair = {}
        for a in self.pair_annotations:
            by_pair.setdefault((a.anchor_id, a.target_id), []).append(a)
        for anns in by_pair.values():
            for i, a in enumerate(anns):
                for b in anns[i + 1 :]:
                    if a.label is not b.label and _ranges_overlap(a.start, a.end, b.start, b.end):
                        raise AnnotationConflict(
                            f"{self.sequence_id}: pair {a.anchor_id}->{a.target_id} labeled "
                            f"{a.label.code} and {b.label.code} on overlapping ranges"
                        )
        coll = self.collective_annotations
        for i, a in enumerate(coll):
            for b in coll[i + 1 :]:
                if a.label is not b.label and _ranges_overlap(a.start, a.end, b.start, b.end):
                    raise AnnotationConflict(
                        f"{self.sequence_id}: collective labels {a.label.code} and "
                        f"{b.label.code} overlap on {max(a.start, b.start)}..{min(a.end, b.end)}"
                    )

    @property
    def frame_range(self) -> tuple:
        lo = min(t.first_frame for t in self.trajectories)
        hi = max(t.last_frame for t in self.trajectories)
        return lo, hi

    def track(self, track_id: str) -> Trajectory:
        for t in self.trajectories:
            if t.track_id == track_id:
                return t
        raise KeyError(track_id)


class FoldSplit:
    """Assignment of sequence ids to cross-validation folds."""

    def __init__(self, assignments: dict, n_folds: int = 3):
        self.n_folds = int(n_folds)
        if self.n_folds < 2:
            raise InvalidConfig(f"need >= 2 folds, got {self.n_folds}")
        self.assignments = {str(k): int(v) for k, v in assignments.items()}
        for seq, fold in self.assignments.items():
            if not 0 <= fold < self.n_folds:
                raise ValueError(f"fold {fold} for {seq!r} outside 0..{self.n_folds - 1}")

    def fold_of(self, sequence_id: str) -> int:
        return self.assignments[str(sequence_id)]

    @classmethod
    def round_robin(cls, sequence_ids: Iterable[str], n_folds: int = 3) -> "FoldSplit":
        """Deterministic fallback split: sorted ids dealt 0,1,2,0,1,2..."""
        ordered = sorted(str(s) for s in sequence_ids)
        # cycling an empty range deals nothing, so a count below 1 reaches
        # the constructor's check instead of dividing by zero
        return cls(dict(zip(ordered, itertools.cycle(range(n_folds)))), n_folds)

    @classmethod
    def from_file(cls, path: str, n_folds: int = 3) -> "FoldSplit":
        """Lines `sequence_id,fold`; comments and blanks ignored."""
        assignments, seen = {}, {}
        for lineno, raw in _numbered_lines(path):
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected `sequence_id,fold`")
            if parts[0] in seen:
                raise ParseError(f"{path}:{lineno}: sequence {parts[0]!r} already assigned "
                                 f"on line {seen[parts[0]]}")
            seen[parts[0]] = lineno
            try:
                assignments[parts[0]] = int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: fold must be an integer") from None
        try:
            return cls(assignments, n_folds)
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from None


def _read_text(source) -> str:
    """The text of a path, decoded as UTF-8 in one go (other bytes raise
    ParseError), or of a line iterable, its lines joined by newlines;
    either way less one leading byte-order mark."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{source}: not UTF-8 text ({e.reason})") from None
    else:
        text = "\n".join(line[:-1] if line.endswith("\n") else line for line in source)
    return text[1:] if text.startswith("\ufeff") else text


def _frame(text: str) -> int:
    """A frame number: an integer that float64 frame arithmetic holds exactly."""
    frame = int(text)
    if abs(frame) > _MAX_FRAME:
        raise ValueError(f"frame {text} outside +-2**53")
    return frame


def _numbered_lines(source) -> Iterator:
    """(line number, stripped content) for data lines of a path/stream."""
    for lineno, raw in enumerate(_read_text(source).split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_fps(lines: Sequence[str], name: str) -> tuple:
    """fps from the one `# fps=` header plus the remaining data lines."""
    fps = None
    data = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("fps="):
                if fps is not None:
                    raise ParseError(f"{name}:{lineno}: second `# fps=` header "
                                     f"(the first is on line {header})")
                header = lineno
                try:
                    fps = float(body[4:])
                except ValueError:
                    raise ParseError(f"{name}:{lineno}: bad fps value {body[4:]!r}") from None
                if not 0 < fps < math.inf:
                    raise ParseError(f"{name}:{lineno}: fps must be finite and > 0, got {fps}")
            continue
        if not line:
            continue
        if fps is None:
            raise ParseError(f"{name}:{lineno}: data before `# fps=<float>` header")
        data.append((lineno, line))
    if fps is None:
        raise ParseError(f"{name}: missing `# fps=<float>` header")
    return fps, data


def _parse_tracks(source, name: str, foot_point: Optional[str] = None, h_mat=None) -> tuple:
    """fps and trajectories of a track file: the `# fps=` header, then
    `frame,track_id,x,y` rows.

    With no ``foot_point`` this is a canonical `.trj` file in meters.
    With one it is an external `tracks.txt` in image coordinates: a row
    may also be a box `frame,track_id,x1,y1,x2,y2`, reduced to one image
    point per ``foot_point``, and ``h_mat`` maps the points to the
    ground.  The file's lines are read by _track_rows.  The first bad
    line, an empty file and any track that ``_build_tracks`` refuses
    raise ParseError.
    """
    lines = _read_text(source).split("\n")
    fps, linenos, ids, frames, xy = _track_rows(lines, name, foot_point)
    to_ground = None if h_mat is None else (lambda pts: apply_homography(h_mat, pts))
    # a point on the homography's horizon maps to inf or nan, which
    # _build_tracks reports as ParseError; numpy's warning would only repeat it
    with np.errstate(divide="ignore", invalid="ignore"):
        return fps, _build_tracks(linenos, ids, frames, xy, fps, name, to_ground)


def _columns(lines: Sequence[str]) -> Optional[tuple]:
    """(track ids, frames, (n, 2) positions) of track-file data lines that
    are all rows of four fields that int() and float() read, with
    non-empty ids and frames within +-2**53; None for any others.

    The lines are checked to hold three commas each and split into
    fields once, with no loop over lines in Python.  A comment or blank
    line never passes: its first field is no integer.  Since int() and
    float() accept no whitespace that str.strip() keeps, such lines give
    what _track_row gives.
    """
    if set(map(str.count, lines, itertools.repeat(","))) != {3}:
        return None
    fields = ",".join(lines).split(",")
    try:
        frames = list(map(int, fields[0::4]))
        xy = np.column_stack([list(map(float, fields[2::4])), list(map(float, fields[3::4]))])
    except ValueError:
        return None
    ids = list(map(str.strip, fields[1::4]))
    if max(frames) > _MAX_FRAME or min(frames) < -_MAX_FRAME or not all(ids):
        return None
    return ids, frames, xy


def _track_rows(lines: Sequence[str], name: str, foot_point: Optional[str]) -> tuple:
    """(fps, line numbers, track ids, frames, (n, 2) positions) of a
    track file's lines: the header (_parse_fps), then the data lines, all
    at once (_columns) if they allow it, else each by _track_row, so a
    box row is reduced to its foot point and the first bad line raises
    its ParseError."""
    fps, data = _parse_fps(lines, name)
    if not data:
        raise ParseError(f"{name}: no trajectory data")
    linenos, lines = zip(*data)
    columns = _columns(lines)
    if columns is None:
        rows = [_track_row(line, name, lineno, foot_point) for lineno, line in data]
        ids, frames, x, y = zip(*rows)
        columns = ids, frames, np.column_stack([x, y])
    return (fps, linenos) + columns


def _track_row(line: str, name: str, lineno: int, foot_point: Optional[str]) -> tuple:
    """(track id, frame, x, y) of one track-file data line."""
    parts = [p.strip() for p in line.split(",")]
    if foot_point is None and len(parts) != 4:
        raise ParseError(f"{name}:{lineno}: expected `frame,track_id,x,y`")
    if len(parts) not in (4, 6):
        raise ParseError(
            f"{name}:{lineno}: expected `frame,track_id,u,v` or box with 4 coordinates"
        )
    try:
        frame = _frame(parts[0])
        nums = [float(p) for p in parts[2:]]
    except ValueError:
        raise ParseError(f"{name}:{lineno}: bad number in {line!r}") from None
    if not parts[1]:
        raise ParseError(f"{name}:{lineno}: empty track id")
    if len(nums) == 2:
        x, y = nums
    elif foot_point == "point":
        raise ParseError(f"{name}:{lineno}: box row but foot_point=point expects `u,v`")
    elif foot_point == "bottom-center":
        x, y = (nums[0] + nums[2]) / 2.0, max(nums[1], nums[3])
    else:  # box-center
        x, y = (nums[0] + nums[2]) / 2.0, (nums[1] + nums[3]) / 2.0
    return parts[1], frame, x, y


def _build_tracks(linenos, ids, frames, xy, fps: float, name: str, to_ground=None) -> list:
    """Trajectories from the columns of data rows: line numbers, track
    ids, frames and (n, 2) coordinates.

    Rows are grouped by track in order of first appearance and sorted by
    frame.  ``to_ground`` maps a track's (n, 2) coordinates first.  A
    duplicate frame, or a track that Trajectory refuses (such as one
    with a non-finite position), raises ParseError.
    """
    index = {}
    codes = np.array([index.setdefault(tid, len(index)) for tid in ids])
    frames = np.array(frames, dtype=np.int64)
    order = np.lexsort((frames, codes))  # stable: equal frames keep file order
    linenos, frames, xy = np.asarray(linenos)[order], frames[order], xy[order]
    bounds = np.searchsorted(codes[order], np.arange(len(index) + 1))
    trajectories = []
    for tid, lo, hi in zip(index, bounds[:-1].tolist(), bounds[1:].tolist()):
        dup = np.flatnonzero(np.diff(frames[lo:hi]) == 0)
        if len(dup):
            at = lo + dup[0] + 1
            raise ParseError(f"{name}:{linenos[at]}: duplicate frame {frames[at]} for track {tid!r}")
        pos = xy[lo:hi] if to_ground is None else to_ground(xy[lo:hi])
        try:
            trajectories.append(Trajectory.from_arrays(tid, frames[lo:hi], pos, fps))
        except ValueError as e:
            raise ParseError(f"{name}: track {tid!r}: {e}") from None
    return trajectories


def _parse_pair_annotations(source, name: str) -> list:
    out = []
    for lineno, line in _numbered_lines(source):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ParseError(f"{name}:{lineno}: expected `start,end,anchor_id,target_id,LABEL`")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{name}:{lineno}: bad frame number") from None
        try:
            label = InteractionLabel(parts[4])
        except ValueError:
            codes = "/".join(l.code for l in InteractionLabel)
            raise ParseError(f"{name}:{lineno}: unknown label {parts[4]!r} (want {codes})") from None
        try:
            out.append(PairAnnotation(start, end, parts[2], parts[3], label))
        except ValueError as e:
            raise ParseError(f"{name}:{lineno}: {e}") from None
    return out


def _parse_collective_annotations(source, name: str, skip_labels=(), skipped=None) -> list:
    out = []
    for lineno, line in _numbered_lines(source):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"{name}:{lineno}: expected `start,end,LABEL`")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{name}:{lineno}: bad frame number") from None
        if parts[2] in skip_labels:
            if skipped is not None:
                skipped.append((start, end, parts[2]))
            continue
        try:
            label = CollectiveLabel(parts[2])
        except ValueError:
            names = "/".join(l.code for l in CollectiveLabel)
            raise ParseError(f"{name}:{lineno}: unknown label {parts[2]!r} (want {names})") from None
        try:
            out.append(CollectiveAnnotation(start, end, label))
        except ValueError as e:
            raise ParseError(f"{name}:{lineno}: {e}") from None
    return out


def parse_canonical(
    trajectory_stream,
    pair_stream=None,
    collective_stream=None,
    sequence_id: str = "scene",
    name: str = "<trj>",
) -> SceneRecording:
    """Recording from canonical-format streams (paths or line iterables)."""
    if isinstance(trajectory_stream, (str, os.PathLike)):
        name = str(trajectory_stream)
    fps, trajectories = _parse_tracks(trajectory_stream, name)
    pairs = _parse_pair_annotations(pair_stream, f"{name} pairs") if pair_stream is not None else []
    coll = (
        _parse_collective_annotations(collective_stream, f"{name} collective")
        if collective_stream is not None
        else []
    )
    return SceneRecording(sequence_id, fps, trajectories, pairs, coll)


def _fmt(value: float) -> str:
    """Shortest exact decimal form, so files round-trip bit for bit."""
    return repr(float(value))


def _check_id(ident: str, what: str = "track id"):
    """ValueError unless ``ident`` can be written as a field of a canonical
    file or a CSV output line: non-empty, without a comma or a line
    break, and without surrounding whitespace."""
    if not ident or ident != ident.strip() or any(c in ident for c in ",\n\r"):
        raise ValueError(f"{what} {ident!r} not representable in canonical files and CSV output")


def _sequence_id(seq: str, where: str) -> str:
    """``seq``, unless _check_id refuses it as a sequence id: then a
    ParseError naming ``where``, the file or directory it came from."""
    try:
        _check_id(seq, "sequence id")
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None
    return seq


def write_scene(rec: SceneRecording, directory: str) -> str:
    """Write `<sequence_id>.trj/.pia/.cba` under a directory; returns the
    .trj path.  Annotation files are only written when non-empty."""
    _check_id(rec.sequence_id, "sequence id")
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, rec.sequence_id)
    lines = [f"# fps={_fmt(rec.fps)}"]
    for t in rec.trajectories:
        _check_id(t.track_id)
        tid = t.track_id
        lines += [f"{f},{tid},{x!r},{y!r}" for f, (x, y) in zip(t.frames.tolist(), t.xy.tolist())]
    atomic_write(base + ".trj", "\n".join(lines) + "\n")
    if rec.pair_annotations:
        lines = [
            f"{a.start},{a.end},{a.anchor_id},{a.target_id},{a.label.code}"
            for a in rec.pair_annotations
        ]
        atomic_write(base + ".pia", "\n".join(lines) + "\n")
    if rec.collective_annotations:
        lines = [f"{a.start},{a.end},{a.label.code}" for a in rec.collective_annotations]
        atomic_write(base + ".cba", "\n".join(lines) + "\n")
    return base + ".trj"


def atomic_write(path: str, data):
    """Write text (as UTF-8) or bytes to a temporary sibling, then rename
    it over ``path``, so readers never see a partial file."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def read_scene(trj_path: str) -> SceneRecording:
    """Read a canonical scene from its .trj path plus optional siblings."""
    base, ext = os.path.splitext(trj_path)
    if ext != ".trj":
        raise ConfigError(f"expected a .trj path, got {trj_path!r}")
    seq = _sequence_id(os.path.basename(base), trj_path)
    pia = base + ".pia" if os.path.exists(base + ".pia") else None
    cba = base + ".cba" if os.path.exists(base + ".cba") else None
    return parse_canonical(trj_path, pia, cba, sequence_id=seq)


def write_corpus(recordings: Sequence[SceneRecording], directory: str) -> list:
    return [write_scene(rec, directory) for rec in recordings]


def read_corpus(directory: str) -> list:
    """All canonical scenes under a directory, in file name order (which
    is not always sequence id order: `a.b.trj` sorts before `a.trj`).  A
    file whose sequence id _check_id refuses raises ParseError."""
    if not os.path.isdir(directory):
        raise ConfigError(f"not a directory: {directory!r}")
    paths = sorted(
        os.path.join(directory, n) for n in os.listdir(directory) if n.endswith(".trj")
    )
    return [read_scene(p) for p in paths]


def _read_homography(path: str) -> np.ndarray:
    values = []
    for lineno, line in _numbered_lines(path):
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad matrix entry {tok!r}") from None
    if len(values) != 9:
        raise ParseError(f"{path}: expected 9 entries, got {len(values)}")
    h_mat = np.array(values).reshape(3, 3)
    if abs(np.linalg.det(h_mat)) < 1e-12:
        raise ParseError(f"{path}: homography is singular")
    return h_mat


def apply_homography(h_mat: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map (n, 2) image points to ground coordinates and dehomogenize."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ones = np.ones((len(pts), 1))
    mapped = np.hstack([pts, ones]) @ h_mat.T
    return mapped[:, :2] / mapped[:, 2:3]


def adapt_external(root: str, layout: str, foot_point: str = "bottom-center") -> list:
    """Adapt an external corpus directory tree into canonical recordings.

    `ncad-like`/`behave-like`: one subdirectory per sequence holding
    `tracks.txt` (image coordinates, `# fps=` header), `H.hom`
    (image-to-ground homography, required), optional `pairs.txt` and
    `groups.txt` annotation files in the canonical column layouts.
    behave-like additionally drops `Fighting` ranges from `groups.txt`
    with a warning.  `canonical` reads `.trj` scenes directly.
    """
    if layout not in LAYOUTS:
        raise ConfigError(f"unknown layout {layout!r}, expected one of {LAYOUTS}")
    if foot_point not in FOOT_POINTS:
        raise ConfigError(f"unknown foot_point {foot_point!r}, expected one of {FOOT_POINTS}")
    if layout == "canonical":
        return read_corpus(root)
    if not os.path.isdir(root):
        raise ConfigError(f"not a directory: {root!r}")
    recordings = []
    for seq in sorted(os.listdir(root)):
        seq_dir = os.path.join(root, seq)
        tracks = os.path.join(seq_dir, "tracks.txt")
        if not os.path.isdir(seq_dir) or not os.path.exists(tracks):
            continue
        _sequence_id(seq, seq_dir)
        hom_path = os.path.join(seq_dir, "H.hom")
        if not os.path.exists(hom_path):
            raise ConfigError(f"{seq}: missing homography sidecar {hom_path}")
        h_mat = _read_homography(hom_path)
        fps, trajectories = _parse_tracks(tracks, tracks, foot_point, h_mat)
        pairs_path = os.path.join(seq_dir, "pairs.txt")
        pairs = (
            _parse_pair_annotations(pairs_path, pairs_path)
            if os.path.exists(pairs_path)
            else []
        )
        groups_path = os.path.join(seq_dir, "groups.txt")
        coll = []
        if os.path.exists(groups_path):
            skipped = []
            skip = ("Fighting",) if layout == "behave-like" else ()
            coll = _parse_collective_annotations(groups_path, groups_path, skip, skipped)
            if skipped:
                warnings.warn(
                    f"{seq}: dropped {len(skipped)} Fighting range(s)", stacklevel=2
                )
        recordings.append(SceneRecording(seq, fps, trajectories, pairs, coll))
    if not recordings:
        raise ConfigError(f"no sequences found under {root!r}")
    return recordings


def windows(
    rec: SceneRecording,
    window_len: int,
    step: int,
    mode: str,
    max_gap: int = DEFAULT_MAX_GAP,
) -> Iterator:
    """Labeled sliding windows over a recording, by center, then pair.

    Yields (center_frame, participants, label).  A window is kept when
    its label covers the center frame and at least 75% of the window's
    frames; pairs mode additionally requires both tracks to cover the
    whole window, and group mode a piece of some track (a stretch
    without a gap beyond ``max_gap``, see Trajectory.pieces) to overlap
    it; a group window's members are the tracks whose span overlaps it.
    Centers lie on the grid lo + T/2 - 1 + k * step; windows never
    extend outside the recording's frame range.  Only grid centers inside
    an annotation range and near a track piece are visited, so the cost
    follows the annotated, tracked frames, not the frame numbers.
    """
    if window_len < 2 or window_len & (window_len - 1):
        raise ValueError(f"window_len must be a power of two >= 2, got {window_len}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if mode not in ("pairs", "group"):
        raise ValueError(f"mode must be 'pairs' or 'group', got {mode!r}")
    lo, hi = rec.frame_range
    half_back, half_fwd = window_len // 2 - 1, window_len // 2
    need = math.ceil(0.75 * window_len)

    def grid(first: int, last: int) -> range:
        """Grid centers in [first, last]."""
        first = max(first, lo + half_back)
        first += -(first - lo - half_back) % step
        return range(first, min(last, hi - half_fwd) + 1, step)

    def label_at(center: int, anns: Sequence):
        """The label at an annotated center; None if it covers too little."""
        label = next(a.label for a in anns if a.start <= center <= a.end)
        start, end = center - half_back, center + half_fwd
        covered = set().union(*(range(max(a.start, start), min(a.end, end) + 1)
                                for a in anns if a.label is label))
        return label if len(covered) >= need else None

    found = []
    pieces = {t.track_id: t.pieces(max_gap) for t in rec.trajectories}
    if mode == "pairs":
        tracks = {t.track_id: t for t in rec.trajectories}
        by_pair = {}
        for a in rec.pair_annotations:
            by_pair.setdefault((a.anchor_id, a.target_id), []).append(a)
        for (aid, tid), anns in by_pair.items():
            target = tracks[tid]
            centers = {
                c for a in anns for first, last in pieces[aid]
                for c in grid(max(a.start, first + half_back, target.first_frame + half_back),
                              min(a.end, last - half_fwd, target.last_frame - half_fwd))
            }
            for c in centers:
                label = label_at(c, anns)
                start, end = c - half_back, c + half_fwd
                # the target covers the window: one of its pieces holds it
                if label is not None and any(first <= start and end <= last
                                             for first, last in pieces[tid]):
                    found.append((c, (aid, tid), label))
        found.sort(key=lambda w: w[:2])
    else:
        anns = rec.collective_annotations
        centers = {
            c for a in anns for track_pieces in pieces.values() for first, last in track_pieces
            for c in grid(max(a.start, first - half_fwd), min(a.end, last + half_back))
        }
        for c in sorted(centers):
            label = label_at(c, anns)
            if label is not None:
                present = tuple(sorted(t.track_id for t in rec.trajectories
                                       if t.first_frame <= c + half_fwd
                                       and t.last_frame >= c - half_back))
                found.append((c, present, label))
    yield from found
