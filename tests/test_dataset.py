"""Canonical scene IO, fold splits, adapters and window enumeration."""

import math
import os
import re
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxrf import dataset
from proxrf.cbd import CollectiveLabel
from proxrf.dataset import (
    FOOT_POINTS,
    CollectiveAnnotation,
    FoldSplit,
    PairAnnotation,
    SceneRecording,
    adapt_external,
    apply_homography,
    parse_canonical,
    read_corpus,
    read_scene,
    windows,
    write_corpus,
    write_scene,
)
from proxrf.errors import (
    AnnotationConflict,
    ConfigError,
    InvalidConfig,
    ParseError,
    ProxrfError,
    ReferentialError,
)
from proxrf.pid import InteractionLabel
from proxrf.trajectory import TimedPosition, Trajectory

from conftest import make_traj, straight_traj
from per_sample import covers

ROOT = pathlib.Path(__file__).resolve().parent.parent
WT = InteractionLabel.WalkingTogether
SP = InteractionLabel.StandingPair
TALK = CollectiveLabel.Talking


def _pair_scene(n_frames=64, anns=((0, 63),), label=WT, seq="s0"):
    a = straight_traj("a", 1.2, 0.0, n_frames)
    b = straight_traj("b", 1.2, 0.0, n_frames, origin=(0.0, 1.0))
    pair_anns = [PairAnnotation(s, e, "a", "b", label) for s, e in anns]
    return SceneRecording(seq, 10.0, [a, b], pair_anns)


# ------------------------------------------------------------ recording type

def test_recording_canonicalizes_order():
    a = straight_traj("a", 1.0, 0.0, 10)
    b = straight_traj("b", 1.0, 0.0, 10)
    ann1 = PairAnnotation(0, 9, "a", "b", WT)
    ann2 = PairAnnotation(0, 9, "b", "a", WT)
    r1 = SceneRecording("s", 10.0, [a, b], [ann1, ann2])
    r2 = SceneRecording("s", 10.0, [b, a], [ann2, ann1])
    assert r1 == r2
    assert [t.track_id for t in r1.trajectories] == ["a", "b"]
    assert r1.frame_range == (0, 9)
    assert r1.track("b") is b
    with pytest.raises(KeyError):
        r1.track("zz")


def test_recording_validation():
    a = straight_traj("a", 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        SceneRecording("s", 10.0, [a, straight_traj("a", 1.0, 0.0, 5)])
    with pytest.raises(ValueError):
        SceneRecording("s", 25.0, [a])  # track fps is 10
    with pytest.raises(ReferentialError):
        SceneRecording("s", 10.0, [a], [PairAnnotation(0, 5, "a", "ghost", WT)])


def test_annotation_conflicts():
    a = straight_traj("a", 1.0, 0.0, 40)
    b = straight_traj("b", 1.0, 0.0, 40)
    with pytest.raises(AnnotationConflict):
        SceneRecording("s", 10.0, [a, b],
                       [PairAnnotation(0, 20, "a", "b", WT),
                        PairAnnotation(15, 39, "a", "b", SP)])
    # same label overlapping, or different pairs, are fine
    SceneRecording("s", 10.0, [a, b],
                   [PairAnnotation(0, 20, "a", "b", WT),
                    PairAnnotation(15, 39, "a", "b", WT),
                    PairAnnotation(0, 39, "b", "a", SP)])
    with pytest.raises(AnnotationConflict):
        SceneRecording("s", 10.0, [a, b], [],
                       [CollectiveAnnotation(0, 20, TALK),
                        CollectiveAnnotation(20, 39, CollectiveLabel.Queuing)])
    SceneRecording("s", 10.0, [a, b], [],
                   [CollectiveAnnotation(0, 19, TALK),
                    CollectiveAnnotation(20, 39, CollectiveLabel.Queuing)])


def test_annotation_field_validation():
    with pytest.raises(ValueError):
        PairAnnotation(10, 9, "a", "b", WT)
    with pytest.raises(ValueError):
        PairAnnotation(0, 9, "a", "a", WT)
    with pytest.raises(ValueError):
        CollectiveAnnotation(5, 4, TALK)


# ------------------------------------------------------------------ file IO

def test_scene_round_trip(tmp_path):
    xy = np.array([[0.1, 1.0 / 3.0], [0.2, -1e-7], [12345.678901, 0.0]])
    t1 = make_traj("walker 1", xy)
    t2 = straight_traj("w2", 1.5, 0.7, 3)
    rec = SceneRecording(
        "seq01", 10.0, [t1, t2],
        [PairAnnotation(0, 2, "walker 1", "w2", WT)],
        [CollectiveAnnotation(0, 2, TALK)],
    )
    path = write_scene(rec, str(tmp_path))
    back = read_scene(path)
    assert back == rec
    assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))
    # rewriting produces identical bytes
    before = open(path, "rb").read()
    write_scene(back, str(tmp_path))
    assert open(path, "rb").read() == before


def test_annotation_files_only_when_nonempty(tmp_path):
    rec = SceneRecording("bare", 10.0, [straight_traj("a", 1.0, 0.0, 5)])
    write_scene(rec, str(tmp_path))
    assert (tmp_path / "bare.trj").exists()
    assert not (tmp_path / "bare.pia").exists()
    assert not (tmp_path / "bare.cba").exists()
    assert read_scene(str(tmp_path / "bare.trj")) == rec


def test_corpus_round_trip(tmp_path):
    recs = [_pair_scene(seq="s2"), _pair_scene(seq="s0"), _pair_scene(seq="s1")]
    write_corpus(recs, str(tmp_path))
    back = read_corpus(str(tmp_path))
    assert [r.sequence_id for r in back] == ["s0", "s1", "s2"]
    assert set(map(id, back)) != set(map(id, recs)) and sorted(
        r.sequence_id for r in recs) == [r.sequence_id for r in back]
    assert all(b == r for b, r in zip(back, sorted(recs, key=lambda r: r.sequence_id)))
    with pytest.raises(ConfigError):
        read_corpus(str(tmp_path / "missing"))
    with pytest.raises(ConfigError):
        read_scene(str(tmp_path / "s0.pia"))


def test_unrepresentable_track_id(tmp_path):
    rec = SceneRecording("s", 10.0, [straight_traj("a,b", 1.0, 0.0, 5)])
    with pytest.raises(ValueError):
        write_scene(rec, str(tmp_path))


def test_parse_errors():
    cases = [
        ["0,a,1.0,2.0"],                        # data before header
        ["# fps=abc", "0,a,1.0,2.0"],
        ["# fps=-5", "0,a,1.0,2.0"],
        ["# fps=10", "0,a,1.0"],                # arity
        ["# fps=10", "0,a,1.0,zz"],
        ["# fps=10", "0,,1.0,2.0"],             # empty id
        ["# fps=10", "0,a,1.0,2.0", "0,a,1.5,2.0"],  # duplicate frame
        ["# fps=10"],                            # no data
    ]
    for lines in cases:
        with pytest.raises(ParseError):
            parse_canonical(lines)
    good = ["# fps=10", "0,a,0.0,0.0", "1,a,0.1,0.0"]
    with pytest.raises(ParseError):
        parse_canonical(good, pair_stream=["0,1,a,b,XX"])
    with pytest.raises(ParseError):
        parse_canonical(good, pair_stream=["0,1,a,b"])
    with pytest.raises(ParseError):
        parse_canonical(good, collective_stream=["0,1,Skirmish"])
    with pytest.raises(ParseError):
        parse_canonical(good, collective_stream=["x,1,Talking"])


def test_trj_parse_error_texts():
    # the first bad line wins, whatever fault a later line has; tracks are
    # checked in order of first appearance, duplicates before positions
    cases = [
        (["0,a,1,2", "1,a,x,2", "2,a,1"], "<trj>:3: bad number in '1,a,x,2'"),
        (["0,a,1,2", "1,a,1", "2,a,x,2"], "<trj>:3: expected `frame,track_id,x,y`"),
        (["0, ,1,2"], "<trj>:2: empty track id"),
        (["0,a,1,2", "9007199254740993,a,1,2"], "<trj>:3: bad number in '9007199254740993,a,1,2'"),
        (["0,b,0,0", "1,a,0,0", "3,a,0,0", "1,a,5,5", "1,b,0,0"],
         "<trj>:5: duplicate frame 1 for track 'a'"),
        (["0,a,inf,0", "1,a,0,0", "0,b,0,0", "0,b,1,1"],
         "<trj>: track 'a': non-finite position at frame 0"),
        (["0,a,nan,0", "0,a,1,1"], "<trj>:3: duplicate frame 0 for track 'a'"),
        # a second header would re-time every row, the ones above it too
        (["0,a,1,2", "1,a,1.1,2", "# fps=25", "2,a,1.2,2"],
         "<trj>:4: second `# fps=` header (the first is on line 1)"),
    ]
    for rows, message in cases:
        with pytest.raises(ParseError) as info:
            parse_canonical(["# fps=10"] + rows)
        assert str(info.value) == message
    # str.strip() removes \x1c..\x1f, which int() and float() refuse
    rec = parse_canonical(["# fps=10", "0\x1c,a,1.0\x1c,2.0", "1,a,2,3"])
    assert rec.trajectories[0].samples == (TimedPosition(0, 1.0, 2.0), TimedPosition(1, 2.0, 3.0))
    rec = parse_canonical(["# fps=10", "2, a ,2,0", "0,a,0,0", "1,a,1e0,-0.0"])
    assert rec.trajectories[0] == Trajectory.from_arrays(
        "a", [0, 1, 2], [[0.0, 0.0], [1.0, -0.0], [2.0, 0.0]], 10.0)


# Anything in one field of a canonical file line: a number of any size or
# form, a label code, or arbitrary text.
_PAIR_CODES = [lab.code for lab in InteractionLabel]
_GROUP_CODES = [lab.code for lab in CollectiveLabel]
_ANY_FIELD = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(_PAIR_CODES + _GROUP_CODES),
    st.text(max_size=6),
)
_FRAME = st.integers(0, 30).map(str)
_ID = st.sampled_from(["a", "b", " c "])
# two fields each: an annotation's frame range, and its two distinct track ids
_RANGE = st.lists(st.integers(0, 30), min_size=2, max_size=2).map(sorted).map(
    "{0[0]},{0[1]}".format)
_TWO_IDS = st.permutations(["a", "b", " c "]).map("{0[0]},{0[1]}".format)
_HEADER = st.one_of(st.just(["# fps=10"]), st.just(["# fps=25"]), st.just(["# fps=2.5"]),
                    st.lists(_ANY_FIELD.map("# fps={}".format), max_size=2))


@st.composite
def _file_lines(draw, *columns):
    """Lines of a canonical file: mostly rows of the given column
    strategies, some with one field replaced, added or dropped, and some
    arbitrary text."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 15))
        if kind == 15:
            lines.append(draw(st.text(max_size=12)))
            continue
        row = [draw(column) for column in columns]
        if kind >= 13:
            at = draw(st.integers(0, len(row)))
            if kind == 13:
                row.insert(at, draw(_ANY_FIELD))
            elif at < len(row):
                row[at] = draw(_ANY_FIELD)
            else:
                row.pop()
        lines.append(",".join(row))
    return lines


@settings(max_examples=200, deadline=None)
@given(_HEADER,
       _file_lines(_FRAME, _ID, st.floats(-10.0, 10.0).map(repr), st.floats().map(repr)),
       st.none() | _file_lines(_RANGE, _TWO_IDS, st.sampled_from(_PAIR_CODES)),
       st.none() | _file_lines(_RANGE, st.sampled_from(_GROUP_CODES)))
def test_canonical_parsing_parses_or_raises_proxrf_error(header, trj, pia, cba):
    try:
        rec = parse_canonical(header + trj, pia, cba)
    except ProxrfError:
        return
    assert rec.trajectories and 0.0 < rec.fps < math.inf


# Fields of a track file row in the forms int() and float() take or refuse:
# surrounding whitespace (some of it only str.strip() removes), signs,
# digit underscores, non-ASCII digits and exponents.
_FRAME_TEXT = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["+5", " 7 ", "1_0", "\u0665", "\u0661\u0662", "1e1", "2.0", "\x1c3",
                     "4\x85", "\u20286", str(2**53), str(2**53 + 1), "x", ""]),
)
_ID_TEXT = st.sampled_from(["a", "b", " a ", "a#1", "", " ", "\u00e9"])
_COORD_TEXT = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.sampled_from([" 1.5", "1_0.5", "+2", "\u0663.\u0665", "1e3", "-0.0", "inf", "nan",
                     "\x1d1.0", "2.0\u3000", "1e400", "z", ""]),
)


@st.composite
def _track_text(draw):
    """A track file's text: mostly a header and rows of the fields above,
    with blank, whitespace and comment lines, a second header, rows of
    another field count and lines before the header mixed in; the first
    value tells whether it is only a header line and four-field rows of
    plain numbers, which the columnar read must take."""
    plain = draw(st.booleans())
    lines = [draw(st.sampled_from(["# fps=10", "#fps=25.0", " # fps=2.5 "]))]
    if not plain:
        lines = draw(st.sampled_from([[], [""], ["# note"], ["0,a,1,2"]])) + [
            draw(st.sampled_from(["# fps=10", "# fps=abc", "# fps=-1", "# fps=1e3"]))]
    for _ in range(draw(st.integers(0 if not plain else 1, 10))):
        if plain:
            row = [str(draw(st.integers(0, 40))), draw(st.sampled_from(["a", "b"])),
                   repr(draw(st.floats(-10.0, 10.0))), repr(draw(st.floats(-10.0, 10.0)))]
            lines.append(",".join(row))
            continue
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "# fps=25", "#"])))
            continue
        row = [draw(_FRAME_TEXT), draw(_ID_TEXT), draw(_COORD_TEXT), draw(_COORD_TEXT)]
        if kind == 1:
            row.append(draw(_COORD_TEXT))
        elif kind == 2:
            row.pop()
        lines.append(",".join(row))
    ends = ["", "\n"] if plain else ["", "\n", "\n\n", "\n  "]
    return plain, "\n".join(lines) + draw(st.sampled_from(ends))


def _outcome(parse):
    """(fps, per track id, frames and position bytes) of a parse, or the
    text of its ParseError."""
    try:
        rec = parse()
    except ParseError as e:
        return str(e)
    return rec.fps, [(t.track_id, t.frames.tolist(), t.xy.tobytes()) for t in rec.trajectories]


@settings(max_examples=300, deadline=None)
@given(_track_text())
@example((False, "# fps=10\n0,a,1,2\n1,a,x,2\n2,a,1\n"))
@example((False, "# fps=10\n0,a,1,2\n1,a,1.1,2\n# fps=25\n2,a,1.2,2\n"))
@example((True, "# fps=10\n0,a,1.5,2.5\n1,a,1.0,2.0\n1,b,0.0,0.0\n"))
# eight fields over two lines, which read as two good rows if the lines
# are not told apart
@example((False, "# fps=10\n1,a,1,1,2\nb,1,1\n"))
# comment lines and `#` inside a row
@example((False, "# fps=10\n# 1,a,2,3\n0,a#1,1,2\n#fps=25,a,1,2\n"))
# a header line whose fps is refused, above plain rows
@example((False, "# fps=-1\n0,a,1,2\n"))
def test_whole_text_read_equals_row_by_row(track_text):
    # the columnar read of a track file's data lines and the row-by-row
    # read that reports the first bad line give the same trajectories or
    # error text; a plain file never falls back to the row-by-row read
    plain, text = track_text
    lines = text.split("\n")
    with mock.patch.object(dataset, "_track_row", wraps=dataset._track_row) as row:
        got = _outcome(lambda: parse_canonical(lines))
    with mock.patch.object(dataset, "_columns", lambda lines: None):
        want = _outcome(lambda: parse_canonical(lines))
    assert got == want
    if plain:
        assert not row.called


def test_comment_and_blank_lines_keep_the_columnar_read():
    # a track file with comment lines, blank lines or two last newlines
    # still reads its data lines at once, not row by row
    text = "# fps=10\n# tracker v2\n0,a,1.5,2\n\n1,a,2.5,2\n# end\n\n"
    with mock.patch.object(dataset, "_track_row", side_effect=AssertionError):
        rec = parse_canonical(text.split("\n"))
    assert rec.fps == 10.0
    (traj,) = rec.trajectories
    assert traj.frames.tolist() == [0, 1] and traj.xy.tolist() == [[1.5, 2.0], [2.5, 2.0]]


def test_byte_order_mark_is_not_data(tmp_path):
    # some Windows tools begin a UTF-8 file with a byte-order mark; a file
    # reads the same with or without one
    scene = {"s.trj": "# fps=10\n0,a,0.0,0.0\n1,a,0.1,0.0\n0,b,1.0,0.0\n1,b,1.1,0.0\n",
             "s.pia": "0,1,a,b,WT\n", "s.cba": "0,1,Talking\n"}
    ext = {"tracks.txt": "# fps=10\n0,a,100,200\n1,a,110,200\n0,b,300,400\n1,b,310,400\n",
           "H.hom": "0.1 0 0\n0 0.1 0\n0 0 1\n", "pairs.txt": "0,1,a,b,WT\n",
           "groups.txt": "0,1,Talking\n"}
    for mark in ("", "\ufeff"):
        root = tmp_path / f"mark{len(mark)}"
        (root / "ext" / "s").mkdir(parents=True)
        for name, text in scene.items():
            (root / name).write_text(mark + text, encoding="utf-8")
        for name, text in ext.items():
            (root / "ext" / "s" / name).write_text(mark + text, encoding="utf-8")
        (root / "folds.csv").write_text(mark + "s,0\nt,1\n", encoding="utf-8")
    plain, marked = tmp_path / "mark0", tmp_path / "mark1"
    assert (marked / "s.trj").read_bytes().startswith(b"\xef\xbb\xbf# fps=10")
    assert read_corpus(str(marked)) == read_corpus(str(plain))
    assert read_corpus(str(marked))[0].collective_annotations
    assert (adapt_external(str(marked / "ext"), "ncad-like")
            == adapt_external(str(plain / "ext"), "ncad-like"))
    assert FoldSplit.from_file(str(marked / "folds.csv")).assignments == {"s": 0, "t": 1}
    assert parse_canonical(["\ufeff# fps=10", "0,a,0,0"]) == parse_canonical(["# fps=10", "0,a,0,0"])
    # only one mark is dropped: a second is text before the header
    (marked / "s.trj").write_text("\ufeff\ufeff" + scene["s.trj"], encoding="utf-8")
    with pytest.raises(ParseError, match=r"s\.trj:1: data before `# fps=<float>` header"):
        read_corpus(str(marked))


@pytest.mark.parametrize("seq", ["we,ird", " lead", "trail ", "line\nbreak"])
def test_sequence_ids_must_be_writable(seq, tmp_path):
    # a sequence id is a CSV field of every extract and prediction row
    corpus = tmp_path / "corpus"
    write_scene(_pair_scene(seq="fine"), str(corpus))
    (corpus / f"{seq}.trj").write_text((corpus / "fine.trj").read_text())
    with pytest.raises(ParseError, match=f"{re.escape(seq)}.trj: sequence id {re.escape(repr(seq))} "
                                         "not representable"):
        read_corpus(str(corpus))
    _write_ext_seq(tmp_path / "ext", seq, TRACKS)
    with pytest.raises(ParseError, match=f"{re.escape(seq)}: sequence id"):
        adapt_external(str(tmp_path / "ext"), "ncad-like")
    with pytest.raises(ValueError, match="sequence id"):
        write_scene(_pair_scene(seq=seq), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- fold splits

def test_round_robin_split():
    split = FoldSplit.round_robin(["d", "b", "a", "c", "e"], n_folds=3)
    assert split.assignments == {"a": 0, "b": 1, "c": 2, "d": 0, "e": 1}
    assert split.fold_of("e") == 1
    for n_folds in (0, -1):
        with pytest.raises(InvalidConfig, match=">= 2 folds"):
            FoldSplit.round_robin(["d", "b", "a"], n_folds=n_folds)


def test_fold_split_from_file(tmp_path):
    p = tmp_path / "folds.csv"
    p.write_text("# comment\ns0,0\ns1, 1\ns2,2\n")
    split = FoldSplit.from_file(str(p))
    assert split.assignments == {"s0": 0, "s1": 1, "s2": 2}
    p.write_text("s0,zero\n")
    with pytest.raises(ParseError):
        FoldSplit.from_file(str(p))
    p.write_text("s0,7\n")
    with pytest.raises(ParseError):
        FoldSplit.from_file(str(p))
    p.write_text("s0,0,extra\n")
    with pytest.raises(ParseError):
        FoldSplit.from_file(str(p))
    # a sequence listed twice is refused, not silently reassigned
    p.write_text("a,0\n# comment\na,1\n")
    with pytest.raises(ParseError, match=r"folds.csv:3: sequence 'a' already assigned on line 1"):
        FoldSplit.from_file(str(p))
    with pytest.raises(ValueError):
        FoldSplit({"s0": 3}, n_folds=3)


# --------------------------------------------------------------- homography

def test_apply_homography_matches_manual():
    rng = np.random.default_rng(7)
    for trial in range(3):
        h_mat = rng.normal(size=(3, 3)) + np.eye(3) * 2.0
        pts = rng.uniform(-50, 50, size=(40, 2))
        got = apply_homography(h_mat, pts)
        for p, g in zip(pts, got):
            v = h_mat @ np.array([p[0], p[1], 1.0])
            np.testing.assert_allclose(g, v[:2] / v[2], atol=1e-9)


def _write_ext_seq(root, name, tracks, hom="0.1 0 0\n0 0.1 0\n0 0 1\n",
                   pairs=None, groups=None):
    d = root / name
    d.mkdir(parents=True)
    (d / "tracks.txt").write_text(tracks, encoding="utf-8")
    (d / "H.hom").write_text(hom)
    if pairs is not None:
        (d / "pairs.txt").write_text(pairs)
    if groups is not None:
        (d / "groups.txt").write_text(groups)


TRACKS = "# fps=25.0\n0,p1,100,200\n1,p1,110,200\n0,p2,300,400\n1,p2,310,400\n"


def test_adapt_ncad_like(tmp_path):
    _write_ext_seq(tmp_path, "seq1", TRACKS,
                   pairs="0,1,p1,p2,WT\n", groups="0,1,Talking\n")
    recs = adapt_external(str(tmp_path), "ncad-like")
    assert len(recs) == 1 and recs[0].sequence_id == "seq1"
    rec = recs[0]
    assert rec.fps == 25.0
    np.testing.assert_allclose(rec.track("p1").xy, [[10.0, 20.0], [11.0, 20.0]],
                               atol=1e-12)
    assert rec.pair_annotations[0].label is WT
    assert rec.collective_annotations[0].label is TALK


def test_adapt_box_foot_points(tmp_path):
    tracks = "# fps=10.0\n0,p1,10,20,30,60\n1,p1,12,20,32,60\n"
    _write_ext_seq(tmp_path, "seq1", tracks)
    bottom = adapt_external(str(tmp_path), "ncad-like", foot_point="bottom-center")
    np.testing.assert_allclose(bottom[0].track("p1").xy[0], [2.0, 6.0], atol=1e-12)
    center = adapt_external(str(tmp_path), "ncad-like", foot_point="box-center")
    np.testing.assert_allclose(center[0].track("p1").xy[0], [2.0, 4.0], atol=1e-12)
    with pytest.raises(ParseError):
        adapt_external(str(tmp_path), "ncad-like", foot_point="point")


def test_adapt_behave_drops_fighting(tmp_path):
    _write_ext_seq(tmp_path, "seqF", TRACKS,
                   groups="0,0,Fighting\n1,1,Talking\n")
    with pytest.warns(UserWarning, match="Fighting"):
        recs = adapt_external(str(tmp_path), "behave-like")
    assert [a.label for a in recs[0].collective_annotations] == [TALK]
    # ncad-like has no Fighting concept: the label is simply unknown
    with pytest.raises(ParseError):
        adapt_external(str(tmp_path), "ncad-like")


def test_adapt_external_errors(tmp_path):
    with pytest.raises(ConfigError):
        adapt_external(str(tmp_path), "weird-layout")
    with pytest.raises(ConfigError):
        adapt_external(str(tmp_path / "ncad"), "ncad-like")
    with pytest.raises(ConfigError):
        adapt_external(str(tmp_path), "ncad-like", foot_point="head")
    seq = tmp_path / "seq1"
    seq.mkdir()
    (seq / "tracks.txt").write_text(TRACKS)
    with pytest.raises(ConfigError):
        adapt_external(str(tmp_path), "ncad-like")  # homography missing
    (seq / "H.hom").write_text("0 0 0\n0 0 0\n0 0 0\n")
    with pytest.raises(ParseError):
        adapt_external(str(tmp_path), "ncad-like")  # singular
    (seq / "H.hom").write_text("1 0 0 0 1 0 0 0\n")
    with pytest.raises(ParseError):
        adapt_external(str(tmp_path), "ncad-like")  # 8 entries


# ids of any printable text, the empty id and `#` included
_EXT_ID = st.one_of(st.sampled_from(["", " ", "#", "a#1", "#a", "p1", "p2"]),
                    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3))
_PIXEL = st.floats(-500.0, 500.0).map(repr)


@st.composite
def _ext_tracks(draw):
    """Lines of a `tracks.txt`: one or two fps headers, then point and
    box rows, or no rows at all."""
    lines = draw(st.sampled_from([["# fps=10"], ["# fps=25.0"], ["# fps=10", "# fps=25"]]))
    for _ in range(draw(st.integers(0, 8))):
        coords = draw(st.sampled_from([2, 4]).flatmap(
            lambda n: st.lists(_PIXEL, min_size=n, max_size=n)))
        lines.append(",".join([str(draw(st.integers(0, 6))), draw(_EXT_ID)] + coords))
    return lines


# a scaling, and a perspective map whose horizon crosses the pixel range
_HOMS = ["0.1 0 0\n0 0.1 0\n0 0 1\n", "0.9 -0.1 2.0\n0.05 1.1 -1.0\n0.001 0.002 1.0\n"]


@settings(max_examples=100, deadline=None)
@given(st.lists(_ext_tracks(), min_size=1, max_size=2),
       st.sampled_from(["ncad-like", "behave-like"]), st.sampled_from(FOOT_POINTS),
       st.sampled_from(_HOMS))
@example([["# fps=10", "0,,1,2", "1,,2,2"]], "ncad-like", "point", _HOMS[0])
@example([["# fps=10", "0,#,1,2", "1,#,2,2"]], "ncad-like", "point", _HOMS[0])
@example([["# fps=10"]], "ncad-like", "point", _HOMS[0])
def test_adapt_refuses_or_round_trips(sequences, layout, foot_point, hom):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "ext"
        for k, lines in enumerate(sequences):
            _write_ext_seq(root, f"s{k}", "\n".join(lines) + "\n", hom=hom)
        try:
            recs = adapt_external(str(root), layout, foot_point)
        except ProxrfError:
            return
        write_corpus(recs, os.path.join(tmp, "canon"))
        assert read_corpus(os.path.join(tmp, "canon")) == recs


def test_adapt_canonical_layout(tmp_path):
    rec = _pair_scene()
    write_scene(rec, str(tmp_path))
    assert adapt_external(str(tmp_path), "canonical") == [rec]


# ------------------------------------------------------------------ windows

def test_window_center_arithmetic():
    # 64 frames fit exactly one 64-frame window, centered right of middle
    rec = _pair_scene(n_frames=64)
    out = list(windows(rec, 64, 5, "pairs"))
    assert out == [(31, ("a", "b"), WT)]
    rec = _pair_scene(n_frames=128, anns=((0, 127),))
    centers = [c for c, _, _ in windows(rec, 64, 5, "pairs")]
    assert centers == list(range(31, 96, 5))
    assert len(centers) == 13


def test_window_label_coverage_boundary():
    # 75% of 64 frames is 48: an annotation covering exactly 48 frames of
    # the window passes, one frame fewer fails
    kept = _pair_scene(n_frames=64, anns=((16, 63),))
    assert len(list(windows(kept, 64, 5, "pairs"))) == 1
    dropped = _pair_scene(n_frames=64, anns=((17, 63),))
    assert list(windows(dropped, 64, 5, "pairs")) == []
    # coverage may be stitched from several same-label ranges
    stitched = _pair_scene(n_frames=64, anns=((16, 39), (40, 63)))
    assert len(list(windows(stitched, 64, 5, "pairs"))) == 1
    # the center frame itself must be annotated
    head = _pair_scene(n_frames=64, anns=((0, 30),))
    assert list(windows(head, 64, 5, "pairs")) == []
    tail_to_center = _pair_scene(n_frames=64, anns=((0, 47),))
    assert len(list(windows(tail_to_center, 64, 5, "pairs"))) == 1


def test_pairs_mode_requires_track_coverage():
    a = straight_traj("a", 1.2, 0.0, 64)
    xy = straight_traj("b", 1.2, 0.0, 64, origin=(0.0, 1.0)).xy
    frames = [f for f in range(64) if not 10 <= f < 25]  # 15-frame hole
    b = make_traj("b", xy[frames], frames=frames)
    rec = SceneRecording("s", 10.0, [a, b], [PairAnnotation(0, 63, "a", "b", WT)])
    assert list(windows(rec, 64, 5, "pairs")) == []


def test_group_mode_membership():
    a = straight_traj("a", 1.2, 0.0, 64)
    b = straight_traj("b", 1.2, 0.0, 20, origin=(0.0, 1.0))  # frames 0..19
    c = straight_traj("c", 1.2, 0.0, 30, origin=(0.0, 2.0), first_frame=34)
    rec = SceneRecording("s", 10.0, [a, b, c], [],
                         [CollectiveAnnotation(0, 63, TALK)])
    out = list(windows(rec, 64, 5, "group"))
    # b and c overlap the window [0, 63] somewhere, so both participate
    assert out == [(31, ("a", "b", "c"), TALK)]
    short = SceneRecording("s", 10.0, [a, b, c], [],
                           [CollectiveAnnotation(0, 40, TALK)])
    assert list(windows(short, 64, 5, "group")) == []  # 41 < 48 frames


def _windows_frame_by_frame(rec, window_len, step, mode, max_gap):
    """Reference enumeration: every grid center of the frame range.  A
    group window needs a track piece inside it; its members are the
    tracks whose span overlaps it."""
    lo, hi = rec.frame_range
    back, fwd = window_len // 2 - 1, window_len // 2
    tracks = {t.track_id: t for t in rec.trajectories}
    by_pair = {}
    for a in rec.pair_annotations:
        by_pair.setdefault((a.anchor_id, a.target_id), []).append(a)
    out = []
    for center in range(lo + back, hi - fwd + 1, step):
        start, end = center - back, center + fwd
        groups = sorted(by_pair.items()) if mode == "pairs" else [(None, rec.collective_annotations)]
        for pair, anns in groups:
            at_center = [a for a in anns if a.start <= center <= a.end]
            if not at_center:
                continue
            label = at_center[0].label
            frames = {f for a in anns if a.label is label
                      for f in range(max(a.start, start), min(a.end, end) + 1)}
            if len(frames) < math.ceil(0.75 * window_len):
                continue
            if pair is None:
                ids = tuple(sorted(t.track_id for t in rec.trajectories
                                   if t.first_frame <= end and t.last_frame >= start))
                if any(first <= end and last >= start
                       for t in rec.trajectories for first, last in t.pieces(max_gap)):
                    out.append((center, ids, label))
            elif all(covers(tracks[i], start, end, max_gap) for i in pair):
                out.append((center, pair, label))
    return out


def test_windows_match_frame_by_frame_enumeration():
    rng = np.random.default_rng(8)
    labels, coll = list(InteractionLabel), list(CollectiveLabel)
    for trial in range(40):
        tracks = []
        for tid in "abcd":
            first = int(rng.integers(0, 120))
            frames = np.arange(first, first + int(rng.integers(2, 160)))
            holes = rng.random(len(frames)) < 0.03  # 3-frame holes exceed max_gap
            holes = holes | np.roll(holes, 1) | np.roll(holes, 2)
            holes[[0, -1]] = False
            frames = frames[~holes]
            tracks.append(make_traj(tid, rng.normal(size=(len(frames), 2)), frames=frames))
        pair_anns = []
        for aid, tid in (("a", "b"), ("b", "a"), ("c", "d"), ("a", "d")):
            cut = int(rng.integers(20, 250))
            for start, end in ((int(rng.integers(0, cut)), cut), (cut + 1, cut + 60)):
                pair_anns.append(PairAnnotation(start, end, aid, tid,
                                                labels[int(rng.integers(6))]))
        cut = int(rng.integers(10, 250))
        coll_anns = [CollectiveAnnotation(int(rng.integers(0, cut)), cut, coll[trial % 6]),
                     CollectiveAnnotation(cut + 1, cut + 90, coll[(trial + 1) % 6])]
        rec = SceneRecording("s", 10.0, tracks, pair_anns, coll_anns)
        for window_len, step in ((16, 3), (32, 5), (64, 7)):
            for mode in ("pairs", "group"):
                want = _windows_frame_by_frame(rec, window_len, step, mode, 2)
                assert list(windows(rec, window_len, step, mode, 2)) == want


def test_windows_follow_annotations_not_frame_numbers(tmp_path):
    # two tracks 2**53 frames apart: a walk through every grid center of
    # the frame range would not finish
    big = 2**53
    (tmp_path / "s.trj").write_text(
        f"# fps=10.0\n0,a,0.0,0.0\n1,a,0.1,0.0\n{big - 1},b,1.0,0.0\n{big},b,1.1,0.0\n")
    (tmp_path / "s.pia").write_text("0,1,a,b,WT\n")
    (tmp_path / "s.cba").write_text(f"0,{big},Walking\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pairs = subprocess.run(
        [sys.executable, "-m", "proxrf.cli", "train", "interactions", str(tmp_path),
         "--out", str(tmp_path / "m.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert pairs.returncode == 6, pairs.stderr
    assert pairs.stderr.startswith("ERROR EmptyTrainingSet"), pairs.stderr
    group = subprocess.run(
        [sys.executable, "-c", "import sys; from proxrf.dataset import read_scene, windows; "
         "print([(c, ids) for c, ids, _ in windows(read_scene(sys.argv[1]), 64, 5, 'group')])",
         str(tmp_path / "s.trj")],
        env=env, capture_output=True, text=True, timeout=60)
    assert group.returncode == 0, group.stderr
    # only the window at the start overlaps a track: the grid misses b's end
    assert group.stdout == "[(31, ('a',))]\n"


def test_group_windows_skip_track_gaps(tmp_path):
    # b's two samples are 2**53 frames apart, far beyond max_gap: a walk
    # through every grid center of b's span would not finish
    big = 2**53
    (tmp_path / "s.trj").write_text(
        f"# fps=10.0\n0,a,0.0,0.0\n1,a,0.1,0.0\n0,b,1.0,0.0\n{big},b,1.1,0.0\n")
    (tmp_path / "s.cba").write_text(f"0,{big},Walking\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    group = subprocess.run(
        [sys.executable, "-c", "import sys; from proxrf.dataset import read_scene, windows; "
         "print([(c, ids) for c, ids, _ in windows(read_scene(sys.argv[1]), 64, 5, 'group')])",
         str(tmp_path / "s.trj")],
        env=env, capture_output=True, text=True, timeout=60)
    assert group.returncode == 0, group.stderr
    # only the window at the start holds a track piece; b's span still
    # makes it a member there
    assert group.stdout == "[(31, ('a', 'b'))]\n"


def test_windows_validation():
    rec = _pair_scene()
    with pytest.raises(ValueError):
        list(windows(rec, 48, 5, "pairs"))
    with pytest.raises(ValueError):
        list(windows(rec, 64, 0, "pairs"))
    with pytest.raises(ValueError):
        list(windows(rec, 64, 5, "triplets"))
