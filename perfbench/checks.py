"""Correctness checks on the outputs of one workload round.

Each check returns a list of problems (empty when the output is right).
Expected counts and labels come from ``workloads.expected_rows``; scores
are recomputed here from the raw outputs, never read back as given.
"""

from __future__ import annotations

import json

import numpy as np

INTERACTION_CLASSES = ("BF", "F", "WT", "SP", "S", "Ap")
COLLECTIVE_CLASSES = ("Gathering", "Talking", "Dismissal", "Walking", "Chasing", "Queuing")
# row kind -> class names and descriptor length of the model that scores it
CLASSES = {"pair": INTERACTION_CLASSES, "group": COLLECTIVE_CLASSES}
FEATURES = {"pair": 19, "group": 9}

# Chance is 1/6 on both tasks; a working pipeline stays far above this.
MPCA_FLOOR = 0.5

_MAX_LISTED = 5  # problems listed per check before summarising the rest


def _capped(problems: list) -> list:
    if len(problems) <= _MAX_LISTED:
        return problems
    return problems[:_MAX_LISTED] + [f"... and {len(problems) - _MAX_LISTED} more"]


def mpca(truth: list, pred: list) -> float:
    """Mean over the true classes present of the share predicted right."""
    per_class = {}
    for t, p in zip(truth, pred):
        hit, n = per_class.get(t, (0, 0))
        per_class[t] = (hit + (t == p), n + 1)
    return float(np.mean([hit / n for hit, n in per_class.values()]))


def check_report(path: str, kind: str, expected_total: int) -> tuple:
    """(mpca recomputed from the confusion counts, problems) of the
    report.json of an eval over ``kind`` ("pair" or "group") windows."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        classes = tuple(doc["confusion"]["classes"])
        counts = np.array(doc["confusion"]["counts"], dtype=np.int64)
        given = float(doc["mpca"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"{path}: unreadable report ({exc})"]
    problems = []
    if classes != CLASSES[kind]:
        problems.append(f"{path}: classes {classes} != {CLASSES[kind]}")
    k = len(CLASSES[kind])
    if counts.shape != (k, k) or np.any(counts < 0):
        return None, problems + [f"{path}: confusion is not a non-negative {k}x{k} matrix"]
    if int(counts.sum()) != expected_total:
        problems.append(f"{path}: confusion total {int(counts.sum())} != {expected_total} windows")
    support = counts.sum(axis=1)
    keep = support > 0
    score = float(np.mean(np.diag(counts)[keep] / support[keep]))
    if abs(score - given) > 1e-12:
        problems.append(f"{path}: mpca {given!r} != {score!r} recomputed from the counts")
    return score, problems


def check_model(path: str, kind: str) -> tuple:
    """(tree count or None, problems): a "pair" or "group" model must load
    through proxrf.forest.deserialize with its descriptor length and classes."""
    from proxrf.errors import ProxrfError
    from proxrf.forest import deserialize

    try:
        with open(path, "rb") as fh:
            model = deserialize(fh.read())
    except (OSError, ProxrfError) as exc:
        return None, [f"{path}: does not load ({exc})"]
    problems = []
    if model.feature_count != FEATURES[kind]:
        problems.append(f"{path}: {model.feature_count} features, expected {FEATURES[kind]}")
    if model.class_names != CLASSES[kind]:
        problems.append(f"{path}: classes {model.class_names} != {CLASSES[kind]}")
    return len(model.trees), problems


def check_probabilities(probs: list, label: str, classes: tuple, n_trees: int) -> list:
    """Problems with one probability row: each value a vote share of the
    n_trees trees summing to 1, and the label the arg-max, ties going to
    the lowest class id."""
    if len(probs) != len(classes):
        return [f"{len(probs)} probabilities for {len(classes)} classes"]
    p = np.array(probs, dtype=float)
    votes = p * n_trees
    whole = np.round(votes)
    problems = []
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        problems.append("negative or non-finite probability")
    if abs(p.sum() - 1.0) > 1e-9:
        problems.append(f"probabilities sum to {p.sum()!r}")
    if np.any(np.abs(votes - whole) > 1e-6):
        problems.append(f"probabilities are not multiples of 1/{n_trees}")
    elif label != classes[int(np.argmax(whole))]:
        problems.append(f"label {label} is not the arg-max {classes[int(np.argmax(whole))]}")
    return problems


def check_predictions(path: str, expected: dict, models: dict) -> tuple:
    """({kind: mpca}, problems) for a predict CSV.

    ``expected`` maps (sequence, centre, kind, ids) to the true label of
    every row the file must hold; ``models`` maps a row kind ("pair",
    "group") to the tree count of the model that scored it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        return {}, [f"{path}: unreadable ({exc})"]
    problems, seen = [], set()
    truth, pred = {}, {}
    for n, line in enumerate(lines, 1):
        fields = line.split(",")
        try:
            seq, center, kind, ids, label = fields[:5]
            key = (seq, int(center), kind, ids)
            probs = [float(v) for v in fields[5:]]
        except ValueError:
            problems.append(f"row {n}: unparsable {line[:60]!r}")
            continue
        if key in seen:
            problems.append(f"row {n}: duplicate window {key}")
            continue
        seen.add(key)
        if key not in expected:
            problems.append(f"row {n}: unexpected window {key}")
            continue
        if kind not in models:
            problems.append(f"row {n}: no model scores {kind} rows")
            continue
        found = check_probabilities(probs, label, CLASSES[kind], models[kind])
        problems += [f"row {n}: {p}" for p in found]
        truth.setdefault(kind, []).append(expected[key])
        pred.setdefault(kind, []).append(label)
    missing = [k for k in expected if k not in seen and k[2] in models]
    if missing:
        problems.append(f"{len(missing)} expected rows missing, e.g. {missing[0]}")
    scores = {kind: mpca(truth[kind], pred[kind]) for kind in truth}
    return scores, _capped(problems)
