"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q

The tiny size runs every workload end to end with its checks; the
corruption tests show that the checker rejects a damaged output.
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

import checks
import run
import workloads


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--size", "tiny"]) == 0
    res = _result(capsys)
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] == 2 * len(workloads.WORKLOADS[name].commands)
    assert set(res["metrics"]) == set(run.END_TO_END_UNITS)
    assert res["metrics"]["wall_ref"]["value"] > 0


def test_traced_run_reports_every_layer_and_accounts_for_the_wall(capsys):
    argv = ["--workload", "deploy", "--seed", "3", "--seconds", "0", "--size", "tiny", "--trace", "1"]
    assert run.main(argv) == 0
    res = _result(capsys)
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    attributed = metrics["cli.import_s"] + sum(metrics[m] for m in run.LAYER_SPANS)
    assert attributed + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["unattributed_s"] < 0.2 * metrics["trace.wall_s"]
    for name in ("pid.descriptors", "forest.vote_calls", "cbd.group_windows", "dataset.scenes"):
        assert metrics[name] > 0, name


def test_self_times_subtract_nested_spans():
    spans = [("cli", 0.0, 10.0, -1), ("cbd", 1.0, 5.0, 0), ("forest.vote", 2.0, 3.0, 1),
             ("forest.vote", 6.0, 7.0, 0)]
    assert run.self_times(spans) == {"cli": 5.0, "cbd": 3.0, "forest.vote": 2.0}


@pytest.fixture(scope="module")
def deploy_round(tmp_path_factory):
    """One checked tiny deploy round; tests corrupt copies of its outputs."""
    work = tmp_path_factory.mktemp("deploy")
    bench = run.Bench(workloads.DEPLOY, "tiny", 5, work, time.monotonic() + run.HARD_LIMIT_S)
    bench.setup()
    rnd = bench.run_round(0, traced=False)
    assert rnd["failed"] == 0 and rnd["checked"], bench.failures + bench.problems
    return bench, work / "out"


def _edit_probability(lines):
    i = next(i for i, ln in enumerate(lines) if ",group," in ln)
    fields = lines[i].split(",")
    fields[5] = repr(float(fields[5]) + 0.01)
    lines[i] = ",".join(fields)


def _drop_row(lines):
    del lines[-1]


def _swap_label(lines):
    i = next(i for i, ln in enumerate(lines) if ",pair," in ln)
    fields = lines[i].split(",")
    fields[4] = next(c for c in checks.INTERACTION_CLASSES if c != fields[4])
    lines[i] = ",".join(fields)


@pytest.mark.parametrize("corrupt", [_edit_probability, _drop_row, _swap_label])
def test_checker_rejects_a_corrupted_prediction_file(deploy_round, tmp_path, corrupt):
    bench, out = deploy_round
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    csv = copy / "predictions.csv"
    lines = csv.read_text().splitlines()
    corrupt(lines)
    csv.write_text("\n".join(lines) + "\n")
    bench.problems.clear()
    assert bench.check(1, copy)["checked"] is False
    assert bench.problems


def test_checker_rejects_a_changed_model(deploy_round, tmp_path):
    bench, out = deploy_round
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    model = copy / "group.model"
    model.write_bytes(model.read_bytes().replace(b'"n_trees":', b'"n_trees": ', 1))
    bench.problems.clear()
    assert bench.check(1, copy)["checked"] is False
    assert any("differ" in p for p in bench.problems)


def test_report_mpca_is_recomputed_from_the_counts(tmp_path):
    counts = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    counts[0] = [1, 1, 0, 0, 0, 0]
    doc = {"mpca": 5.5 / 6, "confusion": {"classes": list(checks.INTERACTION_CLASSES), "counts": counts}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert checks.check_report(str(path), "pair", 12) == (5.5 / 6, [])
    assert checks.check_report(str(path), "pair", 13)[1]  # window total
    doc["mpca"] = 0.95
    path.write_text(json.dumps(doc))
    assert any("recomputed" in p for p in checks.check_report(str(path), "pair", 12)[1])


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
