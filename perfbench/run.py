"""proxrf benchmark: drive the CLI as its users do and report every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source tree.  Set-up generates the workload's
corpora from the seed (once before every command, reporting the median
of all of them).  Then, for
about S seconds, whole rounds of the workload's commands run one after
another as child processes: one process at a time, ``--threads 1``, each
command waiting for the last (a closed loop with one client).  Every
round's outputs are checked.  A fixed pure-Python loop is timed just
before and just after every command; the command's wall time divided by
that reference time is its time in "ref" units, which the shared
machine's drifting speed moves far less than seconds.  With ``--trace 1``
rounds alternate between untraced and traced, where each command runs
in-process under ``tracer.py``; the per-layer numbers come from the
traced rounds and the tracing overhead is the difference of the two
kinds of round.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record (environment, seeds, every round)
goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 1  # before every command
REFERENCE_REPEATS = 5  # reference loops timed before and after every command
MIN_ROUNDS = 2
HARD_LIMIT_S = 170.0  # every child is killed by then, so the run ends within 180 s
CLI = "import sys; from proxrf.cli import main; sys.exit(main())"  # what the proxrf script runs

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "train_ref": "ref",
    "predict_ref": "ref",
    "peak_rss_mb": "MB",
    "model_bytes": "B",
    "mpca": "1",
}
# per-layer self-time metric -> span name recorded by tracer.py
LAYER_SPANS = {
    "dataset.read_s": "dataset.read",
    "trajectory.smooth_s": "trajectory.smooth",
    "pid.descriptor_s": "pid.descriptor",
    "forest.train_s": "forest.train",
    "forest.vote_s": "forest.vote",
    "forest.serialize_s": "forest.serialize",
    "forest.deserialize_s": "forest.deserialize",
    "cbd.window_build_s": "cbd.window_build",
    "cbd.cues_s": "cbd.cues",
    "cbd.self_s": "cbd",
    "evaluate.self_s": "evaluate",
    "cli.self_s": "cli",
}
LAYER_COUNTS = (
    "dataset.scenes",
    "trajectory.tracks",
    "pid.descriptors",
    "forest.trees",
    "forest.train_rows",
    "forest.vote_calls",
    "cbd.group_windows",
)
PER_LAYER_UNITS = {
    **{m: "s" for m in LAYER_SPANS},
    "cli.import_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ref": "ref",
    **{m: "count" for m in LAYER_COUNTS},
    "pid.frame_reuse": "ratio",
    "forest.rows_per_call": "rows/call",
}


def reference_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the shared
    machine runs at that moment, about 10 to 20 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def reference_median() -> float:
    return median([reference_s() for _ in range(REFERENCE_REPEATS)])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv: list, log_path: Path, deadline: float) -> dict:
    """Run one child to completion: wall seconds, peak RSS and exit code."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: stop the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


# ------------------------------------------------------------------- trace


def self_times(spans: list) -> dict:
    """Per span name, the summed span durations minus their nested spans."""
    nested = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            nested[parent] += end - start
    totals = {}
    for (name, start, end, _parent), inner in zip(spans, nested):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


def layer_round(commands: list) -> dict:
    """Per-layer figures of one traced round from its commands' span files."""
    out = {m: 0.0 for m in LAYER_SPANS}
    out.update({m: 0 for m in LAYER_COUNTS})
    out["cli.import_s"] = 0.0
    evaluations = distinct = vote_rows = 0
    for cmd in commands:
        with open(cmd["spans"], encoding="utf-8") as fh:
            doc = json.load(fh)
        totals = self_times(doc["spans"])
        for metric, span in LAYER_SPANS.items():
            out[metric] += totals.get(span, 0.0)
        for name in LAYER_COUNTS:
            out[name] += doc["counts"].get(name, 0)
        out["cli.import_s"] += doc["import_s"]
        evaluations += doc["pid_evaluations"]
        distinct += doc["pid_distinct"]
        vote_rows += doc["counts"].get("forest.vote_rows", 0)
    wall = sum(cmd["wall_s"] for cmd in commands)
    attributed = out["cli.import_s"] + sum(out[m] for m in LAYER_SPANS)
    out["unattributed_s"] = wall - attributed
    out["trace.wall_s"] = wall
    out["pid.frame_reuse"] = evaluations / distinct if distinct else 0.0
    calls = out["forest.vote_calls"]
    out["forest.rows_per_call"] = vote_rows / calls if calls else 0.0
    return out


# ------------------------------------------------------------------ rounds


class Bench:
    def __init__(self, workload, size: str, seed: int, work: Path, deadline: float):
        self.wl = workload
        self.size = size
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.corpora = {}
        self.setup_times = []
        self.model_digests = None
        self.problems = []  # wrong outputs of commands that succeeded
        self.failures = []  # commands that exited non-zero

    def setup(self) -> None:
        """Generate and write the corpora SETUP_REPEATS times, timing each.

        Runs before every command, so the set-up samples spread over the
        whole run and a short slow spell of the shared machine moves few of
        them.  Every copy is identical; the commands read the first one.
        """
        for _ in range(SETUP_REPEATS):
            target = self.work / f"corpora-{len(self.setup_times)}"
            start = time.perf_counter()
            corpora = workloads.write_corpora(self.wl, self.size, self.seed, str(target))
            self.setup_times.append(time.perf_counter() - start)
            if self.corpora:
                shutil.rmtree(target)
            else:
                self.corpora = corpora

    def run_round(self, index: int, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        commands = []
        for i, cmd in enumerate(self.wl.commands):
            self.setup()
            paths = {name: c["path"] for name, c in self.corpora.items()}
            paths["out"] = str(out)
            argv = workloads.fill(cmd.argv, paths, self.seed)
            if traced:
                spans = self.work / f"spans-{i}.json"
                prog = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
            else:
                prog = [sys.executable, "-c", CLI, *argv]
            before = reference_median()
            res = run_process(prog, self.work / f"log-{i}.txt", self.deadline)
            ref = (before + reference_median()) / 2
            res.update(role=cmd.role, argv=argv, ref_s=ref, wall_ref=res["wall_s"] / ref)
            if traced:
                res["spans"] = str(spans)
            if res["rc"] != 0:
                log = (self.work / f"log-{i}.txt").read_text(errors="replace").strip()
                self.failures.append(f"round {index}: {' '.join(argv[:2])} exited {res['rc']}: {log[-300:]}")
            commands.append(res)
        rnd = {
            "traced": traced,
            "commands": [{k: v for k, v in c.items() if k != "spans"} for c in commands],
            "wall_s": sum(c["wall_s"] for c in commands),
            "wall_ref": sum(c["wall_ref"] for c in commands),
            "train_ref": sum(c["wall_ref"] for c in commands if c["role"] == "train"),
            "predict_ref": sum(c["wall_ref"] for c in commands if c["role"] == "predict"),
            "peak_rss_mb": max(c["rss_mb"] for c in commands),
            "failed": sum(c["rc"] != 0 for c in commands),
        }
        if rnd["failed"] == 0:
            rnd.update(self.check(index, out))
            if traced:
                rnd["layers"] = layer_round(commands)
        return rnd

    def check(self, index: int, out: Path) -> dict:
        problems = []
        models, digests, size = {}, {}, 0
        for fname, kind in self.wl.models:
            path = out / fname
            n_trees, found = checks.check_model(str(path), kind)
            problems += found
            if n_trees is not None:
                models[kind] = n_trees
                blob = path.read_bytes()
                size += len(blob)
                digests[fname] = hashlib.sha256(blob).hexdigest()
        if self.model_digests is None:
            self.model_digests = digests
        elif digests != self.model_digests:
            problems.append("model bytes differ from the first round's, with the same seed")
        scores, found = checks.check_predictions(
            str(out / "predictions.csv"), self.corpora["heldout"]["rows"], models
        )
        problems += found
        if self.wl.report_kind:
            kind = self.wl.report_kind
            total = sum(k[2] == kind for k in self.corpora["cv"]["rows"])
            score, found = checks.check_report(str(out / "report" / "report.json"), kind, total)
            problems += found
        else:
            score = scores.get("group")
        if score is None:
            problems.append("no headline mpca")
        elif self.size == "full" and score < checks.MPCA_FLOOR:
            problems.append(f"mpca {score:.4f} below the floor {checks.MPCA_FLOOR}")
        self.problems += [f"round {index}: {p}" for p in problems]
        return {"mpca": score, "model_bytes": size, "checked": not problems}


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def median(values: list) -> float:
    return float(statistics.median(values))


def summarise(bench: Bench, rounds: list, trace: bool) -> dict:
    if not trace:
        checked = [r for r in rounds if r["failed"] == 0]
        metrics = {
            "setup_s": median(bench.setup_times),
            "wall_ref": median([r["wall_ref"] for r in rounds]),
            "train_ref": median([r["train_ref"] for r in rounds]),
            "predict_ref": median([r["predict_ref"] for r in rounds]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
            "model_bytes": median([r["model_bytes"] for r in checked]) if checked else 0,
            "mpca": median([r["mpca"] for r in checked if r["mpca"] is not None] or [0.0]),
        }
        units = END_TO_END_UNITS
    else:
        traced = [r["layers"] for r in rounds if r["traced"] and "layers" in r]
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name == "trace.overhead_ref":
                continue
            metrics[name] = median([t[name] for t in traced]) if traced else 0.0
        # each traced round against the untraced round just before it
        pairs = zip(rounds, rounds[1:])
        metrics["trace.overhead_ref"] = median(
            [b["wall_ref"] - a["wall_ref"] for a, b in pairs if b["traced"] and not a["traced"]]
        )
        units = PER_LAYER_UNITS
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    started = time.monotonic()
    # on SIGTERM unwind like on Ctrl-C, so the running child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "proxrf" / "cli.py").is_file():
        print(f"perfbench: no proxrf source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import proxrf

    if Path(proxrf.__file__).resolve().parent != (SRC / "proxrf").resolve():
        print(f"perfbench: imported proxrf from {proxrf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = STATE / f"work-{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, args.size, args.seed, work, started + HARD_LIMIT_S)
    try:
        rounds, durations = [], []
        t0 = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            start = time.perf_counter()
            rounds.append(bench.run_round(len(rounds), traced))
            durations.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - t0
            if len(rounds) >= MIN_ROUNDS and elapsed + median(durations) > args.seconds:
                break
        metrics = summarise(bench, rounds, bool(args.trace))
        record = {
            "workload": wl.name,
            "size": args.size,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "measured_s": time.perf_counter() - t0,
            "environment": environment(),
            "corpora": {
                name: {
                    "seed": c["seed"],
                    "spec": vars(wl.corpora[args.size][name]),
                    "scenes": len(c["scenes"]),
                    "dropped_detections": c["dropped"],
                }
                for name, c in bench.corpora.items()
            },
            "setup_s": bench.setup_times,
            "rounds": rounds,
            "failures": bench.failures,
            "problems": bench.problems,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    attempted = sum(len(r["commands"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for p in bench.failures:
        print(f"FAILED {p}", file=sys.stderr)
    for p in bench.problems:
        print(f"WRONG {p}", file=sys.stderr)
    print(f"{wl.name}: {len(rounds)} rounds, {attempted} commands, record in {results / name}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
