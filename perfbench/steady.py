"""Steadiness check: run every workload on ten seeds, in two sets, and
compare the sets within the bounds in BENCHMARK.json.

    python3 perfbench/steady.py

Set 0 uses seeds 1 to 10 and set 1 seeds 1001 to 1010.  For each
end-to-end metric of each workload and set it prints the median over the
seeds and the spread (distance between the first and third quartile as a
share of the median).  It fails when any spread exceeds the metric's bound,
when the two sets' medians differ by more than the bound in either
direction, or when the share of failed operations differs between the
sets.  A summary goes to .perfbench/results/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10
SETS = 2
FIRST_SEED = 1
SET_STRIDE = 1000  # seed offset between sets, so no seed is used twice


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {}  # (set, workload) -> list of results
    for s in range(SETS):
        for name in names:
            for k in range(SEEDS):
                seed = FIRST_SEED + SET_STRIDE * s + k
                res = run_once(bench, name, seed)
                runs.setdefault((s, name), []).append(res)
                vals = " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items())
                print(f"set {s} {name} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    ok = True
    summary = []
    print(f"\n{'workload':<14} {'metric':<12} {'set':>3} {'median':>12} {'spread':>7} {'change':>7} {'bound':>6}  verdict")
    for name in names:
        medians = {}
        for s in range(SETS):
            results = runs[(s, name)]
            if not all(r["correct"] for r in results):
                ok = False
                print(f"{name}: set {s} has incorrect runs")
            for mname, metric in metrics.items():
                values = [r["metrics"][mname]["value"] for r in results]
                med, spr = statistics.median(values), spread(values)
                medians[(s, mname)] = med
                change = (med - medians[(0, mname)]) / medians[(0, mname)]
                verdict = "ok"
                if spr > metric["bound"]:
                    verdict, ok = "SPREAD", False
                elif spr > metric["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                if abs(change) > metric["bound"]:
                    verdict, ok = f"MOVED by {change:+.3f}", False
                print(f"{name:<14} {mname:<12} {s:>3} {med:>12.5g} {spr:>7.3f} {change:>+7.3f} "
                      f"{metric['bound']:>6}  {verdict}")
                summary.append({"workload": name, "metric": mname, "set": s, "median": med,
                                "spread": spr, "change": change, "verdict": verdict})
        shares = {
            s: sum(r["failed"] for r in runs[(s, name)]) / sum(r["attempted"] for r in runs[(s, name)])
            for s in range(SETS)
        }
        if len(set(shares.values())) > 1:
            ok = False
            print(f"{name}: failed shares differ between sets: {shares}")
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"ok": ok, "summary": summary}, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
