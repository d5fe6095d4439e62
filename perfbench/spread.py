#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train --seeds 1-10 --save runs.json
    python3 perfbench/spread.py --compare before.json after.json

The first form runs ``perfbench/run.py`` untraced once per seed, one run
at a time, for ``run_seconds`` of BENCHMARK.json, and prints for every
metric the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread: the distance between the quartiles as
a share of the median. The runs are
saved as JSON (``--save``) for a later ``--compare``, which prints how
far each median moved in the worse direction against the bound that
BENCHMARK.json fixes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "last_line": last, "digest": full["digest"], "report": full["report"]}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["last_line"]["metrics"]
    out = {}
    for name in names:
        values = [r["last_line"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"), "values": values}
    return out


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(before: dict, after: dict) -> None:
    limits = bounds()
    for name, a in after["summary"].items():
        b = before["summary"][name]
        change = a["median"] / b["median"] - 1
        worse = change if limits.get(name, {}).get("better") == "lower" else -change
        bound = limits.get(name, {}).get("bound")
        verdict = "" if bound is None else ("WORSE than bound" if worse > bound else "within bound")
        print(f"{name:24s} {b['median']:12.6g} -> {a['median']:12.6g}  worse by {worse:+.3%}  "
              f"(bound {bound}) {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save", default=None, help="write the runs and summary to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args()
    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(before, after)
        return 0
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in seeds_from(args.seeds):
        r = run(args.workload, seed, seconds)
        ll = r["last_line"]
        shown = {k: round(v["value"], 4) for k, v in ll["metrics"].items()}
        print(f"seed {seed}: correct={ll['correct']} attempted={ll['attempted']} "
              f"failed={ll['failed']} digest={r['digest'][:12]} {shown}", flush=True)
        runs.append(r)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                               "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["last_line"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
