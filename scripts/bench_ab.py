"""Paired A/B runs of the benchmark between two git revisions, recorded as BENCH_<n>.json.

    python3 scripts/bench_ab.py BASE CHANGE --workload closed-form-verdicts \
        --pairs 10 --seconds 30 --seeds 601-610 --number 6

Run from the root of a checkout.  Each revision is checked out into a
detached ``git worktree`` under ``.bench_work/ab/``, and ``bench/run.py
--trace 0`` runs there, so both sides run their own committed benchmark
and library code.  Pair i uses the i-th seed and runs both sides one after
the other; the side that goes first alternates from pair to pair.  Every
workload named gets its own pairs.  The output holds the machine record,
both revisions, every pair's end-to-end metrics, and per metric the
medians and quartiles of each side and the number of pairs the change won
(ties count for neither side).  The worktrees are removed at the end.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "ab"


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _seeds(text: str) -> list:
    """"601-610" or "3,11,12" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def _machine() -> dict:
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "nproc": os.cpu_count(),
              "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}
    try:
        import numpy
        record["numpy"] = numpy.__version__
    except ImportError:
        record["numpy"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                  if line.startswith("model name")), None)
    except OSError:
        record["cpu"] = None
    return record


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run; its last stdout line as a dict."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, check=True, capture_output=True, text=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def _summary(pairs: list, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        a = [p["base"]["metrics"][name] for p in pairs]
        b = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        losses = sum(sign * (x - y) < 0 for x, y in zip(a, b))
        sides = {}
        for side, values in (("base", a), ("change", b)):
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            sides[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        base_iqr = sides["base"]["q3"] - sides["base"]["q1"]
        diff = sides["base"]["median"] - sides["change"]["median"]
        out[name] = dict(sides, better=direction, change_wins=wins, change_losses=losses,
                         pairs=len(pairs),
                         relative_change=(-diff / sides["base"]["median"]
                                          if sides["base"]["median"] else None),
                         gain_shown=bool(wins >= 0.9 * len(pairs) and sign * diff > base_iqr))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="parent revision")
    parser.add_argument("change", help="revision with the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload (repeat for several)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of each bench/run.py run")
    parser.add_argument("--seeds", required=True, help='one seed per pair: "601-610" or "1,2,3"')
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    if len(seeds) < args.pairs:
        parser.error(f"{args.pairs} pairs need {args.pairs} seeds, got {len(seeds)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    revisions = {side: {"rev": rev, "sha": _git("rev-parse", rev)}
                 for side, rev in (("base", args.base), ("change", args.change))}
    trees = {side: WORK / side for side in revisions}
    record = {"machine": _machine(), "revisions": revisions, "seconds": args.seconds,
              "command": "bench/run.py --trace 0", "workloads": {}}
    try:
        for side, tree in trees.items():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
            _git("worktree", "add", "--detach", str(tree), revisions[side]["sha"])
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds[:args.pairs]):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(json.dumps({"workload": workload, "pair": i, "seed": seed,
                                  "session_s": {s: pair[s]["metrics"].get("session_s") for s in order}}),
                      flush=True)
            record["workloads"][workload] = {"pairs": pairs, "summary": _summary(pairs, better)}
    finally:
        for tree in trees.values():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
        _git("worktree", "prune")
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
