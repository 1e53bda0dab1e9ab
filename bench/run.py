"""End-to-end and per-layer benchmark of the linfvar CLI.

    python3 bench/run.py --workload grid-vectorial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It draws the workload's inputs from the
seed into ``.bench_work/<workload>/``, times ``import linfvar.cli`` plus
one ``load_problem`` in fresh interpreters (``setup_s``), then runs the
workload's CLI session repeatedly in one child process (``session.py``)
for ``--seconds``, checking every report against analytic oracles.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30
SESSION_TIMEOUT_S = 120
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS")}
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import linfvar.cli
from linfvar.problem import load_problem
load_problem(sys.argv[1])
print(time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _setup_seconds(problem: Path, env: dict) -> list:
    """import linfvar.cli + load_problem in fresh interpreters, after one untimed warm-up."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(problem)], env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def _versions() -> dict:
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"]}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linfvar" / "cli.py").is_file():
        print(f"bench: no linfvar sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    info = workloads.generate(args.workload, args.seed, work)
    info["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    info["environment"] = _versions()
    (work / "info.json").write_text(json.dumps(info, indent=1))
    print(json.dumps(info))

    env = _child_env()
    if not args.trace:
        first = workloads.session_calls(info)[0].argv
        setup = _setup_seconds(work / first[first.index("--problem") + 1], env)
    result_path = work / "session_result.json"
    subprocess.run([sys.executable, str(HERE / "session.py"), "--info", str(work / "info.json"),
                    "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result_path)],
                   env=env, stdout=subprocess.DEVNULL, timeout=SESSION_TIMEOUT_S, check=True)
    summary = json.loads(result_path.read_text())
    for message in summary["failures"]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    if summary["missing_targets"]:
        print(f"bench: not traced (not found): {summary['missing_targets']}", file=sys.stderr)

    print(json.dumps({"phase_s": summary["phase_s"]}))
    if args.trace:
        values = summary["layers"]
    else:
        values = {
            "session_s": statistics.median(summary["session_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": summary["peak_rss_mb"],
            "ok_ratio": 1.0 - summary["failed"] / summary["attempted"],
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
