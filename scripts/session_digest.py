"""Digest of one benchmark session: exit codes and hashes of every payload and CSV.

    python3 scripts/session_digest.py --workload grid-vectorial --seed 5

Run from the root of a checkout.  It draws the workload's inputs for the
seed with ``bench/workloads.py`` (read only) into a temporary directory,
runs the session's calls once through ``linfvar.cli.run`` there, and
prints one JSON line: per call its label, exit code, the sha256 of its
report's ``results``, ``pass`` and ``error`` (canonical JSON, so report
whitespace does not count) and the sha256 of each CSV it wrote.  Two
revisions whose digests agree give the same payloads and files, byte for
byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # as bench/run.py pins them, before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from linfvar import cli  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(workload: str, seed: int) -> dict:
    """Run one session of ``workload`` at ``seed`` and hash what each call produced."""
    calls_out = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        info = workloads.generate(workload, seed, work)
        cwd = os.getcwd()
        os.chdir(work)  # the calls name their problem files relative to the work directory
        try:
            for i, call in enumerate(workloads.session_calls(info)):
                out = Path("out") / f"{i:02d}"
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run(call.argv + ["--out", str(out)])
                report = json.loads((out / f"{call.argv[0]}_report.json").read_text())
                payload = {key: report.get(key) for key in ("results", "pass", "error")}
                calls_out.append({
                    "label": call.label,
                    "exit": code,
                    "payload": _sha256(json.dumps(payload, sort_keys=True).encode()),
                    "csv": {p.name: _sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))},
                })
        finally:
            os.chdir(cwd)
    return {"workload": workload, "seed": seed, "calls": calls_out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(digest(args.workload, args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
