"""Run perfbench on this checkout and record each run's result in BENCH_<pr>.json.

    python3 scripts/bench_row.py --pr <pr> --workloads complexity --seeds 601 602 --seconds 8
    python3 scripts/bench_row.py --pr <pr> --workloads complexity --seeds 601 602 --seconds 8 \\
        --parent ../parent-checkout

Each run is ``perfbench/run.py --workload W --seed S --seconds N`` in a
checkout; its last line of stdout, perfbench's result, is stored with the
workload, the seed, the side (``change`` for this checkout, ``parent`` for
``--parent``), the checkout's commit, the git tree of its ``src/`` and
whether its working tree was clean. With ``--parent``, every seed runs on
both checkouts, alternating which goes first. The file also records the
machine: cores, CPU model, and the Python, numpy and scipy versions. It is
rewritten after every run. A run that exits non-zero stops the script: its
workload, seed, side, exit code and the tail of its stderr are printed, and
the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def cpu_model(cpuinfo: str) -> str:
    """The first ``model name`` in the text of /proc/cpuinfo."""
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return "unknown"


def machine() -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(cpuinfo),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout_identity(checkout: Path) -> dict:
    """Commit, git tree of ``src/`` and cleanliness of a checkout."""
    return {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "src_tree": _git(checkout, "rev-parse", "HEAD:src"),
        "clean": _git(checkout, "status", "--porcelain", "--untracked-files=no") == "",
    }


def make_row(stdout: str, *, side: str, workload: str, seed: int, identity: dict) -> dict:
    """One run's row: its identity and the result on the last line of ``stdout``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError(f"{workload} seed {seed}: perfbench printed no result")
    return {"side": side, "workload": workload, "seed": seed, **identity,
            "result": json.loads(lines[-1])}


def run_perfbench(checkout: Path, workload: str, seed: int,
                  seconds: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )


def failure_report(run: subprocess.CompletedProcess, *, side: str, workload: str,
                   seed: int) -> str:
    """Which run failed, its exit code and the last 20 lines of its stderr."""
    lines = run.stderr.rstrip().splitlines()[-20:]
    return "\n".join([f"{workload} seed {seed} {side}: exit code {run.returncode}", *lines])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    identities = {side: checkout_identity(path) for side, path in sides.items()}
    out = ROOT / f"BENCH_{args.pr}.json"
    bench = {"pr": args.pr, "machine": machine(), "seconds": args.seconds,
             "workloads": args.workloads, "seeds": args.seeds, "runs": []}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 else list(reversed(sides))
            for side in order:
                run = run_perfbench(sides[side], workload, seed, args.seconds)
                if run.returncode != 0:
                    print(failure_report(run, side=side, workload=workload, seed=seed),
                          file=sys.stderr)
                    return 1
                bench["runs"].append(make_row(run.stdout, side=side, workload=workload,
                                              seed=seed, identity=identities[side]))
                out.write_text(json.dumps(bench, indent=1) + "\n")
                print(f"{workload} seed {seed} {side}: done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
