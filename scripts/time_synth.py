"""Time synth_sessions at 100 sessions in this checkout, and in a parent checkout.

    python3 scripts/time_synth.py --seeds 0 1 2
    python3 scripts/time_synth.py --seeds 0 1 2 3 4 5 --parent ../parent-checkout

Each run is a fresh Python process that imports ``suggestgate`` from the
checkout's ``src/`` and times one ``synth_sessions(SynthConfig(n_sessions=100,
seed=s))`` call with ``time.perf_counter``; the import falls outside the
timing. With ``--parent``, every seed runs on both checkouts, alternating
which goes first. The script prints each run's seconds, then each side's
median, and the change's median as a share of the parent's.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """\
import sys, time
from suggestgate.synth import SynthConfig, synth_sessions
start = time.perf_counter()
synth_sessions(SynthConfig(n_sessions=100, seed=int(sys.argv[1])))
print(time.perf_counter() - start)
"""


def time_run(checkout: Path, seed: int) -> float:
    """Seconds of one ``synth_sessions`` call in a fresh process on ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    run = subprocess.run([sys.executable, "-c", _CHILD, str(seed)], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True)
    return float(run.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    seconds: dict[str, list[float]] = {side: [] for side in sides}
    for i, seed in enumerate(args.seeds):
        for side in (list(sides) if i % 2 else list(reversed(sides))):
            seconds[side].append(time_run(sides[side], seed))
            print(f"seed {seed} {side}: {seconds[side][-1]:.3f} s", flush=True)
    medians = {side: statistics.median(values) for side, values in seconds.items()}
    for side, median in medians.items():
        print(f"{side} median: {median:.3f} s")
    if "parent" in medians:
        print(f"change / parent: {medians['change'] / medians['parent']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
