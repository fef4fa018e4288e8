"""Time synth_sessions at 100 sessions, and the records built from its log, in
this checkout and in a parent checkout.

    python3 scripts/time_synth.py --seeds 0 1 2
    python3 scripts/time_synth.py --seeds 0 1 2 3 4 5 --parent ../parent-checkout

Each run is a fresh Python process that imports ``suggestgate`` from the
checkout's ``src/`` and times, with ``time.perf_counter``, one
``result = synth_sessions(SynthConfig(n_sessions=100, seed=s))`` call and then
``records_from_events(result.events)`` apart; the import falls outside the
timing. The records are timed too because they are what synth's caller trains
on, so moving their build between synth and its caller saves nothing. With
``--parent``, every seed runs on both checkouts, alternating which goes first.
The script prints each run's synth and records seconds, then each side's
medians of synth, records and their sum, and the change's medians as a share
of the parent's.
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
from suggestgate.dataset import records_from_events
from suggestgate.synth import SynthConfig, synth_sessions
start = time.perf_counter()
result = synth_sessions(SynthConfig(n_sessions=100, seed=int(sys.argv[1])))
middle = time.perf_counter()
records_from_events(result.events)
print(middle - start, time.perf_counter() - middle)
"""


def time_run(checkout: Path, seed: int) -> tuple[float, float]:
    """Seconds of one ``synth_sessions`` call and of the records built from
    its log, in a fresh process on ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    run = subprocess.run([sys.executable, "-c", _CHILD, str(seed)], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True)
    synth, records = run.stdout.strip().splitlines()[-1].split()
    return float(synth), float(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    seconds: dict[str, list[tuple[float, float, float]]] = {side: [] for side in sides}
    for i, seed in enumerate(args.seeds):
        for side in (list(sides) if i % 2 else list(reversed(sides))):
            synth, records = time_run(sides[side], seed)
            seconds[side].append((synth, records, synth + records))
            print(f"seed {seed} {side}: synth {synth:.3f} s, records {records:.3f} s", flush=True)
    names = ("synth", "records", "both")
    medians = {side: [statistics.median(column) for column in zip(*runs)]
               for side, runs in seconds.items()}
    for side, values in medians.items():
        print(f"{side} median: " + ", ".join(f"{n} {v:.3f} s" for n, v in zip(names, values)))
    if "parent" in medians:
        print("change / parent: " + ", ".join(
            f"{n} {c / p:.2f}" for n, c, p in zip(names, medians["change"], medians["parent"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
