"""Seeded end-to-end and per-layer benchmark of the scadascope CLI.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--fast]

Every workload (default seeds, untraced and traced, names and units checked
against BENCHMARK.json):

    python3 perfbench/run.py --workload all [--seconds S] [--fast]

``--fast`` shortens the scenarios so ``--workload all --fast --seconds 1``
serves as the benchmark's self-test.

A run generates the workload's trace from its seed (repeated, the median is
``setup_s``), makes one traced in-process run of ``scadascope.cli.main`` as
the reference report, then spawns the real CLI in a child process again and
again for ``--seconds`` seconds, with a fixed reference workload timed on the
same CPU just before and after each child; ``--trace 1`` interleaves a traced
run after each child.  Each child's resources come from ``os.wait4`` on that
child.
Each report is scored against the generator's ground truth and must have
the reference digest; a run that fails either check counts as failed and
records no timing.  The last line of stdout is the result object; the lines
before it list every metric with its unit and the run's environment.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 25


def run_all(workloads: dict, seed: int | None, seconds: float, fast: bool) -> int:
    """Run every workload untraced and traced; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.values():
        workload_seed = workload.default_seed() if seed is None else seed
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload.name, "--seed", str(workload_seed),
                    "--seconds", str(seconds), "--trace", str(trace), *(["--fast"] if fast else [])]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("# detail")), flush=True)
            where = f"{workload.name} trace={trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(wanted[trace].items())}")
            if not result["correct"] or result["failed"] or proc.returncode:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"exit={proc.returncode}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("all workloads ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="default: the seed in the scenario file")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="shortened scenarios, for the self-test")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a child still running is stopped
    # and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "scadascope" / "cli.py").is_file():
        print(f"error: no scadascope sources under {SRC}", file=sys.stderr)
        return 2
    # measure and workloads import scadascope, so they load only after the check.
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds, args.fast)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed() if args.seed is None else args.seed
    result = measure.run_workload(workload, seed, args.seconds, bool(args.trace), args.fast)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
