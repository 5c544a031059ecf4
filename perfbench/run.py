"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig11-hits --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when a result was printed; a gate that refuses to report (a kernel fell
back to Python, the program cannot be imported) exits non-zero without one.

Regenerating the committed correctness digests is a separate, explicit
request, never a side effect of a run::

    python3 perfbench/run.py --write-reference 0 7919 [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402  (makes src/ importable, pins the build cache)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", type=int, nargs="+", metavar="SEED",
                        help="regenerate the committed digests for these seeds")
    return parser


def _print_result(result: dict) -> None:
    checker = result["checker"]
    reference = "committed reference" if checker.has_reference else (
        "no committed reference for this seed: checked for self-consistency only")
    print(f"perfbench {result['workload']} seed={result['seed']}: {result['jobs']} jobs; "
          f"correctness vs {reference}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, value in result.get("notes", {}).items():
        print(f"  {name:28s} {value}")
    for problem in checker.problems:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    perfbench.clean_environment()
    import repro

    if Path(repro.__file__).resolve().parent.parent != perfbench.SRC:
        print(f"perfbench: repro imported from {repro.__file__}, not from {perfbench.SRC}",
              file=sys.stderr)
        return 2
    from perfbench import measure, workloads

    if args.write_reference:
        for name in [args.workload] if args.workload else workloads.NAMES:
            for seed in args.write_reference:
                changed = measure.write_reference(name, seed)
                print(f"{name} seed {seed}: {changed} digest(s) changed")
        return 0
    if args.workload not in workloads.NAMES:
        print(f"perfbench: --workload must be one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    run = measure.run_traced if args.trace else measure.run_untraced
    try:
        result = run(args.workload, args.seed, args.seconds)
    except measure.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    _print_result(result)
    checker = result["checker"]
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
