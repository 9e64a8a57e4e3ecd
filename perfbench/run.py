"""Run the repository benchmark.

    python3 perfbench/run.py --workload kiel18-sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload inline with wrappers around every layer
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs every workload in turn; its last line maps each
workload to its result object.
``--pin-digests`` re-records the default-seed result digests.

Exit codes: 0 on success, 1 when a shard failed or a result did not
match its digest, 2 when the benchmark refuses to run.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import THREAD_VARS  # noqa: E402  (imports no NumPy)

# Pin BLAS/OpenMP to one thread before anything imports NumPy; forked
# workers inherit the setting.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

#: Variables that silently change what a run measures.
REFUSED_VARS = ("REPRO_ENGINE", "REPRO_FAULT_PLAN")
REFUSED_PREFIX = "REPRO_BENCH_"


def refusal() -> str:
    """Why the benchmark must not run here ("" when it may)."""
    if not (ROOT / "src" / "repro").is_dir():
        return f"the program's sources are missing ({ROOT / 'src' / 'repro'})"
    found = sorted(
        name for name in os.environ if name in REFUSED_VARS or name.startswith(REFUSED_PREFIX)
    )
    if found:
        return "unset these variables first, they change what is measured: " + ", ".join(found)
    return ""


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken grids (self-tests)")
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)

    reason = refusal()
    if reason:
        print(f"perfbench: refusing to run: {reason}", file=sys.stderr)
        return 2
    import json

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.pin_digests:
        for name in names:
            print(f"pinned {name}: {bench.pin_digests(name)}")
        return 0

    lines = {}
    for name in names:
        if args.trace:
            run = bench.trace(name, args.seed, tiny=args.tiny)
        else:
            run = bench.measure(name, args.seed, args.seconds, tiny=args.tiny)
        lines[name] = bench.report(run, traced=bool(args.trace))
        print(f"record: {bench.write_record(run, lines[name], args.seed, bool(args.trace))}")
    last = lines[names[0]] if len(names) == 1 else lines
    print(json.dumps(last, sort_keys=True))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
