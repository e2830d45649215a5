"""One sample of a workload in a fresh process; prints one JSON line.

    python3 perfbench/sample.py --workload NAME --seed N --mode MODE
        [--tiny] [--spans FILE]

MODE is ``setup`` (stop once the inputs are built), ``plain`` or ``traced``.
Times are read from CLOCK_MONOTONIC, which is shared by all processes, so
the parent can measure set-up from the moment it started this one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dpinv
    import dpinv.cli
    import dpinv.universal  # noqa: F401  (import is part of set-up)

    if Path(dpinv.__file__).resolve().parent != src / "dpinv":
        print(f"error: dpinv imported from {dpinv.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(workload, args.seed, args.tiny)
    ready = _clock()
    result: dict = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = _clock()
    outcome = workloads.execute(inputs)
    result["verdict_s"] = _clock() - start
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"], result["calls"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)

    checks = workloads.check(inputs, outcome)
    digest = hashlib.sha256()
    for report in outcome.reports:
        digest.update((json.dumps(report, indent=2) + "\n").encode())
    for target, (is_member, certificate) in outcome.members or ():
        digest.update(repr((sorted(target.terms.items()), is_member,
                            certificate)).encode())
    result.update(attempted=checks.attempted, problems=checks.problems,
                  digest=digest.hexdigest(), backend=dpinv.backend_name())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
