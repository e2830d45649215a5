"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, through the same
fresh-process path as run.py and expects every check to pass and every
metric to be reported.  Then corrupts real outputs (a rank off by one, a
``pass: false``, a torsion entry, a missing entry, a wrong certificate, an
accepted non-member) and expects each corruption to raise the failed ratio
above 0.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction

import workloads
from run import END_TO_END, ROOT, measure
from tracing import LAYER_METRICS


def fail(message: str) -> None:
    print(f"FAIL {message}")
    raise SystemExit(1)


def check_workloads() -> None:
    for name in workloads.WORKLOADS:
        for trace, expected in ((False, END_TO_END), (True, LAYER_METRICS)):
            result = measure(name, seed=7, seconds=0, trace=trace, tiny=True)
            if result["failed"] or not result["correct"]:
                fail(f"{name} trace={trace:d}: {result['problems']}")
            if set(result["metrics"]) != {n for n, _ in expected}:
                fail(f"{name} trace={trace:d}: metrics missing")
        print(f"ok   {name} at tiny size, untraced and traced")


def _corrupt_entry(field, value):
    def mutate(outcome):
        entries = outcome.reports[0]["entries"]
        entries[-1][field] = value(entries[-1])
    return mutate


def _drop_entry(outcome):
    outcome.reports[0]["entries"].pop()


def _bend_certificate(outcome):
    target, (_, cert) = outcome.members[0]
    i = next(i for i, c in enumerate(cert) if c)
    cert[i] += Fraction(1)


def _accept_non_member(outcome):
    target, _ = outcome.members[-1]
    outcome.members[-1] = (target, (True, []))


def _reject_member(outcome):
    target, _ = outcome.members[0]
    outcome.members[0] = (target, (False, None))


CORRUPTIONS = {
    "lattice": {
        "rank off by one": _corrupt_entry("rhs_rank",
                                          lambda e: e["rhs_rank"] + 1),
        "pass: false": _corrupt_entry("pass", lambda e: False),
        "torsion 2": _corrupt_entry("torsion", lambda e: [1, 2]),
        "missing entry": _drop_entry,
    },
    "identities": {
        "wrong certificate": _bend_certificate,
        "accepted non-member": _accept_non_member,
        "rejected member": _reject_member,
    },
}


def check_corruptions() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    for name, cases in CORRUPTIONS.items():
        inputs = workloads.build_inputs(workloads.WORKLOADS[name], 7, True)
        outcome = workloads.execute(inputs)
        if workloads.check(inputs, outcome).failed:
            fail(f"{name}: the uncorrupted outcome fails its checks")
        for what, mutate in cases.items():
            bad = copy.deepcopy(outcome)
            mutate(bad)
            checks = workloads.check(inputs, bad)
            if not checks.failed:
                fail(f"{name}: {what} was not caught")
            print(f"ok   {name}: {what} gives failed_ratio "
                  f"{checks.failed}/{checks.attempted}")


if __name__ == "__main__":
    check_workloads()
    check_corruptions()
    print("selftest passed")
