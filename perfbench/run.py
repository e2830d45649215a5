"""The dpinv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh single-worker processes of one workload, one at a time, for S
seconds (at least a few samples), checks every output against the oracles
and prints the metrics by name and unit; the last line is one JSON object.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples: ``verdict_s`` (first call into dpinv to the verdict),
``setup_s`` (interpreter start, ``import dpinv`` and input construction,
also sampled by set-up-only processes, at least MIN_SETUPS in all) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced processes and reports the per-layer metrics:
counts from the traced processes, which must repeat exactly, median self
times, and ``trace.overhead_s``, the traced minus the untraced verdict time.
The spans of the last traced process go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
MIN_TRACED = 2
MIN_SETUPS = 15
# every run ends within this many seconds, builds included
RUN_LIMIT_S = 170.0

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class SampleError(RuntimeError):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    """The sample sees dpinv only through the checkout's src/, and a fixed
    hash seed keeps set iteration orders, hence counts, reproducible."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONSTARTUP", "PYTHONHOME")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.started = _clock()
        self.env = _child_env()

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        cmd = [sys.executable, "-s", str(HERE / "sample.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if self.tiny:
            cmd.append("--tiny")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        left = self.started + RUN_LIMIT_S - _clock()
        if left <= 0:
            raise SampleError("out of time")
        t0 = _clock()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise SampleError(f"{mode} sample exceeded the run limit")
        if proc.returncode != 0:
            raise SampleError(f"{mode} sample exited {proc.returncode}:\n"
                              + proc.stderr[-2000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - t0
        return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run the samples of one benchmark run and return its result object,
    with the per-sample values under ``samples``."""
    runner = Runner(workload, seed, tiny)
    runner.spawn("setup")     # compiles bytecode; not measured
    deadline = _clock() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    rounds: list[float] = []
    spans = None
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        spans = HERE / "out" / f"spans-{workload}.jsonl"

    def more() -> bool:
        if len(plain) < MIN_SAMPLES or trace and len(traced) < MIN_TRACED:
            return True
        return _clock() + statistics.median(rounds) < deadline

    while more():
        t0 = _clock()
        sample = runner.spawn("plain")
        plain.append(sample)
        setups.append(sample["setup_s"])
        if trace:
            traced.append(runner.spawn("traced", spans))
        else:
            setups.append(runner.spawn("setup")["setup_s"])
        rounds.append(_clock() - t0)
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("setup")["setup_s"])

    attempted = sum(s["attempted"] for s in plain + traced)
    problems = [p for s in plain + traced for p in s["problems"]]

    def expect(cond: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not cond:
            problems.append(what)

    for s in plain[1:] + traced:
        expect(s["digest"] == plain[0]["digest"],
               "report bytes differ between samples")
    verdicts = [s["verdict_s"] for s in plain]
    if trace:
        spec = WORKLOADS[workload]
        exact = {name for name, unit in LAYER_METRICS if unit != "s"}
        for s in traced:
            for name in spec.expects:
                expect(s["calls"][name] > 0, f"{name} was never called")
            for name in spec.avoids:
                expect(s["calls"][name] == 0, f"{name} was called")
            expect({k: s["layers"][k] for k in exact} ==
                   {k: traced[0]["layers"][k] for k in exact},
                   "layer counts differ between traced samples")
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(s["verdict_s"] for s in traced)
                         - statistics.median(verdicts))
            elif unit == "s":
                value = statistics.median(s["layers"][name] for s in traced)
            else:
                value = traced[0]["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
        series = {"verdict_s": verdicts,
                  "traced_verdict_s": [s["verdict_s"] for s in traced]}
    else:
        series = {"verdict_s": verdicts, "setup_s": setups,
                  "peak_rss_mb": [s["peak_rss_mb"] for s in plain]}
        metrics = {name: {"value": statistics.median(series[name]),
                          "unit": unit} for name, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems), "metrics": metrics,
            "problems": problems, "samples": series,
            "backend": plain[0]["backend"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except SampleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  "
          f"kernels {result['backend']}  python {sys.version.split()[0]}")
    for name, values in result["samples"].items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<18} median {q2:.4f}  quartiles {q1:.4f} "
              f"{q3:.4f}  over {len(values)} samples")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio {result['failed']}/{result['attempted']} checks")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
