"""Command-line surface: ad-hoc products, invariant images, verification
runs with JSON reports, and universal-ring extraction.

Reports are reproducible byte-for-byte for a fixed (config, seed): entries
are sorted by (theorem, n, |d|, d) independently of worker scheduling, and
wall times are reported as 0 unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import partial

from .freering import Alphabet, ParseError, Scanner, parse_freepoly
from .gamma import format_gamma, parse_gamma, tau
from .invariants import MatrixInvariants
from .symfunc import format_sympoly, m_to_e, parse_sympoly
from .theorems import (VerifyEntry, multidegrees, verify_cayley_hamilton,
                       verify_plethysm_cell, verify_sigma_homomorphism,
                       verify_tau_ring_axioms, verify_thm_2_2_2_cell,
                       verify_zubkov_kernel)
from .universal import build_An, load_presentation

THEOREMS = ("2.2.2", "ch", "plethysm", "zubkov", "tau-axioms")


def _parse_n_list(spec: str) -> list[int]:
    """Accept '2', '1..3' or '1,2,3'."""
    sc = Scanner(spec)
    out: set[int] = set()
    try:
        while True:
            lo = sc.integer()
            hi = sc.integer() if sc.take("..") else lo
            out.update(range(lo, hi + 1))
            if not sc.take(","):
                break
        sc.end()
    except ParseError:
        out.clear()  # reported below, like an empty list
    if not out or min(out) < 1:
        raise ValueError(f"bad level list {spec!r}")
    return sorted(out)


def _ch_elements(alphabet: Alphabet) -> list[str]:
    a = alphabet[0]
    if len(alphabet) >= 2:
        b = alphabet[1]
        return [a, f"{a}*{b}", f"{a}+{b}", f"{a}+{a}*{b}"]
    return [a, f"{a}*{a}", f"{a}+{a}*{a}"]


def _plethysm_elements(alphabet: Alphabet) -> list[str]:
    a = alphabet[0]
    if len(alphabet) >= 2:
        b = alphabet[1]
        return [a, f"{a}*{b}", f"{a}+{b}"]
    return [a, f"{a}*{a}"]


def _build_jobs(cfg: dict) -> list[partial]:
    """One picklable call per independent verification cell; each returns
    the cell's VerifyEntry."""
    if cfg["maxdeg"] <= 0:
        return []
    alphabet = Alphabet(cfg["letters"])
    levels = cfg["n"]
    maxdeg = cfg["maxdeg"]
    thms = cfg["theorems"]
    jobs: list[partial] = []
    if "2.2.2" in thms:
        jobs += [partial(verify_thm_2_2_2_cell, n, d, alphabet,
                         cfg["strict_z"], cfg["seed"])
                 for n in levels
                 for d in multidegrees(len(alphabet), maxdeg)]
    if "ch" in thms:
        elements = [parse_freepoly(t, alphabet)
                    for t in _ch_elements(alphabet)]
        jobs += [partial(verify_cayley_hamilton, f, n, alphabet)
                 for n in levels for f in elements]
    if "plethysm" in thms:
        elements = [parse_freepoly(t, alphabet)
                    for t in _plethysm_elements(alphabet)]
        jobs += [partial(verify_plethysm_cell, a, n, i, alphabet)
                 for n in levels for i in (1, 2) for a in elements]
    if "zubkov" in thms:
        # run on the one-letter subalphabet; the word-generator family is
        # degreewise complete there
        first = Alphabet(cfg["letters"][0])
        jobs += [partial(verify_zubkov_kernel, n, (t,), first)
                 for n in levels for t in range(1, maxdeg + 1)]
    if "tau-axioms" in thms:
        jobs.append(partial(verify_tau_ring_axioms, maxdeg, alphabet))
        jobs += [partial(verify_sigma_homomorphism, maxdeg, alphabet, n)
                 for n in levels]
    return jobs


def _run_job(job: partial) -> VerifyEntry:
    """Run one cell; its wall time is taken here and nowhere else."""
    t0 = time.perf_counter()
    entry = job()
    return entry._replace(millis=int((time.perf_counter() - t0) * 1000))


def run_verify(cfg: dict) -> dict:
    """Execute the configured verification cells and assemble the report."""
    jobs = _build_jobs(cfg)
    workers = cfg["workers"]
    if workers > 1 and len(jobs) > 1:
        # imported here, so that runs and commands without a pool do not
        # pay for importing multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its processes at once: no more than the cells
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            entries = list(pool.map(_run_job, jobs))
    else:
        entries = [_run_job(j) for j in jobs]
    if not cfg["timing"]:
        entries = [e._replace(millis=0) for e in entries]
    entries.sort(key=VerifyEntry.sort_key)
    return {
        "config": {
            "letters": cfg["letters"],
            "n": cfg["n"],
            "maxdeg": cfg["maxdeg"],
            "theorems": list(cfg["theorems"]),
            "strict_z": cfg["strict_z"],
            "seed": cfg["seed"],
            "timing": cfg["timing"],
        },
        "entries": [e.to_json() for e in entries],
        "pass": all(e.passed for e in entries),
    }


def _output(path: str | None):
    """Stdout, or the --out file, opened before any work is done: an
    unwritable path is an input error, not a traceback after the run."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err.strerror}") from None


def cmd_tau(args) -> int:
    alphabet = Alphabet.default(args.letters)
    lhs, rhs = (parse_gamma(t, alphabet) for t in (args.lhs, args.rhs))
    print(format_gamma(tau(lhs, rhs), alphabet))
    return 0


def cmd_pi(args) -> int:
    alphabet = Alphabet.default(args.letters)
    g = parse_gamma(args.element, alphabet)
    if g.level is None:
        raise ValueError("the invariant image needs a truncated context "
                         "(use | n=<level>)")
    print(MatrixInvariants.get(alphabet, g.level).pi_n_eval(g).to_str())
    return 0


def cmd_sym(args) -> int:
    sym = parse_sympoly(args.expr)
    if sym.basis == "m":
        (alpha,) = sym.terms  # the parser reads one basis element
        sym = m_to_e(alpha, sym.nvars)
    print(format_sympoly(sym))
    return 0


def cmd_verify(args) -> int:
    n_list = _parse_n_list(args.n)
    thms = THEOREMS if args.thm == "all" else tuple(args.thm.split(","))
    for t in thms:
        if t not in THEOREMS:
            raise ValueError(f"unknown theorem {t!r}; choose from "
                             f"{', '.join(THEOREMS)}")
    for flag, value in (("--maxdeg", args.maxdeg),
                        ("--workers", args.workers)):
        if value < 0:
            raise ValueError(f"{flag} must be at least 0, not {value}")
    cfg = {
        "letters": "".join(Alphabet.default(args.letters).names),
        "n": n_list,
        "maxdeg": args.maxdeg,
        "theorems": thms,
        "strict_z": args.strict_z,
        "seed": args.seed,
        "timing": args.timing,
        "workers": args.workers if args.workers else (os.cpu_count() or 1),
    }
    with _output(args.out) as fh:
        report = run_verify(cfg)
        fh.write(json.dumps(report, indent=2) + "\n")
    if args.out:
        for e in report["entries"]:
            d = ",".join(map(str, e["multidegree"]))
            status = "PASS" if e["pass"] else "FAIL"
            print(f"{status} {e['theorem']:<10} n={e['n']} d=({d}) "
                  f"lhs={e['lhs_rank']} rhs={e['rhs_rank']} "
                  f"ker={e['kernel_rank']}")
        print(f"report: {len(report['entries'])} entries -> {args.out} "
              f"({'all pass' if report['pass'] else 'FAILURES'})")
    return 0 if report["pass"] else 1


def cmd_universal(args) -> int:
    try:
        with open(args.presentation) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read presentation: {err}") from None
    try:
        pres = load_presentation(data)
    except ValueError as err:
        raise ValueError(f"bad presentation: {err}") from None
    with _output(args.out) as fh:
        gens, images = build_An(pres, args.n)
        out = {
            "n": args.n,
            "generators": list(pres.alphabet.names),
            "ideal_generators": [g.to_str() for g in gens],
            "images": {
                name: [[entry.to_str() for entry in row]
                       for row in images[i].entries]
                for i, name in enumerate(pres.alphabet.names)
            },
        }
        fh.write(json.dumps(out, indent=2) + "\n")
    if args.out:
        print(f"universal ring data -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpinv",
        description="divided powers of free rings and matrix invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="tau product of two elements")
    p_tau.add_argument("lhs")
    p_tau.add_argument("rhs")
    p_tau.add_argument("--letters", type=int, default=2)
    p_tau.set_defaults(func=cmd_tau)

    p_pi = sub.add_parser("pi", help="invariant image of a level-n element")
    p_pi.add_argument("element")
    p_pi.add_argument("--letters", type=int, default=2)
    p_pi.set_defaults(func=cmd_pi)

    p_sym = sub.add_parser("sym", help="expand m[...] in the e-basis")
    p_sym.add_argument("expr")
    p_sym.set_defaults(func=cmd_sym)

    p_ver = sub.add_parser("verify", help="run theorem verifications")
    p_ver.add_argument("--thm", default="all",
                       help="comma list from: " + ", ".join(THEOREMS)
                       + ", or 'all'")
    p_ver.add_argument("--n", default="2", help="levels: '2', '1..3', '1,3'")
    p_ver.add_argument("--letters", type=int, default=2)
    p_ver.add_argument("--maxdeg", type=int, default=3)
    p_ver.add_argument("--strict-z", dest="strict_z", action="store_true",
                       help="add Smith-form torsion and lattice checks")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="seed for the spot check at a random integer "
                            "point of the diagonal slice")
    p_ver.add_argument("--timing", action="store_true",
                       help="record wall times (breaks byte reproducibility)")
    p_ver.add_argument("--out", default=None, help="report file path")
    p_ver.add_argument("--workers", type=int, default=0,
                       help="0 = available parallelism, 1 = sequential")
    p_ver.set_defaults(func=cmd_verify)

    p_uni = sub.add_parser("universal",
                           help="universal ring of a presentation")
    p_uni.add_argument("presentation", help="JSON presentation file")
    p_uni.add_argument("--n", type=int, required=True)
    p_uni.add_argument("--out", default=None)
    p_uni.set_defaults(func=cmd_universal)
    return parser


def main(argv=None) -> int:
    """Run one command; an input error (a ValueError, or an OverflowError
    past the packing bound) prints as ``error: ...`` and exits with code 2.
    A parse error also prints its text with a caret under the offset."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, ParseError):
            print(f"  {err.text}\n  {' ' * err.pos}^", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
