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
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .backend import poly_add_scaled
from .freering import Alphabet, ParseError, parse_freepoly
from .gamma import ContextError, format_gamma, parse_gamma, tau
from .invariants import MatrixInvariants
from .symfunc import SymPoly, format_sympoly, m_to_e, parse_sympoly
from .theorems import (VerifyEntry, multidegrees, verify_cayley_hamilton,
                       verify_plethysm_cell, verify_sigma_homomorphism,
                       verify_tau_ring_axioms, verify_thm_2_2_2_cell,
                       verify_zubkov_kernel)
from .universal import build_An, load_presentation

THEOREMS = ("2.2.2", "ch", "plethysm", "zubkov", "tau-axioms")


def _print_parse_error(text: str, err: ParseError) -> None:
    print(f"error: {err}", file=sys.stderr)
    print(f"  {text}", file=sys.stderr)
    print("  " + " " * err.pos + "^", file=sys.stderr)


def _parse_n_list(spec: str) -> list[int]:
    """Accept '2', '1..3' or '1,2,3'."""
    out: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.update(range(int(lo), int(hi) + 1))
        elif part:
            out.add(int(part))
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
    entry.millis = int((time.perf_counter() - t0) * 1000)
    return entry


def run_verify(cfg: dict) -> dict:
    """Execute the configured verification cells and assemble the report."""
    jobs = _build_jobs(cfg)
    workers = cfg["workers"]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_run_job, jobs))
    else:
        entries = [_run_job(j) for j in jobs]
    if not cfg["timing"]:
        for e in entries:
            e.millis = 0
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


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _session_alphabet(letters: int) -> Alphabet:
    try:
        return Alphabet.default(letters)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)


def cmd_tau(args) -> int:
    alphabet = _session_alphabet(args.letters)
    operands = []
    for text in (args.lhs, args.rhs):
        try:
            operands.append(parse_gamma(text, alphabet))
        except ParseError as err:
            _print_parse_error(text, err)
            return 2
    try:
        result = tau(*operands)
    except ContextError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(format_gamma(result, alphabet))
    return 0


def cmd_pi(args) -> int:
    alphabet = _session_alphabet(args.letters)
    try:
        g = parse_gamma(args.element, alphabet)
    except ParseError as err:
        _print_parse_error(args.element, err)
        return 2
    if g.level is None:
        print("error: the invariant image needs a truncated context "
              "(use | n=<level>)", file=sys.stderr)
        return 2
    try:
        inv = MatrixInvariants.get(alphabet, g.level)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(inv.pi_n_eval(g).to_str())
    return 0


def cmd_sym(args) -> int:
    try:
        sym = parse_sympoly(args.expr)
    except ParseError as err:
        _print_parse_error(args.expr, err)
        return 2
    except ValueError as err:    # a partition or basis element out of range
        print(f"error: {err}", file=sys.stderr)
        return 2
    if sym.basis == "m":
        acc: dict = {}
        for p, c in sym.sorted_terms():
            poly_add_scaled(acc, m_to_e(p, sym.nvars).terms, c)
        sym = SymPoly("e", acc, sym.nvars)
    print(format_sympoly(sym))
    return 0


def cmd_verify(args) -> int:
    try:
        n_list = _parse_n_list(args.n)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    thms = THEOREMS if args.thm == "all" else tuple(args.thm.split(","))
    for t in thms:
        if t not in THEOREMS:
            print(f"error: unknown theorem {t!r}; choose from "
                  f"{', '.join(THEOREMS)}", file=sys.stderr)
            return 2
    cfg = {
        "letters": "".join(_session_alphabet(args.letters).names),
        "n": n_list,
        "maxdeg": args.maxdeg,
        "theorems": thms,
        "strict_z": args.strict_z,
        "seed": args.seed,
        "timing": args.timing,
        "workers": args.workers if args.workers else (os.cpu_count() or 1),
    }
    report = run_verify(cfg)
    text = _report_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        for e in report["entries"]:
            d = ",".join(map(str, e["multidegree"]))
            status = "PASS" if e["pass"] else "FAIL"
            print(f"{status} {e['theorem']:<10} n={e['n']} d=({d}) "
                  f"lhs={e['lhs_rank']} rhs={e['rhs_rank']} "
                  f"ker={e['kernel_rank']}")
        print(f"report: {len(report['entries'])} entries -> {args.out} "
              f"({'all pass' if report['pass'] else 'FAILURES'})")
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


def cmd_universal(args) -> int:
    try:
        with open(args.presentation) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read presentation: {err}", file=sys.stderr)
        return 2
    try:
        pres = load_presentation(data)
    except (ParseError, ValueError, KeyError) as err:
        print(f"error: bad presentation: {err}", file=sys.stderr)
        return 2
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
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"universal ring data -> {args.out}")
    else:
        sys.stdout.write(text)
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
                       help="seed for the randomized conjugation checks")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
