"""Spans and counts around dpinv's public functions, attached from outside.

Each traced function is replaced by a wrapper in every ``dpinv.*`` namespace
that holds it: ``from ... import`` makes copies (``theorems.tau``,
``invariants.poly_mul``), so patching the defining module alone would miss
them.  Methods are replaced on their class.  Spans (name, start, end,
parent) are kept in flat arrays and written out once the run is over.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (layer metric prefix, module, attribute path) of every traced function
TRACED = (
    ("freering.enumerate_words", "dpinv.freering", "enumerate_words"),
    ("gamma.tau", "dpinv.gamma", "tau"),
    ("gamma.enumerate_dp_monomials", "dpinv.gamma", "enumerate_dp_monomials"),
    ("symfunc.plethysm_e_p", "dpinv.symfunc", "plethysm_e_p"),
    ("symfunc.rho_a_substitute", "dpinv.symfunc", "rho_a_substitute"),
    ("invariants.pi_monomial", "dpinv.invariants",
     "MatrixInvariants.pi_monomial"),
    ("invariants.det_cofactor", "dpinv.invariants", "det_cofactor"),
    ("invariants.invariant_span", "dpinv.invariants",
     "MatrixInvariants.invariant_span"),
    ("invariants.word_matrix", "dpinv.invariants",
     "MatrixInvariants.word_matrix"),
    ("kernels.poly_mul", "dpinv.backend", "poly_mul"),
    ("kernels.bareiss_rank", "dpinv.backend", "bareiss_rank"),
    ("exactla.rank", "dpinv.exactla", "ExactMatrix.rank"),
    ("exactla.smith", "dpinv.exactla", "ExactMatrix.smith_normal_form"),
    ("exactla.in_span", "dpinv.exactla", "in_span"),
    ("theorems.abelianized_piece", "dpinv.theorems", "abelianized_piece"),
    ("universal.ideal_piece", "dpinv.universal", "ideal_piece"),
    ("universal.ideal_membership", "dpinv.universal", "ideal_membership"),
    ("cli.run_verify", "dpinv.cli", "run_verify"),
)

BOOKKEEPING = "trace.bookkeeping"

# per-layer metrics reported by a traced run: (name, unit)
LAYER_METRICS = (
    ("invariants.pi_monomial.calls", "count"),
    ("invariants.pi_monomial.self_s", "s"),
    ("invariants.pi_monomial.distinct_ratio", "ratio"),
    ("invariants.det_cofactor.calls", "count"),
    ("invariants.det_cofactor.self_s", "s"),
    ("invariants.invariant_span.self_s", "s"),
    ("kernels.poly_mul.calls", "count"),
    ("kernels.poly_mul.term_pairs", "count"),
    ("kernels.poly_mul.self_s", "s"),
    ("exactla.rank.calls", "count"),
    ("exactla.rank.self_s", "s"),
    ("exactla.rank.cells", "count"),
    ("exactla.rank.nonzero_ratio", "ratio"),
    ("exactla.rank.rank_per_row", "ratio"),
    ("exactla.rank.duplicate_row_ratio", "ratio"),
    ("exactla.smith.calls", "count"),
    ("exactla.smith.self_s", "s"),
    ("exactla.smith.cells", "count"),
    ("kernels.bareiss_rank.self_s", "s"),
    ("gamma.tau.calls", "count"),
    ("gamma.tau.self_s", "s"),
    ("gamma.tau_monomials.hit_ratio", "ratio"),
    ("gamma.tau_monomials.misses", "count"),
    ("gamma.enumerate_dp_monomials.calls", "count"),
    ("gamma.enumerate_dp_monomials.distinct_ratio", "ratio"),
    ("gamma.enumerate_dp_monomials.self_s", "s"),
    ("theorems.abelianized_piece.self_s", "s"),
    ("theorems.relation_rows", "count"),
    ("symfunc.plethysm_e_p.self_s", "s"),
    ("symfunc.rho_a_substitute.self_s", "s"),
    ("invariants.word_matrix.self_s", "s"),
    ("universal.ideal_piece.rows", "count"),
    ("universal.ideal_membership.self_s", "s"),
    ("exactla.in_span.self_s", "s"),
    ("freering.enumerate_words.self_s", "s"),
    ("cli.run_verify.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: int, den: int) -> float:
    """A share with its base; an empty base reads 0 (the layer was idle)."""
    return num / den if den else 0.0


class Tracer:
    """Wraps the TRACED functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._distinct: dict[str, set] = {}
        self._in_det = False
        # costly counting runs inside its own span, so that it is not
        # charged to the self time of the caller
        self._bookkeeping = self._traced(BOOKKEEPING, lambda work: work())

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _see(self, key: str, item) -> None:
        self._distinct.setdefault(key, set()).add(item)

    def _traced(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(args, kwargs, result) runs after it."""
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # hooks: counts taken at the layer boundary, from arguments and results

    def _poly_mul(self, args, kwargs, result) -> None:
        a, b = args
        self._add("kernels.poly_mul.term_pairs", len(a) * len(b))

    def _pi_monomial(self, args, kwargs, result) -> None:
        inv, m = args
        self._see("invariants.pi_monomial", (inv.alphabet.names, inv.n, m))

    def _enumerate_dp(self, args, kwargs, result) -> None:
        self._see("gamma.enumerate_dp_monomials",
                  (tuple(args[0]), args[1] if len(args) > 1
                   else kwargs.get("max_weight")))

    def _rank(self, args, kwargs, result) -> None:
        mat = args[0]

        def work():
            rows = mat.rows
            self._add("exactla.rank.rows", len(rows))
            self._add("exactla.rank.cells", len(rows) * mat.ncols)
            self._add("exactla.rank.nonzero",
                      sum(len(r) - r.count(0) for r in rows))
            self._add("exactla.rank.duplicate_rows",
                      len(rows) - len(set(map(tuple, rows))))
            self._add("exactla.rank.rank_sum", result)

        self._bookkeeping(work)

    def _smith(self, args, kwargs, result) -> None:
        mat = args[0]
        self._add("exactla.smith.cells", mat.nrows * mat.ncols)

    def _abelianized(self, args, kwargs, result) -> None:
        self._add("theorems.relation_rows", result[1].nrows)

    def _ideal_piece(self, args, kwargs, result) -> None:
        self._add("universal.ideal_piece.rows", len(result))

    def _det_cofactor(self, fn):
        """Only outermost determinant calls get a span; the recursion
        into minors goes straight to the original function."""
        traced = self._traced("invariants.det_cofactor", fn)

        def wrapper(rows):
            if self._in_det:
                return fn(rows)
            self._in_det = True
            try:
                return traced(rows)
            finally:
                self._in_det = False

        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever dpinv holds it."""
        hooks = {
            "kernels.poly_mul": self._poly_mul,
            "invariants.pi_monomial": self._pi_monomial,
            "gamma.enumerate_dp_monomials": self._enumerate_dp,
            "exactla.rank": self._rank,
            "exactla.smith": self._smith,
            "theorems.abelianized_piece": self._abelianized,
            "universal.ideal_piece": self._ideal_piece,
        }
        for name, modname, path in TRACED:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if name == "invariants.det_cofactor":
                wrapper = self._det_cofactor(original)
            else:
                wrapper = self._traced(name, original, hooks.get(name))
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for modname_, module in list(sys.modules.items()):
                if modname_ != "dpinv" and not modname_.startswith("dpinv."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per traced name; self time is a span's
        duration minus the durations of its child spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(every per-layer metric but trace.overhead_s, calls per name)."""
        from dpinv import gamma

        calls, self_s = self.self_times()
        c = self.counts.get
        out: dict[str, float] = {}
        for name, _ in LAYER_METRICS:
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[prefix]
            elif field == "self_s" and prefix in self_s:
                out[name] = self_s[prefix]
            elif field == "distinct_ratio":
                out[name] = _ratio(len(self._distinct.get(prefix, ())),
                                   calls[prefix])
        for name in ("kernels.poly_mul.term_pairs", "exactla.rank.cells",
                     "exactla.smith.cells", "theorems.relation_rows",
                     "universal.ideal_piece.rows"):
            out[name] = c(name, 0)
        rows = c("exactla.rank.rows", 0)
        out["exactla.rank.nonzero_ratio"] = _ratio(
            c("exactla.rank.nonzero", 0), c("exactla.rank.cells", 0))
        out["exactla.rank.rank_per_row"] = _ratio(
            c("exactla.rank.rank_sum", 0), rows)
        out["exactla.rank.duplicate_row_ratio"] = _ratio(
            c("exactla.rank.duplicate_rows", 0), rows)
        info = gamma.tau_monomials.cache_info()
        out["gamma.tau_monomials.hit_ratio"] = _ratio(
            info.hits, info.hits + info.misses)
        out["gamma.tau_monomials.misses"] = info.misses
        return out, calls

    def write(self, path: str) -> None:
        """One JSON header line, then one [name, start, end, parent] line
        per span; parent is the line index of the parent span, or -1."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end",
                                             "parent"],
                                 "names": self.names}) + "\n")
            for rec in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                fh.write("[%d,%.9f,%.9f,%d]\n" % rec)
