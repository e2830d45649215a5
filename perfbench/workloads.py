"""The benchmark's workloads: what one sample runs, why, and what it checks.

A sample is one fresh process, as a user pays it: interpreter start, cold
caches, then the verify configs of the workload through ``cli.run_verify``
with one worker and, for ``identities``, seeded ``ideal_membership`` calls.
The seed drives the conjugation spot-checks of ``2.2.2`` and the membership
targets; the amount of work does not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import Checks, check_certificate, check_report

LETTERS = "xy"

# ideal membership in the universal ring of the commutative presentation,
# at matrix order 2; its ideal is generated by the entries of [X, Y]
PRESENTATION = {"generators": ["x", "y"], "relations": ["x*y - y*x"]}
MEMBER_ORDER = 2
MEMBER_RELATION_DEGREE = 2


@dataclass(frozen=True)
class Verify:
    """One ``dpinv verify`` configuration."""

    theorems: tuple[str, ...]
    n: tuple[int, ...]
    maxdeg: int
    strict_z: bool = False

    def cfg(self, seed: int) -> dict:
        return {"letters": LETTERS, "n": list(self.n),
                "maxdeg": self.maxdeg, "theorems": self.theorems,
                "strict_z": self.strict_z, "seed": seed, "timing": False,
                "workers": 1}


@dataclass(frozen=True)
class Size:
    verify: tuple[Verify, ...]
    members: int = 0          # seeded member targets (plus one non-member)
    member_maxdeg: int = 0    # degree bound of the membership search


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    tiny: Size                # for the harness self-test
    expects: tuple[str, ...]  # traced functions that must record calls
    avoids: tuple[str, ...] = ()  # traced functions that must record none


_CORE = ("freering.enumerate_words", "gamma.tau",
         "gamma.enumerate_dp_monomials", "cli.run_verify")
_CELL = _CORE + ("invariants.pi_monomial", "invariants.det_cofactor",
                 "invariants.invariant_span", "kernels.poly_mul",
                 "exactla.rank", "kernels.bareiss_rank",
                 "theorems.abelianized_piece")

WORKLOADS = {w.name: w for w in (
    Workload(
        "pairing",
        "2.2.2 at n=3: the invariants pairing (det_cofactor of the "
        "parametric determinant) dominates; target of determinant "
        "coefficients by row multilinearity",
        Size((Verify(("2.2.2",), (3,), 4),)),
        Size((Verify(("2.2.2",), (3,), 2),)),
        _CELL),
    Workload(
        "lattice",
        "2.2.2 at n=2 with --strict-z: exactla rank and Smith form dominate "
        "over many small relation matrices; target of sparse rank and "
        "bounded Smith form",
        Size((Verify(("2.2.2",), (2,), 6, strict_z=True),)),
        Size((Verify(("2.2.2",), (2,), 3, strict_z=True),)),
        _CELL + ("exactla.smith",)),
    Workload(
        "limit-ring",
        "tau-axioms: pure gamma, tau on repeated monomial pairs with a high "
        "cache hit ratio; never reaches invariants or exactla, so changes "
        "there must not move it",
        Size((Verify(("tau-axioms",), (1, 2, 3), 6),)),
        Size((Verify(("tau-axioms",), (1, 2, 3), 3),)),
        _CORE,
        avoids=("invariants.pi_monomial", "invariants.det_cofactor",
                "invariants.word_matrix", "kernels.poly_mul",
                "exactla.rank", "exactla.smith", "exactla.in_span")),
    Workload(
        "identities",
        "ch and plethysm plus seeded ideal_membership: symfunc and universal, "
        "invariants as matrix products and exactla as Fraction elimination",
        Size((Verify(("ch", "plethysm"), (1, 2, 3), 4),
              Verify(("plethysm",), (4,), 4)), members=2, member_maxdeg=4),
        Size((Verify(("ch", "plethysm"), (1, 2), 2),),
             members=1, member_maxdeg=3),
        ("symfunc.plethysm_e_p", "symfunc.rho_a_substitute",
         "invariants.word_matrix", "invariants.pi_monomial",
         "kernels.poly_mul", "gamma.tau", "universal.ideal_piece",
         "universal.ideal_membership", "exactla.in_span", "cli.run_verify")),
)}


@dataclass
class Inputs:
    """Everything a sample needs, built before the first call into dpinv."""

    cfgs: list[dict]
    targets: list[list[tuple[int, tuple[int, ...], int]]]
    member_maxdeg: int


def build_inputs(workload: Workload, seed: int, tiny: bool) -> Inputs:
    """Verify configs and membership targets, drawn from the seed.

    A target is a sum of terms (generator index, multiplier exponents,
    coefficient); multipliers keep the target within the degree bound.
    Target t uses generators t and t + 1, so that the seed draws only
    multipliers and coefficients and the layer counts do not depend on it.
    """
    size = workload.tiny if tiny else workload.full
    rng = random.Random(f"{workload.name}:{seed}")
    nvars = len(LETTERS) * MEMBER_ORDER * MEMBER_ORDER
    targets = []
    for t in range(size.members):
        terms = []
        for j in (t, t + 1):
            exps = [0] * nvars
            for _ in range(rng.randint(
                    0, size.member_maxdeg - MEMBER_RELATION_DEGREE)):
                exps[rng.randrange(nvars)] += 1
            terms.append((j, tuple(exps), rng.choice((-3, -2, -1, 1, 2, 3))))
        targets.append(terms)
    return Inputs([v.cfg(seed) for v in size.verify], targets,
                  size.member_maxdeg)


@dataclass
class Outcome:
    reports: list[dict]
    gens: list | None = None
    members: list | None = None   # (target, (is_member, certificate)) pairs


def execute(inputs: Inputs) -> Outcome:
    """The timed part of a sample: from the first call into dpinv to the
    verdict."""
    from dpinv import cli, universal
    from dpinv.invariants import CommPoly

    out = Outcome([cli.run_verify(cfg) for cfg in inputs.cfgs])
    if not inputs.targets:
        return out
    pres = universal.load_presentation(PRESENTATION)
    gens, _ = universal.build_An(pres, MEMBER_ORDER)
    ring = gens[0].ring
    targets = []
    for terms in inputs.targets:
        acc = CommPoly.zero(ring)
        for j, exps, c in terms:
            acc = acc + gens[j % len(gens)] * CommPoly(ring,
                                                      {ring.pack(exps): c})
        targets.append(acc)
    # a degree-1 element cannot lie in an ideal generated in degree 2
    targets.append(ring.var(0))
    out.gens = gens
    out.members = [(t, universal.ideal_membership(gens, t,
                                                  inputs.member_maxdeg))
                   for t in targets]
    return out


def check(inputs: Inputs, outcome: Outcome) -> Checks:
    """Every oracle check of one sample."""
    checks = Checks()
    for cfg, report in zip(inputs.cfgs, outcome.reports):
        check_report(checks, cfg, report)
    if outcome.members is None:
        return checks
    from dpinv import universal

    span = [p.terms for p in universal.ideal_piece(outcome.gens,
                                                   inputs.member_maxdeg)]
    gens = [g.terms for g in outcome.gens]
    ring = outcome.gens[0].ring

    def degree_of(terms: dict) -> int:
        return max(sum(ring.unpack(k)) for k in terms)

    *members, (_, (non_member, cert)) = outcome.members
    for target, (is_member, certificate) in members:
        checks.expect(is_member, "a seeded member target was rejected")
        check_certificate(checks, gens, span, inputs.member_maxdeg,
                          degree_of, target.terms, certificate)
    checks.expect(not non_member and cert is None,
                  "a degree-1 non-member was accepted")
    return checks
