"""The universal commutative ring attached to a finitely presented ring.

For a presentation of R by generators and relations, the matrix-entry
ideal of the relations' generic-matrix images presents the universal ring
over which R maps to n x n matrices; the generator images are the generic
matrices taken modulo that ideal.  The ideal is handled extensionally:
degree-truncated spans give one-sided membership certificates, no normal
forms are computed.
"""

from __future__ import annotations

from .exactla import in_span
from .freering import Alphabet, FreePoly, parse_freepoly
from .invariants import CommPoly, MatrixInvariants, MatrixPoly


class Presentation:
    """Generators (an ordered alphabet) and relation polynomials."""

    __slots__ = ("alphabet", "relations")

    def __init__(self, alphabet: Alphabet, relations: tuple[FreePoly, ...]):
        k = len(alphabet)
        for r in relations:
            for w in r.terms:
                if not all(0 <= a < k for a in w):
                    raise ValueError("relation mentions an undeclared generator")
        self.alphabet = alphabet
        self.relations = relations


def load_presentation(data: dict) -> Presentation:
    """Build a presentation from the JSON shape
    {"generators": ["x", "y"], "relations": ["x*y - y*x - 1"]}."""
    if not isinstance(data, dict):
        raise ValueError("presentation must be a JSON object")
    gens, rels = data.get("generators", []), data.get("relations", [])
    if not all(isinstance(v, list) and all(isinstance(s, str) for s in v)
               for v in (gens, rels)):
        raise ValueError("generators and relations must be lists of strings")
    if not gens:
        raise ValueError("presentation needs at least one generator")
    alphabet = Alphabet(gens)
    return Presentation(alphabet, tuple(parse_freepoly(r, alphabet)
                                        for r in rels))


def build_An(p: Presentation, n: int
             ) -> tuple[list[CommPoly], list[MatrixPoly]]:
    """Ideal generators of the universal ring at order n, plus the images
    of the presentation's generators.

    The entries of each relation's generic-matrix image generate the same
    ideal as the two-sided matrix ideal (elementary matrices extract
    entries), so they are emitted directly.
    """
    inv = MatrixInvariants.get(p.alphabet, n)
    gens: list[CommPoly] = []
    for r in p.relations:
        mat = inv.jn_eval(r)
        for row in mat.entries:
            for entry in row:
                if not entry.is_zero():
                    gens.append(entry)
    images = [inv.generic_matrix(s) for s in range(len(p.alphabet))]
    return gens, images


def ideal_piece(gens: list[CommPoly], max_deg: int) -> list[CommPoly]:
    """Spanning set of the ideal slice of total degree <= max_deg:
    monomial multiples of the generators that stay within the bound."""
    if not gens:
        return []
    ring = gens[0].ring
    out: list[CommPoly] = []
    for g in gens:
        dg = g.total_degree()
        if dg > max_deg:
            continue
        for key in ring.monomials_up_to(max_deg - dg):
            out.append(g * CommPoly(ring, {key: 1}))
    return out


def ideal_membership(gens: list[CommPoly], target: CommPoly, max_deg: int
                     ) -> tuple[bool, list | None]:
    """One-sided certificate that target lies in the ideal, looking only at
    multiplier monomials within the degree bound.

    Membership is over Z: target is accepted exactly when it lies in the
    Z-span of ``ideal_piece(gens, max_deg)``, and the certificate has one
    int coefficient per element of that piece, in its order (see
    ``exactla.in_span``)."""
    span = ideal_piece(gens, max_deg)
    return in_span([p.terms for p in span], target.terms)
