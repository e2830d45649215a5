"""The ranks of the 2.2.2 cells against an independent count.

By Cauchy's formula, S^a(V (x) V*) is the sum of S_lam V (x) S_lam V* over
the partitions lam of a with at most n parts.  So the dimension over Q of
the multidegree-d invariant slice of m generic n x n matrices is

    sum over lam^k |- d_k (at most n parts each) of sum_nu (c^nu)^2,

where c^nu = c^nu_{lam^1 ... lam^m} is the iterated Littlewood-Richardson
coefficient (Procesi, Adv. Math. 19 (1976); Macdonald, *Symmetric
Functions and Hall Polynomials*, I.9).  The invariant span has that rank,
and by Theorem 2.2.2 so has the abelianized divided-power slice.

c^nu is the coefficient of x^(nu + delta) in a_delta * prod_k s_{lam^k},
in n variables: a_delta is the Vandermonde product, delta = (n-1, ..., 0),
and a_delta s_mu is the alternant a_{mu + delta}, whose only strictly
decreasing exponent is mu + delta.  The Schur polynomials come from the
Jacobi-Trudi determinant of complete symmetric polynomials.  Polynomials
are {exponent tuple: int} dicts, and no dpinv code is used.
"""

import functools
import itertools

import pytest

from dpinv.freering import Alphabet
from dpinv.theorems import multidegrees, verify_thm_2_2_2_cell


def _partitions(weight, max_parts, max_part=None):
    if weight == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(weight, max_part or weight), 0, -1):
        for rest in _partitions(weight - first, max_parts - 1, first):
            yield (first,) + rest


def _mul(p, q):
    out = {}
    for e, a in p.items():
        for f, b in q.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + a * b
    return {k: c for k, c in out.items() if c}


def _complete(k, n):
    """h_k in n variables."""
    if k < 0:
        return {}
    return {e: 1 for e in itertools.product(range(k + 1), repeat=n)
            if sum(e) == k}


@functools.lru_cache(maxsize=None)
def _schur(lam, n):
    """det(h_{lam_i - i + j}) by the Leibniz formula."""
    out = {(0,) * n: 1}
    if lam:
        out = {}
        size = len(lam)
        for perm in itertools.permutations(range(size)):
            term = {(0,) * n: (-1) ** sum(
                perm[i] > perm[j] for i in range(size)
                for j in range(i + 1, size))}
            for i, j in enumerate(perm):
                term = _mul(term, _complete(lam[i] - i + j, n))
            for e, c in term.items():
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def oracle_rank(n, d):
    vandermonde = {(0,) * n: 1}
    for i, j in itertools.combinations(range(n), 2):
        vandermonde = _mul(vandermonde, {
            tuple(int(k == i) for k in range(n)): 1,
            tuple(int(k == j) for k in range(n)): -1})
    total = 0
    for lams in itertools.product(*(list(_partitions(w, n)) for w in d)):
        p = vandermonde
        for lam in lams:
            p = _mul(p, _schur(lam, n))
        total += sum(c * c for e, c in p.items()
                     if all(a > b for a, b in zip(e, e[1:])))
    return total


def test_oracle_small_cases():
    # one 1x1 matrix per letter: a single monomial in every multidegree
    assert [oracle_rank(1, d) for d in [(0,), (3,), (2, 5)]] == [1, 1, 1]
    # one letter: the e_i of x, so the partitions of t with at most n parts
    assert [oracle_rank(2, (t,)) for t in range(6)] == [1, 1, 2, 2, 3, 3]
    # two letters of degree one at n=2: tr x tr y and tr xy
    assert oracle_rank(2, (1, 1)) == 2
    # the ranks of the n=4 frontier cells (3,4) and (4,4)
    assert oracle_rank(4, (3, 4)) == 60
    assert oracle_rank(4, (4, 4)) == 116


@pytest.mark.parametrize("letters, levels, maxdeg", [
    ("xy", (1, 2, 3), 6),
    ("xy", (4,), 5),
    ("xyz", (1, 2, 3), 4),
])
def test_cell_ranks_match_the_oracle(letters, levels, maxdeg):
    alphabet = Alphabet(letters)
    for n in levels:
        for d in multidegrees(len(alphabet), maxdeg):
            e = verify_thm_2_2_2_cell(n, d, alphabet)
            assert e.lhs_rank == e.rhs_rank == oracle_rank(n, d), (n, d)
