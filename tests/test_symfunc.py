import itertools

import pytest

from dpinv import symfunc
from dpinv.backend import poly_add_scaled
from dpinv.freering import Alphabet, FreePoly, distinct_permutations
from dpinv.gamma import GammaElement, dp_expand, tau
from dpinv.symfunc import (SymPoly, check_partition, conjugate,
                           format_sympoly, m_to_e, parse_sympoly, partitions,
                           plethysm_e_p, rho_a_substitute, zero_one_count)

AB = Alphabet("xy")
FX = FreePoly.letter(0)
FY = FreePoly.letter(1)


def to_monomials(sym):
    """Expansion of a SymPoly into exponent-tuple monomials over its nvars
    variables, through the m-expansion of each e_lam."""
    nvars = sym.nvars
    mono = sym.terms
    if sym.basis == "e":
        mono = {}
        for lam, c in sym.terms.items():
            poly_add_scaled(mono, symfunc._e_to_m(lam, nvars), c)
    return {exps: c for mu, c in mono.items()
            for exps in distinct_permutations(mu + (0,) * (nvars - len(mu)))}


def c_alpha(alpha, n):
    """Coefficient of e_n^(|alpha|/n) in the e-expansion of m_alpha over n
    variables; zero when n does not divide the weight."""
    alpha = check_partition(alpha)
    if len(alpha) > n:
        raise ValueError(f"partition has more than {n} parts")
    weight = sum(alpha)
    if weight % n:
        return 0
    target = (n,) * (weight // n)
    return m_to_e(alpha, n).terms.get(target, 0)


def brute_monomials(partition, nvars):
    """Independent expansion of m_alpha: orbit of the padded exponent
    vector under all permutations."""
    padded = tuple(partition) + (0,) * (nvars - len(partition))
    return {p: 1 for p in set(itertools.permutations(padded))}


def brute_e_product(lam, nvars):
    """Independent expansion of e_lam on exponent tuples: one 0/1 vector per
    choice of variables for each part, summed."""
    out = {(0,) * nvars: 1}
    for part in lam:
        nxt = {}
        for exps, c in out.items():
            for comb in itertools.combinations(range(nvars), part):
                k = tuple(e + (j in comb) for j, e in enumerate(exps))
                nxt[k] = nxt.get(k, 0) + c
        out = nxt
    return out


def dominated(mu, lam):
    """mu <= lam in dominance order (equal weights)."""
    return all(sum(mu[:k]) <= sum(lam[:k])
               for k in range(1, max(len(mu), len(lam)) + 1))


def test_zero_one_count_is_the_e_product_coefficient():
    # the coefficient of x^mu in e_lam over nvars variables, for every pair
    # of weight <= 6; it is 1 at the conjugate, and nonzero exactly on the
    # partitions the conjugate dominates (Gale-Ryser)
    assert zero_one_count.cache_info().maxsize is not None
    for weight in range(7):
        for lam in partitions(weight):
            assert zero_one_count(conjugate(lam), lam) == 1
            for nvars in range(1, 7):
                brute = brute_e_product(lam, nvars)
                for mu in partitions(weight, max_parts=nvars):
                    padded = mu + (0,) * (nvars - len(mu))
                    count = zero_one_count(lam, mu)
                    assert count == brute.get(padded, 0), (lam, mu, nvars)
                    assert bool(count) == dominated(mu, conjugate(lam))


def test_m_to_e_examples():
    assert m_to_e((1, 1), 2).terms == {(2,): 1}
    assert m_to_e((2,), 2).terms == {(1, 1): 1, (2,): -2}
    assert m_to_e((1,), 2).terms == {(1,): 1}


def test_m_to_e_roundtrip_up_to_weight_six():
    for weight in range(1, 7):
        for nvars in range(1, 7):
            for alpha in partitions(weight, max_parts=nvars):
                e = m_to_e(alpha, nvars)
                assert to_monomials(e) == brute_monomials(alpha, nvars), \
                    (alpha, nvars)


def test_m_to_e_roundtrip_at_power_of_two_weights():
    # one exponent equals the weight: a field one bit short would carry
    for alpha, nvars in [((8,), 2), ((16,), 1)]:
        e = m_to_e(alpha, nvars)
        assert to_monomials(e) == brute_monomials(alpha, nvars), alpha


def test_m_to_e_has_no_weight_cap():
    assert m_to_e((200,), 1).terms == {(1,) * 200: 1}


def test_m_to_e_in_many_variables():
    # m_21 = e_1 e_2 - 3 e_3; its orbit has 132 monomials out of 12! orderings
    assert m_to_e((2, 1), 12).terms == {(2, 1): 1, (3,): -3}


def test_to_monomials_mixed_weights():
    terms = {(2, 1): 3, (1,): -1, (3, 3): 2}
    expected = {}
    for lam, c in terms.items():
        for exps, v in brute_e_product(lam, 6).items():
            expected[exps] = expected.get(exps, 0) + c * v
    expected = {k: v for k, v in expected.items() if v}
    assert to_monomials(SymPoly("e", terms, 6)) == expected


def test_m_to_e_rejects_too_few_variables():
    with pytest.raises(ValueError):
        m_to_e((1, 1, 1), 2)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_plethysm_examples():
    assert plethysm_e_p(1, 2, 4).terms == {(1, 1): 1, (2,): -2}
    assert plethysm_e_p(1, 1, 2).terms == {(1,): 1}
    # e_2 o p_2 at weight 4, against the monomial orbit oracle
    pl = plethysm_e_p(2, 2, 4)
    assert to_monomials(pl) == brute_monomials((2, 2), 4)


def test_plethysm_against_substituted_e_i():
    # e_i(x_1^n, ..., x_N^n) at N = n*i, expanded from variable subsets
    for i in range(1, 9):
        for n in range(1, 8 // i + 1):
            nvars = n * i
            brute = {tuple(n if j in comb else 0 for j in range(nvars)): 1
                     for comb in itertools.combinations(range(nvars), i)}
            assert to_monomials(plethysm_e_p(i, n, nvars)) == brute, (i, n)


def test_plethysm_stable_in_extra_variables():
    for i, n in [(1, 2), (2, 2), (1, 3)]:
        base = plethysm_e_p(i, n, n * i)
        wider = plethysm_e_p(i, n, n * i + 2)
        assert base.terms == wider.terms


def test_plethysm_memo_is_bounded_and_hands_out_copies():
    assert symfunc._plethysm_terms.cache_info().maxsize is not None
    first = plethysm_e_p(2, 2, 4)
    expected = dict(first.terms)
    first.terms[(1,)] = 7
    first.terms.pop((2, 2), None)
    again = plethysm_e_p(2, 2, 4)
    assert again is not first and again.terms == expected
    with pytest.raises(ValueError):
        plethysm_e_p(2, 2, 3)


def test_plethysm_needs_a_positive_power():
    # e_i o p_0 is no monomial function: an error, not a value
    with pytest.raises(ValueError):
        plethysm_e_p(2, 0, 3)


def test_c_alpha_examples():
    assert c_alpha((2,), 2) == -2
    assert c_alpha((1, 1), 2) == 1
    assert c_alpha((1,), 2) == 0
    with pytest.raises(ValueError):
        c_alpha((1, 1, 1), 2)


def test_rho_a_examples():
    e2 = SymPoly("e", {(2,): 1}, 2)
    assert rho_a_substitute(e2, FX) == dp_expand(FX, 2)
    e11 = SymPoly("e", {(1, 1): 1}, 2)
    gx = dp_expand(FX, 1)
    assert rho_a_substitute(e11, FX) == tau(gx, gx)
    e_comb = SymPoly("e", {(1, 1): 1, (2,): -2}, 2)
    assert rho_a_substitute(e_comb, FX) == dp_expand(FX * FX, 1)


def test_plethysm_head_identity_small_elements():
    # (a^n)^(i) = rho_a(e_i o p_n) for elements of total degree <= 2
    elements = [FX, FY, FX * FY, FX + FY, 2 * FX - FY]
    for a in elements:
        for n in (2, 3):
            for i in (1, 2):
                lhs = dp_expand(a ** n, i)
                rhs = rho_a_substitute(plethysm_e_p(i, n, n * i), a)
                assert lhs == rhs, (n, i)


def test_closed_form_via_c_alpha():
    # (a^n)^(i) = sum over partitions of ni in at most n parts of
    # c_alpha * tau-product of a^(alpha_k).  The root-of-unity evaluation
    # e_n = (-1)^(n+1) makes the paper's displayed sign prefactor cancel.
    for a in [FX, FX * FY, FX + FY]:
        for n in (2, 3):
            for i in (1, 2):
                total = GammaElement.zero()
                for alpha in partitions(n * i, max_parts=n):
                    c = c_alpha(alpha, n)
                    if not c:
                        continue
                    acc = GammaElement.one()
                    for part in alpha:
                        acc = tau(acc, dp_expand(a, part))
                    total = total + acc * c
                assert total == dp_expand(a ** n, i), (n, i)


def test_dp_powers_of_same_element_commute():
    # needed for the closed form: a^(i) tau a^(j) = a^(j) tau a^(i)
    for a in [FX, FX + FY, FX * FY + FY]:
        for i in range(3):
            for j in range(3):
                assert tau(dp_expand(a, i), dp_expand(a, j)) == \
                    tau(dp_expand(a, j), dp_expand(a, i))


def test_parse_and_format():
    s = parse_sympoly("e[2,1]")
    assert s.basis == "e" and s.terms == {(2, 1): 1} and s.nvars == 3
    s2 = parse_sympoly("m[3,1,1]@6")
    assert s2.basis == "m" and s2.nvars == 6
    assert parse_sympoly(format_sympoly(s2).split("@")[0].replace(" ", "")
                         + "@6").terms == s2.terms


def test_variable_count_is_not_negative():
    # "e[]@-1" parsed and printed back
    assert SymPoly("e", {(): 1}, 0).nvars == 0
    with pytest.raises(ValueError, match="negative variable count -1"):
        SymPoly("e", {(): 1}, -1)


def test_partitions_enumeration():
    assert partitions(4, max_parts=2) == [(4,), (3, 1), (2, 2)]
    assert partitions(0) == [()]
    assert len(partitions(6)) == 11
    # largest-first is descending lex order on the weakly decreasing parts;
    # the oracle sorts every composition, read off its set of cut points
    for weight in range(1, 9):
        comps = [tuple(b - a for a, b in zip((0,) + cuts, cuts + (weight,)))
                 for r in range(weight)
                 for cuts in itertools.combinations(range(1, weight), r)]
        for max_parts in (None, 1, 2, 3):
            want = sorted({tuple(sorted(c, reverse=True)) for c in comps
                           if max_parts is None or len(c) <= max_parts},
                          reverse=True)
            assert partitions(weight, max_parts) == want
