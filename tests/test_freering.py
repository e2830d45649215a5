import itertools
from math import comb, gcd

import pytest

from dpinv.freering import (Alphabet, FreePoly, ParseError, Word,
                            compositions, cyclic_normal_form,
                            distinct_permutations, enumerate_lyndon_words,
                            enumerate_words, multidegree, multisets,
                            parse_freepoly, word_from_str)
from dpinv.gamma import (DPMonomial, enumerate_dp_monomials, parse_gamma,
                         tau_monomials)

AB = Alphabet("xy")


def w(text):
    return word_from_str(text, AB)


def spell(word):
    return "".join(AB[a] for a in word)


def words_up_to(nletters, length):
    """The nonempty words of at most the given length, in graded lex order."""
    return [u for u in enumerate_words(nletters, (length,) * nletters)
            if len(u) <= length]


def rotations(word):
    return [Word(word[i:] + word[:i]) for i in range(len(word))]


def test_cyclic_normal_form_examples():
    assert cyclic_normal_form(w("xyx")) == w("xxy")
    assert cyclic_normal_form(w("x")) == w("x")
    assert cyclic_normal_form(w("yx")) == w("xy")


def test_cyclic_normal_form_matches_brute_force():
    for length in range(1, 9):
        for letters in itertools.product((0, 1), repeat=length):
            word = Word(letters)
            assert cyclic_normal_form(word) == min(rotations(word))


def test_cyclic_normal_form_idempotent_and_rotation_invariant():
    for length in range(1, 7):
        for letters in itertools.product((0, 1), repeat=length):
            word = Word(letters)
            nf = cyclic_normal_form(word)
            assert cyclic_normal_form(nf) == nf
            assert nf in rotations(word)


def test_cyclic_normal_form_of_uv_equals_vu():
    words = words_up_to(2, 3)
    for u in words:
        for v in words:
            assert cyclic_normal_form(u + v) == cyclic_normal_form(v + u)


def test_cyclic_normal_form_rejects_empty():
    with pytest.raises(ValueError):
        cyclic_normal_form(Word())


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_necklace_counts_match_formula():
    for length in range(1, 9):
        reps = {cyclic_normal_form(Word(ls))
                for ls in itertools.product((0, 1), repeat=length)}
        expected = sum(euler_phi(d) * 2 ** (length // d)
                       for d in range(1, length + 1) if length % d == 0) // length
        assert len(reps) == expected


def mobius(n):
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def test_enumerate_lyndon_words_counts_match_witt_formula():
    # Lyndon words of content (a, b): (1/L) sum_{k | gcd(a,b)} mu(k) C(L/k, a/k)
    for length in range(1, 11):
        for a in range(length + 1):
            g = gcd(a, length - a)
            expected = sum(mobius(k) * comb(length // k, a // k)
                           for k in range(1, g + 1) if g % k == 0) // length
            got = [u for u in enumerate_lyndon_words(2, (a, length - a))
                   if len(u) == length]
            assert len(got) == expected, (a, length - a)
    assert [spell(u) for u in enumerate_lyndon_words(2, (2, 2))] == \
        ["x", "y", "xy", "xxy", "xyy", "xxyy"]


def test_enumerate_words_examples():
    names = [spell(word) for word in words_up_to(2, 2)]
    assert names == ["x", "y", "xx", "xy", "yx", "yy"]
    lyndon = [u for u in enumerate_lyndon_words(2, (2, 2)) if len(u) <= 2]
    assert all(type(u) is Word for u in lyndon)
    assert [spell(u) for u in lyndon] == ["x", "y", "xy"]
    assert enumerate_words(2, max_multidegree=(0, 0)) == []


def words_oracle(bound):
    """Every letter tuple of length 1..|bound| by itertools.product, in
    graded lex order, kept if its multidegree lies within the bound."""
    r = len(bound)
    return [Word(ls) for length in range(1, sum(bound) + 1)
            for ls in itertools.product(range(r), repeat=length)
            if all(a <= b for a, b in zip(multidegree(ls, r), bound))]


# two letters at |d| <= 7, three at |d| <= 5, and two lopsided bounds
ORACLE_BOUNDS = ([d for t in range(8) for d in compositions(t, 2)]
                 + [d for t in range(6) for d in compositions(t, 3)]
                 + [(8, 0, 0), (0, 3)])


def test_enumerate_words_multidegree_bound():
    # the same list as the filter over all k^L letter tuples, in the same
    # order, every entry a Word and none twice
    for bound in ORACLE_BOUNDS:
        words = enumerate_words(len(bound), max_multidegree=bound)
        assert words == words_oracle(bound), bound
        assert all(type(u) is Word for u in words), bound
        assert len(words) == len(set(words)), bound


def test_enumerate_lyndon_words_match_the_rotation_filter():
    # the oracle's words that are < each of their proper rotations
    for bound in ORACLE_BOUNDS:
        want = [u for u in words_oracle(bound)
                if all(u < v for v in rotations(u)[1:])]
        got = enumerate_lyndon_words(len(bound), max_multidegree=bound)
        assert got == want, bound
        assert all(type(u) is Word for u in got), bound


def test_multidegree_bound_needs_one_entry_per_letter():
    for bound in ((1,), (1, 1, 0), ()):
        with pytest.raises(ValueError):
            enumerate_words(2, max_multidegree=bound)
        with pytest.raises(ValueError):
            enumerate_lyndon_words(2, max_multidegree=bound)
    assert [spell(u) for u in enumerate_words(2, max_multidegree=(1, 0))] \
        == ["x"]


def multisets_oracle(degs, d, max_count=None):
    """Filter every exponent vector with e_k * |degs[k]| <= |d|; list the
    choices by descending exponent vector."""
    found = []
    for exps in itertools.product(*(range(sum(d) // sum(deg) + 1)
                                    for deg in degs)):
        total = tuple(sum(e * deg[j] for e, deg in zip(exps, degs))
                      for j in range(len(d)))
        if total == tuple(d) and (max_count is None or sum(exps) <= max_count):
            found.append(exps)
    found.sort(reverse=True)
    return [tuple((k, e) for k, e in enumerate(exps) if e) for exps in found]


MULTISET_CASES = [
    ([(3,), (2,), (1,)], (6,)),
    ([(1,), (2,), (4,)], (7,)),
    ([(1, 0), (0, 1), (2, 0), (1, 1), (1, 1), (0, 2), (2, 1)], (2, 2)),
    ([(0, 1), (1, 0), (1, 1)], (3, 2)),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
      (2, 0, 1)], (2, 1, 1)),
    ([(1, 0, 1), (0, 2, 0)], (1, 2, 1)),
    ([(1, 1)], (0, 0)),
    ([], (0,)),
    ([(2,)], (3,)),
    ([(1, 1)], (1, 0)),
    ([(1, 0, 0), (0, 0, 2)], (1, 1, 2)),
]


@pytest.mark.parametrize("degs, d", MULTISET_CASES)
def test_multisets_match_the_filtered_product(degs, d):
    for max_count in (None, 0, 1, 2, 3, 5):
        assert list(multisets(degs, d, max_count)) == \
            multisets_oracle(degs, d, max_count), max_count


def test_multisets_edge_cases():
    # a zero target has one empty choice, an unreachable one none
    assert list(multisets([(1, 1), (2, 0)], (0, 0))) == [()]
    assert list(multisets([(1, 1)], (0, 0), max_count=0)) == [()]
    assert list(multisets([(2,)], (3,))) == []
    assert list(multisets([(1,)], (3,), max_count=2)) == []
    # earlier items first, larger exponents first: partitions come out
    # largest-first, and the basis and span read the choices in this order
    assert list(multisets([(3,), (2,), (1,)], (4,))) == \
        [((0, 1), (2, 1)), ((1, 2),), ((1, 1), (2, 2)), ((2, 4),)]
    with pytest.raises(ValueError):
        list(multisets([(1,), (0,)], (2,)))


def test_compositions():
    for nparts in range(4):
        for total in range(5):
            want = [c for c in itertools.product(range(total + 1), repeat=nparts)
                    if sum(c) == total]
            assert list(compositions(total, nparts)) == want


def fp(text):
    return parse_freepoly(text, AB)


def test_freepoly_examples():
    x, y = FreePoly.letter(0), FreePoly.letter(1)
    assert (x + y) * x == fp("x^2 + y*x")
    assert x * y != y * x
    assert (x - x) * y == FreePoly.zero()


def test_freepoly_mul_associative_on_monomial_triples():
    # exhaustive on word triples of total degree <= 4 (the empty word
    # stands in for the unit)
    words = [Word()] + words_up_to(2, 4)
    for u, v, z in itertools.product(words, repeat=3):
        if len(u) + len(v) + len(z) > 4:
            continue
        a, b, c = (FreePoly.from_word(t) for t in (u, v, z))
        assert (a * b) * c == a * (b * c)


def test_freepoly_distributive_spot():
    a, b, c = fp("x + 2*y"), fp("x*y - 1"), fp("y^2")
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_freepoly_power_and_constants():
    x = fp("x")
    assert x ** 0 == FreePoly.one()
    assert x ** 3 == fp("x^3")
    assert fp("2") * fp("3") == fp("6")
    assert fp("x*y - y*x").constant_term == 0
    assert fp("x + 1").constant_term == 1


def test_every_producer_hands_out_plain_tuples():
    x = DPMonomial((((0,), 1),))
    [m] = parse_gamma("[x^(1)|lim]", AB).terms
    assert m is x  # interned by content
    xy = parse_gamma("[x^(1) y^(1) xy^(2)|lim]", AB)
    monos = (list(xy.terms) + list(tau_monomials(*xy.terms, *xy.terms).terms)
             + enumerate_dp_monomials((2, 2)))
    f = fp("2*x*y^2 - y*x + 3")
    words = ([w("xyx"), cyclic_normal_form(w("yxx"))]
             + enumerate_words(2, (2, 2)) + enumerate_lyndon_words(2, (2, 2))
             + f.words() + (f * f).words() + FreePoly.one().words()
             + FreePoly.letter(1).words()
             + [u for m in monos for u, _ in m.factors])
    assert len(words) > 100 and all(type(u) is tuple for u in words)


def test_parse_whitespace_insensitive():
    assert fp("2*x*y^2 - y*x") == fp("  2 * x * y ^ 2-y*x ")


def test_alphabet_letters_are_single_alphabetic_characters():
    # the parsers read one character per letter
    for names in (["xy"], [1, 2], "x+", ["", "x"]):
        with pytest.raises(ValueError, match="single alphabetic"):
            Alphabet(names)
    assert Alphabet(["x", "y"]) == AB


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        fp("2*x*q")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        fp("")
    with pytest.raises(ParseError):
        fp("x +")


def test_format_roundtrip():
    for text in ["x", "-x + y", "2*x*y^2 - y*x + 3", "x*x - 1"]:
        p = fp(text)
        assert fp(p.to_str(AB)) == p


def test_distinct_permutations_match_the_full_walk():
    for seq in [(), (1,), (0, 0), (2, 1, 0), (1, 0, 1, 0), (3, 1, 1, 0, 0),
                (0, 2, 2, 2), "abca", (5, 5, 5, 5, 5)]:
        got = list(distinct_permutations(seq))
        assert got == sorted(set(itertools.permutations(seq))), seq
