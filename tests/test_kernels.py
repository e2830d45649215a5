"""The packed-key kernels against plain references on exponent tuples."""

import copy
import random

from dpinv.backend import bareiss_rank, combine, poly_add_scaled, poly_mul

WIDTH, NVARS = 16, 3


def random_poly(rng, nterms):
    out = {}
    for _ in range(nterms):
        key = 0
        for i in range(NVARS):
            key |= rng.randint(0, 6) << (WIDTH * i)
        out[key] = rng.randint(-9, 9) or 1
    return out


def unpack(key):
    return tuple((key >> (WIDTH * i)) & ((1 << WIDTH) - 1)
                 for i in range(NVARS))


def unpacked(poly):
    return {unpack(k): c for k, c in poly.items()}


def reference_mul(a, b):
    """Product on exponent tuples: exponents add, coefficients collect."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_add_scaled(acc, b, s):
    keys = set(acc) | set(b)
    out = {e: acc.get(e, 0) + s * b.get(e, 0) for e in keys}
    return {e: c for e, c in out.items() if c}


def test_poly_mul_matches_reference():
    rng = random.Random(31)
    for _ in range(200):
        a = random_poly(rng, rng.randint(0, 12))
        b = random_poly(rng, rng.randint(0, 12))
        assert unpacked(poly_mul(a, b)) == \
            reference_mul(unpacked(a), unpacked(b))


def test_poly_mul_keeps_operand_order():
    # tuple keys concatenate, so the product is a noncommutative one; the
    # first operand is the longer one
    rng = random.Random(33)
    for _ in range(100):
        a = {tuple(rng.choices("xy", k=rng.randint(0, 3))):
             rng.randint(-9, 9) or 1 for _ in range(rng.randint(2, 8))}
        b = {tuple(rng.choices("xy", k=rng.randint(1, 3))):
             rng.randint(-9, 9) or 1 for _ in range(len(a) - 1)}
        expected = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                expected[wa + wb] = expected.get(wa + wb, 0) + ca * cb
        assert poly_mul(a, b) == {w: c for w, c in expected.items() if c}


def test_poly_mul_cancellation():
    # (x - x) * y must come out empty
    a = {1: 1}
    am = {1: -1}
    b = {1 << 16: 1}
    combined = dict(a)
    poly_add_scaled(combined, am, 1)
    assert poly_mul(combined, b) == {}
    assert poly_mul({}, b) == {}


def test_poly_add_scaled_matches_reference():
    rng = random.Random(32)
    for _ in range(200):
        acc = random_poly(rng, rng.randint(0, 10))
        b = random_poly(rng, rng.randint(0, 10))
        s = rng.randint(-4, 4)
        expected = reference_add_scaled(unpacked(acc), unpacked(b), s)
        assert unpacked(poly_add_scaled(acc, b, s)) == expected


def test_combine_matches_reference():
    rng = random.Random(34)
    assert combine([]) == {}
    # a single term is copied, never handed back
    v = {1: 2, 1 << 16: -3}
    for c in (1, 2, -1):
        out = combine([(0, {5: 1}), (c, v)])
        assert out == {k: c * x for k, x in v.items()} and out is not v
        out.clear()
        assert v == {1: 2, 1 << 16: -3}
    for _ in range(300):
        pairs = [(rng.choice([0, 1, 1, -1, rng.randint(-4, 4)]),
                  random_poly(rng, rng.randint(0, 8)))
                 for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            # a sum that cancels to {}
            c, v = rng.choice(pairs)
            pairs.append((-c, v))
        before = copy.deepcopy(pairs)
        expected = {}
        for c, v in pairs:
            expected = reference_add_scaled(expected, unpacked(v), c)
        out = combine(iter(pairs))
        assert unpacked(out) == expected
        assert pairs == before, "an input was changed"
        assert all(out is not v for _, v in pairs)
        out[-1] = 5
        assert pairs == before, "the result shares an input"


def test_bareiss_rank_big_integers():
    rows = [[10 ** 30, 1], [10 ** 30, 1], [0, 10 ** 40]]
    assert bareiss_rank(rows) == 2
