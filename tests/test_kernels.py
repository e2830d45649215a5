"""The packed-key kernels against plain references on exponent tuples."""

import random

from dpinv.backend import bareiss_rank, poly_add_scaled, poly_mul

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


def test_bareiss_rank_big_integers():
    rows = [[10 ** 30, 1], [10 ** 30, 1], [0, 10 ** 40]]
    assert bareiss_rank(rows) == 2
