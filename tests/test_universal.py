import pytest

from dpinv.exactla import ExactMatrix
from dpinv.freering import Alphabet, FreePoly, Word, parse_freepoly
from dpinv.invariants import CommPoly, MatrixInvariants
from dpinv.universal import (Presentation, build_An, ideal_membership,
                             ideal_piece, load_presentation)


def pres(gen_names, relation_texts):
    data = {"generators": list(gen_names), "relations": relation_texts}
    return load_presentation(data)


def test_square_zero_at_order_one():
    p = pres("x", ["x^2"])
    gens, images = build_An(p, 1)
    assert [g.to_str() for g in gens] == ["x[x][1][1]^2"]
    assert images[0].entries[0][0].to_str() == "x[x][1][1]"


def test_free_ring_has_empty_ideal():
    p = pres("xy", [])
    gens, images = build_An(p, 2)
    assert gens == []
    assert len(images) == 2


def test_square_minus_one_at_order_two():
    p = pres("x", ["x^2 - 1"])
    gens, _ = build_An(p, 2)
    assert len(gens) == 4
    ctx = MatrixInvariants.get(p.alphabet, 2)
    zx = ctx.generic_matrix("x")
    expected = zx * zx - ctx.jn_eval(FreePoly.one())
    assert gens == [e for row in expected.entries for e in row]


def test_relation_with_undeclared_generator():
    with pytest.raises(ValueError):
        Presentation(Alphabet("x"),
                     (parse_freepoly("x*y", Alphabet("xy")),))
    # a negative letter index is no generator either
    with pytest.raises(ValueError):
        Presentation(Alphabet("x"), (FreePoly({Word((-1,)): 1}),))


def test_jnr_image_cases():
    # an element's image in the universal ring is its generic-matrix image,
    # read modulo the ideal
    p = pres("x", ["x^2"])
    ctx = MatrixInvariants.get(p.alphabet, 1)
    zx = ctx.jn_eval(parse_freepoly("x", p.alphabet))
    assert zx.entries[0][0].to_str() == "x[x][1][1]"
    # a relation maps to a matrix of ideal generators
    rel_img = ctx.jn_eval(parse_freepoly("x^2", p.alphabet))
    gens, images = build_An(p, 1)
    assert rel_img.entries[0][0] == gens[0]
    assert images == [zx]


def test_membership_certificate_degree_three():
    p = pres("x", ["x^2"])
    gens, _ = build_An(p, 1)
    ctx = MatrixInvariants.get(p.alphabet, 1)
    x11 = ctx.generic_matrix("x").entries[0][0]
    ok, cert = ideal_membership(gens, x11 ** 3, max_deg=3)
    assert ok and cert is not None
    ok, _ = ideal_membership(gens, x11, max_deg=3)
    assert not ok


def _remultiply(gens, max_deg, cert):
    acc = {}
    for c, q in zip(cert, ideal_piece(gens, max_deg), strict=True):
        for k, v in q.terms.items():
            acc[k] = acc.get(k, 0) + c * v
    return {k: v for k, v in acc.items() if v}


def _commutator_target(gens, degree):
    """An integer combination of monomial multiples of the first two ideal
    generators, of total degree at most the given one."""
    ring = gens[0].ring
    shift = [0] * len(ring.names)
    shift[0] = degree - 2
    m = CommPoly(ring, {ring.pack(shift): 1})
    shift[0], shift[-1] = 0, degree - 2
    m2 = CommPoly(ring, {ring.pack(shift): 1})
    return gens[0] * m * 3 - gens[1] * m2 * 2 + gens[-1]


def test_membership_is_decided_over_z():
    # the ideal (2x) holds x only over Q, with multiplier 1/2, so x is not
    # a member; 2x is, with multiplier 1
    p = pres("x", ["2*x"])
    gens, images = build_An(p, 1)
    x11 = images[0].entries[0][0]
    assert ideal_membership(gens, x11, max_deg=1) == (False, None)
    ok, cert = ideal_membership(gens, x11 * 2, max_deg=1)
    assert ok and cert == [1] and type(cert[0]) is int
    assert _remultiply(gens, 1, cert) == (x11 * 2).terms


def test_membership_certificates_are_integers_on_the_commutator_ideal():
    p = pres("xy", ["x*y - y*x"])
    gens, _ = build_An(p, 2)
    for degree in (2, 3, 4):
        target = _commutator_target(gens, degree)
        ok, cert = ideal_membership(gens, target, degree)
        assert ok and all(type(c) is int for c in cert)
        assert _remultiply(gens, degree, cert) == target.terms
    ring = gens[0].ring
    assert ideal_membership(gens, ring.var(0) * ring.var(1), 4) \
        == (False, None)


def test_membership_of_zero_without_generators():
    ring = MatrixInvariants.get(Alphabet("xy"), 2).ring
    assert ideal_membership([], CommPoly.zero(ring), 3) == (True, [])


def test_membership_order_three_degree_four():
    # 1710 spanning multiples; dense Fraction elimination took minutes here
    p = pres("xy", ["x*y - y*x"])
    gens, _ = build_An(p, 3)
    target = _commutator_target(gens, 4)
    ok, cert = ideal_membership(gens, target, 4)
    assert ok and len(cert) == len(ideal_piece(gens, 4)) == 1710
    assert _remultiply(gens, 4, cert) == target.terms


def test_jnr_equals_jn_for_free_presentation():
    p = pres("xy", [])
    ctx = MatrixInvariants.get(p.alphabet, 2)
    f = parse_freepoly("x*y - 2*y", p.alphabet)
    # with no relations the images are the generic matrices themselves
    gens, (zx, zy) = build_An(p, 2)
    assert gens == [] and ctx.jn_eval(f) == zx * zy - zy * 2


def _piece_rank(gens, max_deg):
    span = ideal_piece(gens, max_deg)
    keys = sorted({k for q in span for k in q.terms})
    cols = {k: i for i, k in enumerate(keys)}
    return ExactMatrix([q.coeff_vector(cols) for q in span],
                       len(cols)).rank()


def test_redundant_relation_does_not_change_piece_ranks():
    p1 = pres("x", ["x^2"])
    p2 = pres("x", ["x^2", "x*x^2"])
    g1, _ = build_An(p1, 1)
    g2, _ = build_An(p2, 1)
    for d in range(2, 5):
        assert _piece_rank(g1, d) == _piece_rank(g2, d)


def test_ideal_generators_multihomogeneous_for_homogeneous_relations():
    p = pres("xy", ["x*y - y*x"])
    gens, _ = build_An(p, 2)
    ring = gens[0].ring
    for g in gens:
        degs = {sum(ring.unpack(k)) for k in g.terms}
        assert len(degs) == 1
