"""Kernels for the hot inner loops: sparse term merging and exact rank.

Sparse polynomials are dicts mapping a packed monomial key (a non-negative
int whose fixed-width bit fields hold the exponents) to a nonzero int
coefficient.  Packed keys add when monomials multiply, so the field width
must exceed every exponent sum that can occur; callers guarantee that.

This is the only implementation of each kernel.  The module keeps its name
and ``backend_name()`` because the benchmark harness traces
``dpinv.backend.poly_mul`` and ``dpinv.backend.bareiss_rank`` and records
the backend name with every sample.
"""


def backend_name() -> str:
    return "python"


def poly_mul(a, b):
    """Multiply two packed-key polynomial dicts."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            c = out.get(k, 0) + va * vb
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def poly_add_scaled(acc, b, s):
    """In-place acc += s*b on sparse dicts with any hashable key; returns acc.

    Keys whose coefficient cancels to zero are removed.
    """
    if s:
        for k, v in b.items():
            c = acc.get(k, 0) + s * v
            if c:
                acc[k] = c
            elif k in acc:
                del acc[k]
    return acc


def bareiss_rank(rows):
    """Rank over Q of an integer matrix (list of equal-length int lists).

    Fraction-free Bareiss elimination: every intermediate entry is a minor
    of the input, and the division by the previous pivot is exact.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = -1
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        top = m[rank]
        for i in range(rank + 1, nrows):
            mi = m[i]
            a = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (p * mi[j] - a * top[j]) // prev
            mi[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank
