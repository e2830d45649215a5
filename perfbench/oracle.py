"""Correctness checks that do not come from dpinv itself.

Ranks of the graded isomorphism are compared with the Hilbert series of the
invariant ring of two generic matrices, whose generators are classical:

* n = 1: the polynomial ring on tr X, tr Y;
* n = 2: the polynomial ring on tr X, tr Y, det X, det Y, tr XY
  (Procesi 1984);
* n = 3: a free module with basis {1, tr X^2Y^2XY} over the polynomial ring
  on tr X, tr Y, tr X^2, tr XY, tr Y^2, tr X^3, tr X^2Y, tr XY^2, tr Y^3,
  tr X^2Y^2 (Teranishi, Nagoya Math. J. 104, 1986).

Ideal-membership certificates are re-multiplied here with plain Fraction
arithmetic on coefficient dicts.
"""

from __future__ import annotations

from fractions import Fraction

# bidegrees of the primary generators and of the module basis (numerator)
_HILBERT = {
    1: ([(1, 0), (0, 1)], [(0, 0)]),
    2: ([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], [(0, 0)]),
    3: ([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
         (0, 3), (2, 2)], [(0, 0), (3, 3)]),
}


def invariant_dimension(n: int, d: tuple[int, ...]) -> int:
    """Dimension over Q of the bidegree-d slice of the invariant ring of
    two generic n x n matrices, read off the Hilbert series."""
    primaries, basis = _HILBERT[n]
    a, b = d
    series: dict[tuple[int, int], int] = {}
    for e in basis:
        if e[0] <= a and e[1] <= b:
            series[e] = series.get(e, 0) + 1
    for (p, q) in primaries:
        # multiply by 1 / (1 - s^p t^q), truncated at (a, b)
        product: dict[tuple[int, int], int] = {}
        for (i, j), c in series.items():
            while i <= a and j <= b:
                product[(i, j)] = product.get((i, j), 0) + c
                i, j = i + p, j + q
        series = product
    return series.get((a, b), 0)


class Checks:
    """Tally of attempted checks and a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        self.attempted += 1
        if not cond:
            self.problems.append(what)

    @property
    def failed(self) -> int:
        return len(self.problems)


def expected_entries(cfg: dict) -> int:
    """Number of report entries a verify config must produce (two letters)."""
    levels = len(cfg["n"])
    count = 0
    for thm in cfg["theorems"]:
        if thm == "2.2.2":
            count += levels * sum(t + 1 for t in range(cfg["maxdeg"] + 1))
        elif thm == "ch":
            count += levels * 4
        elif thm == "plethysm":
            count += levels * 2 * 3
        elif thm == "tau-axioms":
            count += 1 + levels
        else:
            raise ValueError(f"no entry count for theorem {thm!r}")
    return count


def check_report(checks: Checks, cfg: dict, report: dict) -> None:
    """Verdicts, Hilbert-series ranks and torsion of one verify report."""
    entries = report["entries"]
    checks.expect(len(entries) == expected_entries(cfg),
                  f"{len(entries)} entries, expected {expected_entries(cfg)}")
    checks.expect(report["pass"] is True, "report does not pass")
    for e in entries:
        where = f"{e['theorem']} n={e['n']} d={e['multidegree']}"
        checks.expect(e["pass"] is True, f"{where}: pass is false")
        if e["theorem"] != "2.2.2":
            continue
        dim = invariant_dimension(e["n"], tuple(e["multidegree"]))
        checks.expect(e["lhs_rank"] == dim and e["rhs_rank"] == dim,
                      f"{where}: ranks {e['lhs_rank']}/{e['rhs_rank']}, "
                      f"Hilbert series gives {dim}")
        if cfg["strict_z"]:
            torsion = e.get("torsion")
            checks.expect(torsion is not None and all(t == 1 for t in torsion),
                          f"{where}: torsion {torsion}")


def _monomial_multiple(p: dict, gens: list[dict]) -> bool:
    """p equals m * g for a monomial m and one of the generators g.

    Packed keys add under multiplication, so m * g shifts every key of g by
    the same non-negative amount and keeps the coefficients in key order."""
    pk = sorted(p)
    for g in gens:
        if len(g) != len(pk):
            continue
        gk = sorted(g)
        shift = pk[0] - gk[0]
        if shift >= 0 and all(a - b == shift and p[a] == g[b]
                              for a, b in zip(pk, gk)):
            return True
    return False


def check_certificate(checks: Checks, gens: list[dict], span: list[dict],
                      max_degree: int, degree_of, target: dict,
                      certificate) -> None:
    """Re-multiply a membership certificate and compare it with the target."""
    checks.expect(certificate is not None and len(certificate) == len(span),
                  "membership certificate missing or of the wrong length")
    if certificate is None or len(certificate) != len(span):
        return
    acc: dict[int, Fraction] = {}
    for c, row in zip(certificate, span):
        if c:
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + c * v
    acc = {k: v for k, v in acc.items() if v}
    checks.expect(acc == {k: Fraction(v) for k, v in target.items()},
                  "certificate does not re-multiply to its target")
    checks.expect(all(_monomial_multiple(row, gens) and
                      degree_of(row) <= max_degree for row in span),
                  "certificate row is not a bounded multiple of a generator")
