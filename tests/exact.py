"""Reference values in exact rational arithmetic, against which the
tests measure the numeric kernels' rounding error. Standard library
only: every float is taken at its exact binary value, and nothing is
rounded until the caller converts a result."""

import math
from fractions import Fraction


def inverse(matrix):
    """The exact inverse of a nonsingular square matrix, by Gauss-Jordan
    elimination over Fractions."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def segment_variances(profile, s, m=2):
    """F^2(nu, s) as Fractions, in ``nu`` order, of the float profile
    taken exactly: the mean squared residual of each segment about its
    least-squares polynomial of order ``m`` in k = 1..s, from the normal
    equations, RSS = y.y - b' G^-1 b with G = X'X and b = X'y. Segments
    1..M_s count from the start of the profile, M_s+1..2*M_s from the
    end."""
    ratios = [float(v).as_integer_ratio() for v in profile]
    unit = max(den for _, den in ratios)  # a power of two, so each y below is exact
    y = [num * (unit // den) for num, den in ratios]  # the profile times unit
    powers = [[k**i for i in range(m + 1)] for k in range(1, s + 1)]
    gram = [[sum(p[i] * p[j] for p in powers) for j in range(m + 1)] for i in range(m + 1)]
    g_inv = inverse(gram)
    common = math.lcm(*(v.denominator for row in g_inv for v in row))
    g_int = [[int(v * common) for v in row] for row in g_inv]  # G^-1 times common
    n, ms = len(y), len(y) // s
    starts = [j * s for j in range(ms)] + [n - (j + 1) * s for j in range(ms)]
    f2 = []
    for start in starts:
        seg = y[start : start + s]
        b = [sum(p[i] * v for p, v in zip(powers, seg)) for i in range(m + 1)]
        fitted = sum(b[i] * g_int[i][j] * b[j] for i in range(m + 1) for j in range(m + 1))
        rss = sum(v * v for v in seg) * common - fitted
        f2.append(Fraction(rss, common * s * unit * unit))
    return f2
