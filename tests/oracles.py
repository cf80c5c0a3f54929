"""Independent slow oracles used to cross-check the production paths.

Everything here stays deliberately naive.  Echelon forms, ranks,
inverses, products, Jordan types, projective points and the p_k form
are textbook arithmetic on lists of Fel in plain Python loops, and
irreducibility over F_p is trial division over all monic divisors,
written out on integer lists.  The compound is the Leibniz sum over S_r
of products of r entries, on coefficient arrays, one elementwise
product per factor.
"""

from itertools import combinations, permutations, product

import numpy as np

from eamod.linalg import MatF, arr_mul
from eamod.modrep import Point


def slow_rref(rows):
    """Row-reduce a list of lists of Fel; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def slow_rank(rows):
    return len(slow_rref(rows)[1])


def slow_inverse(rows):
    """Inverse of a square list of lists of Fel, or None if it is singular."""
    n = len(rows)
    ctx = rows[0][0].ctx
    aug = [list(row) + [ctx.one() if i == j else ctx.zero() for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = slow_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def slow_matmul(a_rows, b_rows):
    ctx = a_rows[0][0].ctx
    n, inner, m = len(a_rows), len(b_rows), len(b_rows[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ctx.zero()
            for t in range(inner):
                acc = acc + a_rows[i][t] * b_rows[t][j]
            row.append(acc)
        out.append(row)
    return out


def slow_combination(coeffs, mats):
    """sum_t coeffs[t] * mats[t] for lists of lists of Fel."""
    return [
        [sum((c * mat[i][j] for c, mat in zip(coeffs, mats)), coeffs[0].ctx.zero())
         for j in range(len(mats[0][0]))]
        for i in range(len(mats[0]))
    ]


def slow_jordan_mult(nil, p):
    """Multiplicities of block sizes 1..p of a nilpotent list-of-Fel matrix.

    With b_r = rank(N^(r-1)) - rank(N^r), from oracle ranks of the powers,
    there are b_r - b_(r+1) blocks of size r.
    """
    ranks, power = [len(nil)], nil
    for _ in range(p):
        ranks.append(slow_rank(power))
        power = slow_matmul(power, nil)
    b = [ranks[r - 1] - ranks[r] for r in range(1, p + 1)] + [0]
    return tuple(b[r - 1] - b[r] for r in range(1, p + 1))


def brute_irreducible(p, coeffs):
    """Trial division over F_p by every monic polynomial of degree <= deg(f)/2.

    coeffs are ascending integers; the leading one must be nonzero mod p.
    """
    f = [c % p for c in coeffs]
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            rem = list(f)
            for top in range(n, d - 1, -1):
                c = rem[top]
                for i in range(d + 1):
                    rem[top - d + i] = (rem[top - d + i] - c * divisor[i]) % p
            if not any(rem):
                return False
    return True


def slow_commutant_rref(gens):
    """RREF rows of the commutant {Y : Y X = X Y for every X in gens}.

    gens are n x n lists of lists of Fel.  Each row of the kron system
    [I (x) X^T - X (x) I] is entry (a, b) of Y X - X Y, with Y flattened
    row-major; its kernel, read off slow_rref, is row-reduced again.
    Returns n^2-long lists of Fel, one per basis element.
    """
    n = len(gens[0])
    ctx = gens[0][0][0].ctx
    system = []
    for x in gens:
        for a in range(n):
            for b in range(n):
                row = [ctx.zero()] * (n * n)
                for c in range(n):
                    row[a * n + c] = row[a * n + c] + x[c][b]
                    row[c * n + b] = row[c * n + b] - x[a][c]
                system.append(row)
    reduced, pivots = slow_rref(system)
    kernel = []
    for free in (j for j in range(n * n) if j not in pivots):
        vec = [ctx.zero()] * (n * n)
        vec[free] = ctx.one()
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        kernel.append(vec)
    return slow_rref(kernel)[0]


def leibniz_compound(a_mat, r):
    """r-th compound of a square MatF: each r x r minor on lexicographic subsets, by Leibniz."""
    n, ctx = a_mat.rows, a_mat.ctx
    if r == 0:
        return MatF.identity(ctx, 1)
    if r > n:
        return MatF.zeros(ctx, 0, 0)
    subs = np.array(list(combinations(range(n), r)), dtype=np.intp)
    count = subs.shape[0]
    # gathered[i, j, s, t] = A[subs[s, i], subs[t, j]], contiguous in (s, t)
    gathered = a_mat.data[subs.T[:, None, :, None], subs.T[None, :, None, :]]
    out = np.zeros((count, count, ctx.m), dtype=np.int64)
    for perm in permutations(range(r)):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))  # inversion parity
        term = gathered[0, perm[0]]
        for i in range(1, r):
            term = arr_mul(ctx, term, gathered[i, perm[i]])
        out = (out + sign * term) % ctx.p
    return MatF(ctx, out)


def slow_projective_points(field, k):
    """Every nonzero Point of k Fels whose first nonzero coordinate is 1, sorted by codes."""
    points = [Point(coords) for coords in product(list(field.elements()), repeat=k)
              if next((c for c in coords if c), None) == field.one()]
    return sorted(points, key=Point.codes)


def pk_eval(poly, alpha):
    """p_k at a Point (or a sequence of Fel): sum_i (prod_{j != i} x_j)^(p-1), and 1 for k = 1."""
    coords = alpha.coords if isinstance(alpha, Point) else tuple(alpha)
    if len(coords) != poly.k:
        raise ValueError(f"expected {poly.k} coordinates")
    field = coords[0].ctx
    if poly.k == 1:
        return field.one()
    total = field.zero()
    for i in range(poly.k):
        prod = field.one()
        for j, c in enumerate(coords):
            if j != i:
                prod = prod * c
        total = total + prod ** (poly.p - 1)
    return total
