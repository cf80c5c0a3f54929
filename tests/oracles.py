"""Independent slow oracles used to cross-check the production paths.

Everything here stays deliberately naive.  Field elements are El, m
residues mod p multiplied by schoolbook convolution and reduced by the
field's irr, and points are Pt, tuples of them; both are written out
here from (p, m, irr) alone, as is their printed form, the reference for
eamod's point names.  Echelon forms, ranks, inverses, products, Jordan
types, projective points and the p_k form are textbook arithmetic on
lists of El in plain Python loops, and irreducibility over F_p is trial
division over all monic divisors, written out on integer lists.  The
compound is the Leibniz sum over S_r of products of r entries, on
coefficient arrays, one elementwise product per factor.

El is a sequence of its coefficients and Pt one of its coordinates, so
eamod reads either wherever it takes elements (FieldCtx.coerce).
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from eamod.linalg import MatF, arr_mul


def _mul(ctx, a, b):
    """Product of coefficient tuples: convolution, then x^d -> x^(d-m) (x^m - irr) from the top down."""
    p, m, irr = ctx.p, ctx.m, ctx.irr
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for d in range(2 * m - 2, m - 1, -1):
        if out[d] % p:
            for t in range(m):
                out[d - m + t] -= out[d] * irr[t]
    return tuple(v % p for v in out[:m])


class El:
    """An element of a FieldCtx: m residues mod p, ascending powers of w (el() builds one from any input)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def _other(self, other):
        if isinstance(other, El):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("mixed field contexts")
            return other
        if isinstance(other, (int, np.integer)):
            return el(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return o
        return El(self.ctx, tuple((x + y) % self.ctx.p for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return El(self.ctx, tuple(-x % self.ctx.p for x in self.coeffs))

    def __sub__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return o
        return El(self.ctx, tuple((x - y) % self.ctx.p for x, y in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._other(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = self._other(other)
        if o is NotImplemented:
            return o
        return El(self.ctx, _mul(self.ctx, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        out, base = one(self.ctx), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.ctx.q - 2)

    def __truediv__(self, other):
        o = self._other(other)
        return o if o is NotImplemented else self * o.inverse()

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._other(other)
        return o is not NotImplemented and o.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.m, self.coeffs))

    def __repr__(self):
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c:
                power = "" if i == 0 else "w" if i == 1 else f"w^{i}"
                terms.append(str(c) if not power else power if c == 1 else f"{c}{power}")
        return "+".join(terms) or "0"


def el(ctx, value):
    """An int (a constant), El or sequence of m coefficients as an El of ctx, reduced mod p."""
    if isinstance(value, El):
        if value.ctx != ctx:
            raise ValueError("element from a different field context")
        return value
    if isinstance(value, (int, np.integer)):
        value = (value,) + (0,) * (ctx.m - 1)
    coeffs = tuple(int(c) % ctx.p for c in value)
    if len(coeffs) != ctx.m:
        raise ValueError(f"expected {ctx.m} coefficients, got {len(coeffs)}")
    return El(ctx, coeffs)


def zero(ctx):
    return el(ctx, 0)


def one(ctx):
    return el(ctx, 1)


def gen(ctx):
    """The generator w, a root of irr; 1 over a prime field."""
    return el(ctx, (0, 1) + (0,) * (ctx.m - 2)) if ctx.m > 1 else one(ctx)


def code(x):
    """The integer code of an El, a_0 least significant."""
    return sum(c * x.ctx.p ** i for i, c in enumerate(x.coeffs))


def from_code(ctx, v):
    """The El of code v."""
    return El(ctx, tuple(int(v) // ctx.p ** i % ctx.p for i in range(ctx.m)))


def elements(ctx):
    """Every El of ctx, in code order."""
    return [from_code(ctx, v) for v in range(ctx.q)]


def rows_of(mat):
    """A MatF as a list of lists of El."""
    return [[El(mat.ctx, tuple(coeffs)) for coeffs in row] for row in mat.data.tolist()]


def entry(mat, i, j):
    """Entry (i, j) of a MatF as an El."""
    return El(mat.ctx, tuple(mat.data[i, j].tolist()))


@dataclass(frozen=True)
class Pt:
    """A point of affine k-space: a tuple of El."""

    coords: tuple

    @classmethod
    def of(cls, ctx, values):
        return cls(tuple(el(ctx, v) for v in values))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def is_normalized(self):
        lead = next((c for c in self.coords if c), None)
        return lead is not None and lead == 1

    def normalize(self):
        """Scaled so the first nonzero coordinate is 1 (self if it is)."""
        if self.is_normalized():
            return self
        lead = next(c for c in self.coords if c)
        return Pt(tuple(x / lead for x in self.coords))

    def codes(self):
        return tuple(code(c) for c in self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def slow_rref(rows):
    """Row-reduce a list of lists of El; returns (reduced rows, pivot columns)."""
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
    """Inverse of a square list of lists of El, or None if it is singular."""
    n = len(rows)
    ctx = rows[0][0].ctx
    aug = [list(row) + [el(ctx, int(i == j)) for j in range(n)]
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
            acc = zero(ctx)
            for t in range(inner):
                acc = acc + a_rows[i][t] * b_rows[t][j]
            row.append(acc)
        out.append(row)
    return out


def slow_combination(coeffs, mats):
    """sum_t coeffs[t] * mats[t] for lists of lists of El."""
    return [
        [sum((c * mat[i][j] for c, mat in zip(coeffs, mats)), zero(coeffs[0].ctx))
         for j in range(len(mats[0][0]))]
        for i in range(len(mats[0]))
    ]


def slow_jordan_mult(nil, p):
    """Multiplicities of block sizes 1..p of a nilpotent list-of-El matrix.

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

    gens are n x n lists of lists of El.  Each row of the kron system
    [I (x) X^T - X (x) I] is entry (a, b) of Y X - X Y, with Y flattened
    row-major; its kernel, read off slow_rref, is row-reduced again.
    Returns n^2-long lists of El, one per basis element.
    """
    n = len(gens[0])
    ctx = gens[0][0][0].ctx
    system = []
    for x in gens:
        for a in range(n):
            for b in range(n):
                row = [zero(ctx)] * (n * n)
                for c in range(n):
                    row[a * n + c] = row[a * n + c] + x[c][b]
                    row[c * n + b] = row[c * n + b] - x[a][c]
                system.append(row)
    reduced, pivots = slow_rref(system)
    kernel = []
    for free in (j for j in range(n * n) if j not in pivots):
        vec = [zero(ctx)] * (n * n)
        vec[free] = one(ctx)
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
    """Every nonzero Pt of k El whose first nonzero coordinate is 1, sorted by codes."""
    points = [Pt(coords) for coords in product(elements(field), repeat=k)
              if next((c for c in coords if c), None) == 1]
    return sorted(points, key=Pt.codes)


def pk_eval(poly, alpha):
    """p_k at a Pt (or a sequence of El): sum_i (prod_{j != i} x_j)^(p-1), and 1 for k = 1."""
    coords = tuple(alpha)
    if len(coords) != poly.k:
        raise ValueError(f"expected {poly.k} coordinates")
    field = coords[0].ctx
    if poly.k == 1:
        return one(field)
    total = zero(field)
    for i in range(poly.k):
        prod = one(field)
        for j, c in enumerate(coords):
            if j != i:
                prod = prod * c
        total = total + prod ** (poly.p - 1)
    return total
