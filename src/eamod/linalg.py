"""Dense exact matrix algebra over a FieldCtx.

Matrices are stored as int64 arrays of shape (rows, cols, m): one
coefficient plane per power of the field generator w.  Every operation
runs over F_p: expand() writes each entry sum_t x_t w^t as the m x m
block sum_t x_t C^t (C the companion matrix of irr), a ring embedding,
so products, ranks and echelon forms over F_{p^m} are read off F_p ones
and one elimination loop serves every field.

Products are float64 BLAS products of residues in 0..p-1, reduced mod p
afterwards.  An inner dimension of n entries is nm residues, each term
is at most (p-1)^2, and every integer up to 2^53 is a float64, so a
product is exact while n m (p-1)^2 <= 2^53 (FieldCtx.max_inner) and is
refused beyond.  Elimination runs on integers in the narrowest signed
dtype holding -p(p-1), below which no row update goes before it is
reduced.

Jordan types of nilpotent matrices are extracted from rank sequences
only; no similarity transform is computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .gf import BadParams, Fel, FieldCtx


class NotNilpotent(ValueError):
    """Raised when a matrix expected to satisfy N^p = 0 does not."""


class UnequalTotals(ValueError):
    """Raised when comparing Jordan types of different total dimension."""


# -- the regular representation over F_p --


def expand(ctx: FieldCtx, a: np.ndarray, dtype) -> np.ndarray:
    """The (r m, c m) F_p matrix of an (r, c, m) array; entries stay in 0..p-1.

    Entry (i, j) becomes the block sum_t a[i, j, t] C^t.  Block column b
    is built alone, so the int64 sums of m terms of at most (p-1)^2 take
    1/m of the result's cells at a time.
    """
    r, c, m = a.shape
    regular = ctx.regular()
    out = np.empty((r, m, c, m), dtype)
    for b in range(m):
        col = a @ regular[:, :, b]
        col %= ctx.p
        out[:, :, :, b] = col.transpose(0, 2, 1)
        del col
    return out.reshape(r * m, c * m)


def arr_mul(ctx: FieldCtx, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise field product of two broadcastable (..., m) coefficient arrays.

    Entries of x become multiplication matrices sum_t x_t C^t applied to
    the entries of y; both steps sum m terms of at most (p-1)^2.
    """
    m, p = ctx.m, ctx.p
    lx = (x @ ctx.regular().reshape(m, m * m)) % p
    return np.einsum("...ab,...b->...a", lx.reshape(x.shape[:-1] + (m, m)), y) % p


def arr_pow(ctx: FieldCtx, x: np.ndarray, e: int) -> np.ndarray:
    out = np.zeros_like(x)
    out[..., 0] = 1
    base = x % ctx.p
    while e:
        if e & 1:
            out = arr_mul(ctx, out, base)
        base = arr_mul(ctx, base, base)
        e >>= 1
    return out


class MatF:
    """Immutable dense matrix over one FieldCtx."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data: np.ndarray):
        if data.ndim != 3 or data.shape[2] != ctx.m:
            raise ValueError("matrix data must have shape (rows, cols, m)")
        self.ctx = ctx
        self.data = data.astype(np.int64, copy=False) % ctx.p
        self.data.flags.writeable = False

    # -- constructors --

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "MatF":
        return cls(ctx, np.zeros((rows, cols, ctx.m), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatF":
        d = np.zeros((n, n, ctx.m), dtype=np.int64)
        d[np.arange(n), np.arange(n), 0] = 1
        return cls(ctx, d)

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "MatF":
        """Build from nested lists of ints or Fels."""
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        d = np.zeros((nr, nc, ctx.m), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                d[i, j, :] = ctx.el(v).coeffs
        return cls(ctx, d)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def get(self, i: int, j: int) -> Fel:
        return Fel(self.ctx, tuple(int(c) for c in self.data[i, j]))

    def __eq__(self, other):
        return (
            isinstance(other, MatF)
            and self.ctx == other.ctx
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.ctx, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"MatF({self.rows}x{self.cols} over {self.ctx})"

    def is_zero(self) -> bool:
        return not self.data.any()

    # -- arithmetic --

    def __add__(self, other: "MatF") -> "MatF":
        self._check(other)
        return MatF(self.ctx, (self.data + other.data) % self.ctx.p)

    def __sub__(self, other: "MatF") -> "MatF":
        self._check(other)
        return MatF(self.ctx, (self.data - other.data) % self.ctx.p)

    def __neg__(self) -> "MatF":
        return MatF(self.ctx, (-self.data) % self.ctx.p)

    def scale(self, s) -> "MatF":
        s = self.ctx.el(s)
        coeff = np.array(s.coeffs, dtype=np.int64)
        return MatF(self.ctx, arr_mul(self.ctx, coeff[None, None, :], self.data))

    def __matmul__(self, other: "MatF") -> "MatF":
        """expand(A) times B with its coefficient vectors stacked as columns."""
        self._check_mul(other)
        m, p = self.ctx.m, self.ctx.p
        stacked = other.data.transpose(0, 2, 1).reshape(other.rows * m, other.cols)
        prod = expand(self.ctx, self.data, np.float64) @ stacked.astype(np.float64)
        prod = (prod % p).astype(np.int64).reshape(self.rows, m, other.cols)
        return MatF(self.ctx, prod.transpose(0, 2, 1))

    def mat_pow(self, e: int) -> "MatF":
        if self.rows != self.cols:
            raise ValueError("matrix power requires a square matrix")
        out = MatF.identity(self.ctx, self.rows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def transpose(self) -> "MatF":
        return MatF(self.ctx, np.ascontiguousarray(self.data.transpose(1, 0, 2)))

    def kron(self, other: "MatF") -> "MatF":
        """Kronecker (tensor) product over the field."""
        self._check(other, shape=False)
        prod = arr_mul(self.ctx, self.data[:, None, :, None], other.data[None, :, None, :])
        return MatF(self.ctx, prod.reshape(self.rows * other.rows, self.cols * other.cols, self.ctx.m))

    @staticmethod
    def block_diag(blocks) -> "MatF":
        blocks = list(blocks)
        ctx = blocks[0].ctx
        r = sum(b.rows for b in blocks)
        c = sum(b.cols for b in blocks)
        d = np.zeros((r, c, ctx.m), dtype=np.int64)
        i = j = 0
        for b in blocks:
            d[i : i + b.rows, j : j + b.cols] = b.data
            i += b.rows
            j += b.cols
        return MatF(ctx, d)

    # -- elimination --

    def rank(self) -> int:
        work = expand(self.ctx, self.data, _elim_dtype(self.ctx.p))
        return len(_eliminate(work, self.ctx.p, full=False)[1]) // self.ctx.m

    def rref(self):
        """Reduced row echelon form; returns (MatF, pivot column list)."""
        reduced, pivots = _rref(self.ctx, self.data)
        return MatF(self.ctx, reduced), pivots

    def kernel_basis(self):
        """Basis of the right null space, vectors scaled to leading 1.

        Returns a list of tuples of Fel, one per free column, in
        ascending free-column order.
        """
        arr = self.kernel_array()
        return [tuple(Fel(self.ctx, tuple(int(c) for c in coeffs)) for coeffs in vec) for vec in arr]

    def kernel_array(self) -> np.ndarray:
        """Null-space basis as an (nullity, cols, m) array."""
        return null_space(self.ctx, *_rref(self.ctx, self.data))

    def inv(self) -> "MatF":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        aug = np.concatenate([self.data, MatF.identity(self.ctx, n).data], axis=1)
        reduced, pivots = _rref(self.ctx, aug)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return MatF(self.ctx, reduced[:, n:])

    def _check(self, other, shape=True):
        if self.ctx != other.ctx:
            raise ValueError("mixed field contexts")
        if shape and self.data.shape != other.data.shape:
            raise ValueError("shape mismatch")

    def _check_mul(self, other):
        if self.ctx != other.ctx:
            raise ValueError("mixed field contexts")
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        if self.cols > self.ctx.max_inner:
            raise BadParams(f"matmul over p={self.ctx.p}, m={self.ctx.m} with inner dimension "
                            f"n={self.cols} can overflow float64 exactness "
                            f"(at most {self.ctx.max_inner})")


def null_space(ctx: FieldCtx, reduced: np.ndarray, pivots) -> np.ndarray:
    """Null-space basis read from an RREF and its pivot columns.

    Returns an (nullity, cols, m) array, one vector per free column in
    ascending order, each scaled so its first nonzero coordinate is 1.
    """
    cols = reduced.shape[1]
    pivot_set = set(pivots)
    free = np.array([j for j in range(cols) if j not in pivot_set], dtype=np.intp)
    out = np.zeros((free.size, cols, ctx.m), dtype=np.int64)
    if not free.size:
        return out
    out[np.arange(free.size), free, 0] = 1
    out[:, pivots] = (-reduced[: len(pivots), free]).transpose(1, 0, 2) % ctx.p
    # x^(q-2) inverts the first nonzero coordinate x of each vector
    lead = out[np.arange(free.size), out.any(axis=2).argmax(axis=1)]
    return arr_mul(ctx, arr_pow(ctx, lead, ctx.q - 2)[:, None], out)


def _rref(ctx: FieldCtx, data: np.ndarray):
    """RREF over F_{p^m} of an (r, c, m) array and its pivot columns.

    The expansion of the F_{p^m} RREF is the F_p RREF of the expansion:
    its pivots become identity blocks, and RREFs are unique.  Column 0
    of each block holds the coefficient vector of the entry.
    """
    rows, cols, m = data.shape
    work, pivots = _eliminate(expand(ctx, data, _elim_dtype(ctx.p)), ctx.p, full=True)
    reduced = work[:, ::m].reshape(rows, m, cols).transpose(0, 2, 1)
    return reduced, [j // m for j in pivots[::m]]


def _elim_dtype(p: int):
    """The narrowest signed dtype holding -p(p-1), the floor of a row update."""
    return np.min_scalar_type(-p * (p - 1))


def _eliminate(work: np.ndarray, p: int, full: bool):
    """Gaussian elimination, in place, of an F_p matrix with entries in 0..p-1.

    Returns the reduced matrix and its pivot columns.  full=False clears
    below pivots only (rank); full=True clears above as well (RREF).
    Pivots are normalized with the inverse a^(p-2).  Products of
    residues reach (p-1)^2 and a row update goes no lower than -(p-1)^2
    before it is reduced, so the work array must hold -p(p-1)
    (_elim_dtype).
    """
    rows, cols = work.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = work[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        work[r, c:] = work[r, c:] * pow(int(work[r, c]), p - 2, p) % p
        if full:
            targets = work[:, c].nonzero()[0]
            targets = targets[targets != r]
        else:
            targets = r + 1 + work[r + 1 :, c].nonzero()[0]
        if targets.size:
            update = np.multiply.outer(work[targets, c], work[r, c:])
            work[targets, c:] = (work[targets, c:] - update) % p
        pivots.append(c)
        r += 1
    return work, pivots


# -- Jordan types --


class Dominance(enum.Enum):
    GREATER = "Greater"
    LESS = "Less"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes: mult[r-1] blocks of size r, r <= p."""

    p: int
    mult: tuple

    def __post_init__(self):
        if len(self.mult) != self.p:
            raise ValueError("mult must list multiplicities for sizes 1..p")
        if any(a < 0 for a in self.mult):
            raise ValueError("negative multiplicity")

    @classmethod
    def from_blocks(cls, p: int, blocks) -> "JordanType":
        mult = [0] * p
        for b in blocks:
            if not 1 <= b <= p:
                raise ValueError(f"block size {b} outside 1..{p}")
            mult[b - 1] += 1
        return cls(p, tuple(mult))

    @property
    def total(self) -> int:
        return sum((r + 1) * a for r, a in enumerate(self.mult))

    def blocks(self) -> list:
        """Block sizes in descending order."""
        out = []
        for r in range(self.p, 0, -1):
            out.extend([r] * self.mult[r - 1])
        return out

    def is_free(self) -> bool:
        return self.total == self.p * self.mult[self.p - 1]

    def rank(self, e: int) -> int:
        """Rank of N^e for a nilpotent N of this type: a block of size r adds max(r - e, 0)."""
        return sum(a * max(r + 1 - e, 0) for r, a in enumerate(self.mult))

    def __str__(self):
        parts = []
        for r in range(self.p, 0, -1):
            a = self.mult[r - 1]
            if a == 1:
                parts.append(f"[{r}]")
            elif a > 1:
                parts.append(f"[{r}]^{a}")
        return "".join(parts) if parts else "[]"


def jordan_type_nilpotent(n_mat: MatF, p: int) -> JordanType:
    """Jordan type of a nilpotent matrix from its rank sequence.

    With b_r = rank(N^{r-1}) - rank(N^r), the multiplicity of size-r
    blocks is b_r - b_{r+1}.  N is expanded to F_p once; its powers and
    their ranks are taken on the expansion, whose ranks are m times
    those over F_{p^m}.
    """
    if n_mat.rows != n_mat.cols:
        raise ValueError("matrix must be square")
    n_mat._check_mul(n_mat)
    ctx, dim = n_mat.ctx, n_mat.rows
    expanded = expand(ctx, n_mat.data, np.float64)
    ranks = [dim]
    power = expanded
    while ranks[-1] and len(ranks) < p:
        work = power.astype(_elim_dtype(ctx.p))
        ranks.append(len(_eliminate(work, ctx.p, full=False)[1]) // ctx.m)
        if ranks[-1]:
            power = power @ expanded % ctx.p
    # power is N^p when N^(p-1) is nonzero
    if ranks[-1] and power.any():
        raise NotNilpotent(f"matrix is not nilpotent of order <= {p}")
    ranks += [0] * (p + 1 - len(ranks))
    b = [ranks[r - 1] - ranks[r] for r in range(1, p + 1)] + [0]
    mult = tuple(b[r - 1] - b[r] for r in range(1, p + 1))
    jt = JordanType(p, mult)
    assert jt.total == dim
    return jt


def canonical_nilpotent(ctx: FieldCtx, jt: JordanType) -> MatF:
    """Block-diagonal nilpotent with subdiagonal 1s realizing the type."""
    blocks = []
    for size in jt.blocks():
        d = np.zeros((size, size, ctx.m), dtype=np.int64)
        for i in range(size - 1):
            d[i + 1, i, 0] = 1
        blocks.append(MatF(ctx, d))
    if not blocks:
        return MatF.zeros(ctx, 0, 0)
    return MatF.block_diag(blocks)


def dominance_compare(t1: JordanType, t2: JordanType) -> Dominance:
    """Dominance order on the partitions associated to two Jordan types."""
    if t1.total != t2.total:
        raise UnequalTotals(f"totals differ: {t1.total} vs {t2.total}")
    b1, b2 = t1.blocks(), t2.blocks()
    n = max(len(b1), len(b2))
    b1 += [0] * (n - len(b1))
    b2 += [0] * (n - len(b2))
    s1 = s2 = 0
    ge = le = True
    for x, y in zip(b1, b2):
        s1 += x
        s2 += y
        if s1 < s2:
            ge = False
        if s1 > s2:
            le = False
    if ge and le:
        return Dominance.EQUAL
    if ge:
        return Dominance.GREATER
    if le:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def compound_matrix(a_mat: MatF, r: int) -> MatF:
    """r-th compound: minors on lexicographic r-subsets of rows/columns.

    Uses a vectorized Leibniz sum over S_r, so it is intended for the
    small r (r < p) arising from exterior powers.
    """
    if a_mat.rows != a_mat.cols:
        raise ValueError("compound of a non-square matrix")
    n = a_mat.rows
    ctx = a_mat.ctx
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

