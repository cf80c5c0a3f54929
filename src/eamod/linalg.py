"""Dense exact matrix algebra over a FieldCtx.

Matrices are stored as int64 arrays of shape (rows, cols, m): one
coefficient plane per power of the field generator w.  Products run
over F_p: expand() writes each entry sum_t x_t w^t as the m x m block
sum_t x_t C^t (C the companion matrix of irr), a ring embedding, so a
product over F_{p^m} is an F_p product of expansions.

Products are float BLAS products of residues in 0..p-1, cast to
integers and reduced mod p afterwards.  An inner dimension of n entries
is nm residues, each term is at most (p-1)^2, and every integer up to
2^53 is a float64, so a product is exact while n m (p-1)^2 <= 2^53
(FieldCtx.max_inner) and is refused beyond; below 2^24 it is exact in
float32 and runs there (product_dtype).

Elimination runs over F_{p^m} itself, on a (B, r, m, c) stack of
coefficient planes: the storage layout with its last two axes swapped.
B matrices step through the c columns together, one step per column,
each with its own pivot rows, and a single matrix is a stack of one.
A pivot row with lead a is multiplied by the blocks of w^s / a, s < m
(C^s times the block sum_t x_t C^t of x = 1/a, C^t from
FieldCtx.regular()), and a row with entry b there takes away
sum_s b_s (w^s / a) times the pivot row: m broadcast products on
coefficient planes.  Reduction mod p is lazy: a step reduces only its
pivot column and its pivot rows, and every other row keeps the
unreduced differences.  An update subtracts at most m(p-1)^2 and a row
takes at most c of them, so entries stay within (p-1) + c m (p-1)^2 in
absolute value; the work dtype is the narrowest signed integer holding
c m (p-1)^2 + p, and a stack that no int64 holds is refused.

Jordan types of nilpotent matrices are extracted from rank sequences
only; no similarity transform is computed.  A stack of matrices takes
its powers as one batched product each and the ranks of all of them in
one elimination.

combine() makes every linear combination sum_t c_t M_t one product;
compound_matrix() builds each level of minors from the last (Laplace).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import BadParams, Fel, FieldCtx, arr_mul


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

    def __matmul__(self, other: "MatF") -> "MatF":
        """expand(A) times B with its coefficient vectors stacked as columns."""
        self._check_mul(other)
        m, p = self.ctx.m, self.ctx.p
        stacked = other.data.transpose(0, 2, 1).reshape(other.rows * m, other.cols)
        dtype = product_dtype(self.ctx, self.cols)
        prod = (expand(self.ctx, self.data, dtype) @ stacked.astype(dtype)).astype(np.int64)
        prod %= p
        return MatF(self.ctx, prod.reshape(self.rows, m, other.cols).transpose(0, 2, 1))

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
        return int(_ranks(self.ctx, _planes(self.ctx, self.data))[0])

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
        _check_inner(self.ctx, self.cols)


def combine(ctx: FieldCtx, coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_t coeffs[b, t] mats[t] for each b: (B, K, m) coefficients, (K, r, c, m) matrices.

    Entries in 0..p-1, in and out.  Coefficient x acts through its
    multiplication block sum_s x_s C^s, so the B sums are one F_p
    product of the (B m, K m) blocks with the (K m, r c) coefficient
    planes, exact while K <= max_inner (product_dtype(ctx, K)).
    """
    (count, terms, m), (_, r, c, _) = coeffs.shape, mats.shape
    _check_inner(ctx, terms)
    dtype = product_dtype(ctx, terms)
    # blocks[b, s, t, u] = entry (s, u) of the multiplication block of coeffs[b, t]
    blocks = (coeffs @ ctx.regular().reshape(m, m * m) % ctx.p).reshape(count, terms, m, m)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(count * m, terms * m).astype(dtype)
    planes = mats.transpose(0, 3, 1, 2).reshape(terms * m, r * c).astype(dtype)
    out = (blocks @ planes).astype(np.int64) % ctx.p
    return out.reshape(count, m, r, c).transpose(0, 2, 3, 1)


def product_dtype(ctx: FieldCtx, n: int):
    """float32 for F_p products with inner dimension n m that stay exact in it, else float64.

    Every term is at most (p-1)^2 and every partial sum of nonnegative
    terms is at most the total, so a product is exact in float32 while
    n m (p-1)^2 <= 2^24, whatever order BLAS sums in.
    """
    return np.dtype(np.float32 if n * ctx.m * (ctx.p - 1) ** 2 <= 2 ** 24 else np.float64)


def float_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float array of integers in 0..2^24 (float32) or 0..2^53 (float64).

    Those are the products that product_dtype keeps exact.  x / p is
    rounded by less than x / p times the unit roundoff (2^-24, 2^-53),
    so by less than 1/p, and its floor is the exact quotient; a subtract
    of p times it is exact.  np.fmod is exact too but about thirty
    times slower.
    """
    quotient = x / p
    np.floor(quotient, out=quotient)
    quotient *= p
    x -= quotient
    return x


def _check_inner(ctx: FieldCtx, n: int) -> None:
    """Refuse products with inner dimension n past float64 exactness."""
    if n > ctx.max_inner:
        raise BadParams(f"matmul over p={ctx.p}, m={ctx.m} with inner dimension "
                        f"n={n} can overflow float64 exactness "
                        f"(at most {ctx.max_inner})")


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
    lead = out[np.arange(free.size), out.any(axis=2).argmax(axis=1)]
    inverse = _pivot_blocks(ctx, lead, np.int64)[:, 0]
    return np.einsum("nab,ncb->nca", inverse, out) % ctx.p


def _rref(ctx: FieldCtx, data: np.ndarray):
    """RREF over F_{p^m} of an (r, c, m) array and its pivot columns.

    The RREF is returned in the same (r, c, m) layout, as a view of the
    elimination's coefficient planes, in its dtype.
    """
    work = _planes(ctx, data)
    pivots = _eliminate(ctx, work, full=True)[0]
    return work[0].transpose(0, 2, 1), pivots[pivots >= 0].tolist()


def _planes(ctx: FieldCtx, data: np.ndarray) -> np.ndarray:
    """A C-contiguous (1, r, m, c) elimination stack, in elim_dtype, copied from an (r, c, m) array."""
    dtype = elim_dtype(ctx.p, data.shape[1] * ctx.m)
    return data.transpose(0, 2, 1).astype(dtype, order="C")[None]


def elim_dtype(p: int, cols: int):
    """The narrowest signed dtype holding cols (p-1)^2 + p, the reach of a lazy elimination.

    An elimination over F_{p^m} with c columns passes cols = c m.
    Raises BadParams when not even int64 holds it.
    """
    reach = cols * (p - 1) ** 2 + p
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if reach <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise BadParams(f"elimination over F_{p} with {cols} columns can overflow int64 "
                    f"(cols (p-1)^2 + p = {reach})")


# field -> {coefficient tuple of a: _scaled_blocks of 1/a}, for the pivots met so far
_PIVOTS: dict = {}
_PIVOTS_CAP = 2 ** 16


def _scaled_blocks(ctx: FieldCtx, x) -> np.ndarray:
    """(m, m, m) int64 array in 0..p-1: entry s is the multiplication block of w^s x.

    The block of x is sum_t x_t C^t, and that of w^s x is C^s times it.
    """
    regular = ctx.regular()
    block = np.tensordot(np.array(x, dtype=np.int64), regular, 1) % ctx.p
    return regular @ block % ctx.p


def _pivot_blocks(ctx: FieldCtx, lead: np.ndarray, dtype) -> np.ndarray:
    """(N, m, m, m) array: entry (n, s) is the multiplication block of w^s / lead[n].

    lead holds N nonzero coefficient vectors in 0..p-1.  Over F_p the
    inverse is a^(p-2) mod p.  Otherwise the blocks of each lead come
    from a memo of the field, keyed by coefficient tuple and filled
    through FieldCtx.cinv, so it holds only the leads met (and starts
    over past _PIVOTS_CAP); no table of all q elements is built.
    """
    p, m = ctx.p, ctx.m
    if m == 1:
        inverse = [pow(a, p - 2, p) for a in lead[:, 0].tolist()]
        return np.array(inverse, dtype=dtype).reshape(-1, 1, 1, 1)
    memo = _PIVOTS.setdefault(ctx, {})
    if len(memo) > _PIVOTS_CAP:
        memo.clear()
    out = []
    for key in map(tuple, lead.tolist()):
        blocks = memo.get(key)
        if blocks is None:
            blocks = memo[key] = _scaled_blocks(ctx, ctx.cinv(key))
        out.append(blocks)
    return np.array(out, dtype=dtype)


def _eliminate(ctx: FieldCtx, work: np.ndarray, full: bool) -> np.ndarray:
    """Gaussian elimination over F_{p^m}, in place, of a (B, r, m, c) stack of coefficient planes.

    work[b, i, :, j] is the coefficient vector of entry (i, j) of member
    b.  Entries start in 0..p-1, in the dtype elim_dtype(p, c m), and
    the stack is C-contiguous.  The B matrices step through the c
    columns together, one step per column.  At column j each takes as
    its pivot row the first row not yet used with a nonzero entry a
    there; rows are never swapped.  The pivot row is reduced mod p, and
    one small product with the blocks of w^s / a (_pivot_blocks) gives
    its multiples w^s / a times it for s < m, reduced mod p; the first
    is the pivot row scaled to a leading 1.  Every row with an entry
    b != 0 there takes away b / a times the pivot row, which is
    sum_s b_s (w^s / a) times it: m broadcast products.  The rows are
    the unused ones, the pivot row among them, with full=False (for a
    rank); every row with full=True (for an RREF), which then puts the
    scaled pivot row back.  Only those rows are touched, all members'
    in one update, and only column j and the pivot rows are reduced:
    each update subtracts at most m(p-1)^2 and a row takes at most one
    per column, so elim_dtype(p, c m) holds every entry.  Row
    operations keep a column that is zero in every row zero, so such
    columns are skipped.

    Returns the (B, r) pivot column of each row, -1 where a row has
    none.  full=True then reduces the stack mod p and orders each
    matrix's rows by pivot column, zero rows last, so work holds the
    RREFs and each row of the result is ascending with its -1s last.
    """
    count, rows, m, cols = work.shape
    p = ctx.p
    if not work.flags.c_contiguous:
        raise ValueError("the elimination works in place on a C-contiguous stack")
    pivcol = np.full((count, rows), -1, dtype=np.intp)
    members = np.arange(count)
    left = count * rows
    for j in work.any(axis=(0, 1, 2)).nonzero()[0].tolist():
        col = work[..., j] % p
        hit = col.any(axis=2)
        cand = hit & (pivcol < 0)
        prow = cand.argmax(axis=1)
        found = cand[members, prow]
        who = found.nonzero()[0]
        if not who.size:
            continue
        if who.size < count:
            prow = prow[who]
        pivcol[who, prow] = j
        piv = work[who, prow, :, j:]
        piv %= p
        # multiples[w, s] = (w^s / a) piv for pivot row piv with lead a
        multiples = np.matmul(_pivot_blocks(ctx, piv[:, :, 0], work.dtype), piv[:, None])
        multiples %= p
        scaled = multiples[:, 0]
        if not full:
            hit = cand
        elif who.size < count:
            hit &= found[:, None]
        # only members with a pivot have rows to clear; one member's
        # multiples broadcast over its rows, several are picked per row
        member, row = hit.nonzero()
        if who.size > 1:
            multiples = multiples[member if who.size == count else np.searchsorted(who, member)]
        b = col[member, row]
        update = b[:, 0, None, None] * multiples[:, 0]
        for s in range(1, m):
            update += b[:, s, None, None] * multiples[:, s]
        work[member, row, :, j:] -= update
        if full:
            work[who, prow, :, j:] = scaled
        left -= who.size
        if not left:
            break
    if full:
        order = np.argsort(np.where(pivcol < 0, cols, pivcol), axis=1, kind="stable")
        ordered = members[:, None], order
        np.remainder(work[ordered], p, out=work)
        pivcol = pivcol[ordered]
    return pivcol


def _ranks(ctx: FieldCtx, work: np.ndarray) -> np.ndarray:
    """Ranks over F_{p^m} of a (B, r, m, c) plane stack in its elimination dtype (destroyed)."""
    return (_eliminate(ctx, work, full=False) >= 0).sum(axis=1)


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
        """Every block has size p."""
        return not any(self.mult[:-1])

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
    """Jordan type of a nilpotent matrix: jordan_types on a stack of one."""
    if n_mat.rows != n_mat.cols:
        raise ValueError("matrix must be square")
    ctx = n_mat.ctx
    expanded = expand(ctx, n_mat.data, product_dtype(ctx, n_mat.cols))
    return jordan_types(ctx, expanded[None], p)[0]


def jordan_types(ctx: FieldCtx, stack: np.ndarray, p: int) -> list:
    """Jordan types of a (B, nm, nm) stack of F_p expansions of nilpotent n x n matrices.

    With b_r = rank(N^{r-1}) - rank(N^r), the multiplicity of size-r
    blocks is b_r - b_{r+1}.  Block column 0 of an expansion holds the
    coefficient vectors of the entries, and block column 0 of N^e is
    expand(N) times that of N^(e-1): each power is one batched product
    of the stack with the (B, nm, n) columns of the last, reduced in
    place by float_mod (product_dtype, exact while n <= ctx.max_inner).
    A stack already in product_dtype(ctx, n), as jordan_types_at makes
    it, is multiplied as it is; any other is cast once.  The ranks of N,
    ..., N^(p-1) for every matrix are one elimination of their B(p-1)
    coefficient planes, (B(p-1), n, m, n).  Raises NotNilpotent when
    some N^p is nonzero.
    """
    count, size = stack.shape[:2]
    m = ctx.m
    n = size // m
    _check_inner(ctx, n)
    dtype = elim_dtype(ctx.p, size)
    base = stack.astype(product_dtype(ctx, n), copy=False)
    # powers[:, e - 1] holds the planes of N^e for e = 1..p-1, left zero once every N^e is
    powers = np.zeros((count, p - 1, n, m, n), dtype=dtype)
    powers[:, 0] = stack[..., ::m].reshape(count, n, m, n)
    power = base[..., ::m]
    for e in range(2, p + 1):
        power = float_mod(np.matmul(base, power), ctx.p)
        if e == p:
            if power.any():
                raise NotNilpotent(f"matrix is not nilpotent of order <= {p}")
            break
        if not power.any():
            break
        powers[:, e - 1] = power.reshape(count, n, m, n)
    ranks = np.zeros((count, p + 1), dtype=np.int64)
    ranks[:, 0] = n
    every_power = powers.reshape(count * (p - 1), n, m, n)
    ranks[:, 1:p] = _ranks(ctx, every_power).reshape(count, p - 1)
    # b[:, r-1] = b_r for r = 1..p+1, the last rank(N^p) - 0 = 0
    b = -np.diff(ranks, axis=1, append=0)
    types = [JordanType(p, tuple(row)) for row in (b[:, :p] - b[:, 1:]).tolist()]
    assert all(jt.total == n for jt in types)
    return types


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

    Level l is built from level l-1 by Laplace expansion along the
    first column: with T_j the j-th row of T and S_0 the first column
    of S, the minor on (T, S) is sum_j (-1)^j A[T_j, S_0] times the
    minor on (T minus T_j, S minus S_0), l elementwise products.
    """
    if a_mat.rows != a_mat.cols:
        raise ValueError("compound of a non-square matrix")
    n = a_mat.rows
    ctx = a_mat.ctx
    if r == 0:
        return MatF.identity(ctx, 1)
    if r > n:
        return MatF.zeros(ctx, 0, 0)
    a = level = a_mat.data
    index = {(i,): i for i in range(n)}
    for size in range(2, r + 1):
        subs = list(combinations(range(n), size))
        sub = np.array(subs)
        # drop[s, j]: the index one level down of subs[s] without its j-th element
        drop = np.array([[index[s[:j] + s[j + 1:]] for j in range(size)] for s in subs])
        out = np.zeros((len(subs), len(subs), ctx.m), dtype=np.int64)
        for j in range(size):
            term = arr_mul(ctx, a[sub[:, j, None], sub[:, 0]], level[drop[:, j, None], drop[:, 0]])
            out += term if j % 2 == 0 else ctx.p - term
        level, index = out % ctx.p, {s: i for i, s in enumerate(subs)}
    return MatF(ctx, level)
