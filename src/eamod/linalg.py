"""Dense exact matrix algebra over a FieldCtx.

Matrices are stored as int64 arrays of shape (rows, cols, m): one
coefficient plane per power of the field generator w.  Products run
over F_p: expand() writes each entry sum_t x_t w^t of a stack as the
m x m block sum_t x_t C^t (C the companion matrix of irr), a ring
embedding, in one product: a product over F_{p^m}, or a linear
combination of matrices (combine), is an F_p product of expansions.

Products are float BLAS products of residues in 0..p-1, reduced mod p
in place by float_mod (mul_planes).  An inner dimension of n entries
is nm residues, each term is at most (p-1)^2, and every integer up to
2^53 is a float64, so a product is exact while n m (p-1)^2 <= 2^53
(FieldCtx.max_inner) and is refused beyond; below 2^24 it is exact in
float32 and runs there (product_dtype).  float_mod reduces block by
block along the first axis, so a product, an expansion or a power
holds no second array of its size: its quotient is at most
MOD_BLOCK_BYTES.

Elimination runs over F_{p^m} itself, on a (B, r, m, c) stack of
coefficient planes (the storage layout with its last two axes
swapped), B matrices stepping through the columns together, with lazy
reduction mod p in the narrowest signed dtype that holds its reach
(_eliminate, elim_dtype).  The leads of a step are inverted by one take
from a table of all q elements that the field builds once per dtype
(_pivot_blocks, FieldCtx.inverse_table): no Python field arithmetic runs
in an elimination.

Jordan types are read off the ranks of powers (_jordan_types), on
stacks whose N^p = 0 the caller has proved; no similarity transform is
computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import BadParams, Fel, FieldCtx, arr_mul, inverse_blocks


class UnequalTotals(ValueError):
    """Raised when comparing Jordan types of different total dimension."""


class BrokenInvariant(RuntimeError):
    """Raised when a result fails a check that exact arithmetic guarantees: a bug, never bad input."""


# -- the regular representation over F_p --


def expand(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """The (..., r m, c m) F_p matrices of an (..., r, c, m) stack, in product_dtype(ctx, c), in 0..p-1.

    Entry (i, j) becomes the block sum_t a[i, j, t] C^t: row u of the
    blocks of row i is row i of a times [row u of C^t]_t, so one
    broadcast product writes the expansion in its layout, each entry m
    terms of at most (p-1)^2, and float_mod reduces it in place.
    """
    *lead, r, c, m = a.shape
    dtype = product_dtype(ctx, c)
    out = a.astype(dtype, copy=False)[..., None, :, :] @ ctx.regular().transpose(1, 0, 2).astype(dtype)
    return float_mod(out, ctx.p).reshape(*lead, r * m, c * m)


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

    @classmethod
    def _reduced(cls, ctx: FieldCtx, data: np.ndarray) -> "MatF":
        """Wrap a fresh int64 (rows, cols, m) array already in 0..p-1, without another pass."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.data = data
        data.flags.writeable = False
        return out

    def __add__(self, other: "MatF") -> "MatF":
        self._check(other)
        out = self.data + other.data
        out %= self.ctx.p
        return MatF._reduced(self.ctx, out)

    def __sub__(self, other: "MatF") -> "MatF":
        self._check(other)
        out = self.data - other.data
        out %= self.ctx.p
        return MatF._reduced(self.ctx, out)

    def __neg__(self) -> "MatF":
        out = -self.data
        out %= self.ctx.p
        return MatF._reduced(self.ctx, out)

    def __matmul__(self, other: "MatF") -> "MatF":
        """expand(A) times B with its coefficient vectors stacked as columns."""
        self._check_mul(other)
        m = self.ctx.m
        stacked = other.data.transpose(0, 2, 1).reshape(other.rows * m, other.cols)
        prod = mul_planes(self.ctx, self.data, stacked).astype(np.int64)
        return MatF._reduced(self.ctx, prod.reshape(self.rows, m, other.cols).transpose(0, 2, 1))

    def mat_pow(self, e: int) -> "MatF":
        """self^e for e >= 0 by repeated squaring, returned at the first zero power met.

        Every later power is then zero too.  No identity is multiplied in
        and the last square is not formed.
        """
        if self.rows != self.cols:
            raise ValueError("matrix power requires a square matrix")
        if e < 0:
            raise ValueError(f"matrix power needs an exponent >= 0, not {e}")
        if not e:
            return MatF.identity(self.ctx, self.rows)
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out @ base
                if out.is_zero():
                    return out
            e >>= 1
            if not e:
                return out
            base = base @ base
            if base.is_zero():
                return base

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

    def kernel_array(self) -> np.ndarray:
        """Null-space basis as an (nullity, cols, m) array."""
        return null_space(self.ctx, *_rref(self.ctx, self.data))

    def inv(self) -> "MatF":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        return self.completed_inverse()

    def completed_inverse(self) -> "MatF":
        """The inverse of C: these r rows, then e_j at each non-pivot column j of their RREF.

        One RREF of [rows | I_r] is [F | E], E rows = F; a pivot past
        column k means dependent rows (ZeroDivisionError).  C^-1 has E at
        (pivots, :r), -F[:, non-pivots] at (pivots, r:), 1 at (j_i, r + i).
        """
        (r, k), m = self.data.shape[:2], self.ctx.m
        aug = np.concatenate([self.data, MatF.identity(self.ctx, r).data], axis=1)
        reduced, pivots = _rref(self.ctx, aug)
        if pivots and pivots[-1] >= k:
            raise ZeroDivisionError("rows are dependent")
        free = [j for j in range(k) if j not in pivots]
        out = np.zeros((k, k, m), dtype=np.int64)
        out[pivots, :r] = reduced[:, k:]
        out[pivots, r:] = -reduced[:, free]
        out[free, np.arange(r, k), 0] = 1
        return MatF(self.ctx, out)

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


def combine(ctx: FieldCtx, coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_t coeffs[b, t] mats[t] for each b: (B, K, m) coefficients, (K, r, c, m) matrices.

    Entries in 0..p-1, in and out, the result in product_dtype(ctx, K).
    It is one mul_planes product: the (B, K) coefficient matrix, whose
    expansion holds the multiplication blocks of the coefficients,
    times the K matrices as (K m, r c) coefficient planes: no copy of
    mats that view C-contiguous (K, m, r, c) planes in that dtype.
    """
    (count, terms, m), (_, r, c, _) = coeffs.shape, mats.shape
    out = mul_planes(ctx, coeffs, mats.transpose(0, 3, 1, 2).reshape(terms * m, r * c))
    return out.reshape(count, m, r, c).transpose(0, 2, 3, 1)


def mul_planes(ctx: FieldCtx, a: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """expand(a) @ planes reduced mod p, in product_dtype(ctx, c): one product over F_{p^m} on F_p.

    a is an (r, c, m) array and planes a (c m, s) array whose row j m + t
    holds coefficient t of row j of the right factor, both in 0..p-1.
    Row i m + t of the result holds coefficient t of row i of the
    product.  Products with c past ctx.max_inner are refused.
    """
    _check_inner(ctx, a.shape[1])
    left = expand(ctx, a)
    return float_mod(left @ planes.astype(left.dtype, copy=False), ctx.p)


def product_dtype(ctx: FieldCtx, n: int):
    """float32 for F_p products with inner dimension n m that stay exact in it, else float64.

    Every term is at most (p-1)^2 and every partial sum of nonnegative
    terms is at most the total, so a product is exact in float32 while
    n m (p-1)^2 <= 2^24, whatever order BLAS sums in.
    """
    return np.dtype(np.float32 if n * ctx.m * (ctx.p - 1) ** 2 <= 2 ** 24 else np.float64)


# bytes of float_mod's quotient: a larger array is reduced in blocks of at most this
MOD_BLOCK_BYTES = 1 << 16


def float_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float array of integers in 0..2^24 (float32) or 0..2^53 (float64).

    Those are the products that product_dtype keeps exact.  x / p is
    rounded by less than x / p times the unit roundoff (2^-24, 2^-53),
    so by less than 1/p, and its floor is the exact quotient; a subtract
    of p times it is exact.  np.fmod is exact too but about thirty
    times slower.  x may have any shape and layout, views included: past
    MOD_BLOCK_BYTES it is reduced block by block along its first axis (a
    row past the block row by row), so the quotient never holds more.
    """
    if x.nbytes > MOD_BLOCK_BYTES:
        rows = MOD_BLOCK_BYTES // (x.nbytes // len(x))
        for lo in range(0, len(x), rows or 1):
            float_mod(x[lo : lo + rows] if rows else x[lo], p)
        return x
    quotient = np.divide(x, p, out=np.empty(x.shape, x.dtype))
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
    inverse = _pivot_blocks(ctx, lead, np.dtype(np.int64))[:, 0]
    out = np.matmul(out, inverse.transpose(0, 2, 1))
    out %= ctx.p
    return out


def rref_planes(ctx: FieldCtx, work: np.ndarray):
    """RREF over F_{p^m}, in place, of one (r, m, c) array of coefficient planes, and its pivot columns.

    work is C-contiguous, in elim_dtype(p, c m), with entries in 0..p-1
    (_eliminate).  The RREF is returned in the (r, c, m) layout, as a
    view of work.
    """
    pivots = _eliminate(ctx, work[None], full=True)[0]
    return work.transpose(0, 2, 1), pivots[pivots >= 0].tolist()


def _rref(ctx: FieldCtx, data: np.ndarray):
    """RREF over F_{p^m} of an (r, c, m) array and its pivot columns (rref_planes on a copy)."""
    return rref_planes(ctx, _planes(ctx, data)[0])


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


def _pivot_blocks(ctx: FieldCtx, lead: np.ndarray, dtype) -> np.ndarray:
    """(N, m, m, m) array in dtype: entry (n, s) is the multiplication block of w^s / lead[n].

    lead holds N nonzero coefficient vectors in 0..p-1, in dtype or
    narrower.  The blocks of every lead are one take from the field's
    table of all q elements (FieldCtx.inverse_table) at the codes lead @
    p^t, for any N and m; past the table's cap inverse_blocks computes
    them, one batched power for all N.
    """
    entry = ctx.inverse_table(dtype)
    if entry is None:
        return inverse_blocks(ctx, lead, dtype)
    weights, table = entry
    return table.take(lead.dot(weights), axis=0)


def _eliminate(ctx: FieldCtx, work: np.ndarray, full: bool) -> np.ndarray:
    """Gaussian elimination over F_{p^m}, in place, of a (B, r, m, c) stack of coefficient planes.

    work[b, i, :, j] is the coefficient vector of entry (i, j) of member
    b; entries start in 0..p-1, in elim_dtype(p, c m), and the stack is
    C-contiguous.  The members step through the columns together.  At
    column j each takes as its pivot row the first unused row with a
    nonzero entry a there (rows are never swapped), reduces it mod p and
    forms its multiples w^s / a times it, s < m, with one small product
    whose blocks all members' leads take from the field's table at once
    (_pivot_blocks); the first is the row scaled to a leading 1.  Every
    row with an entry b != 0 there takes away sum_s b_s (w^s / a) times
    the pivot row: m broadcast products, all members' in one update.
    Those rows are the unused ones with full=False (a rank), every row
    with full=True (an RREF), which puts the scaled pivot row back.
    Only column j and the pivot rows are reduced: an update subtracts at
    most m(p-1)^2 and a row takes at most one a column, so elim_dtype(p,
    c m) holds every entry.  Columns zero in every row are skipped.

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


def _jordan_types(ctx: FieldCtx, stack: np.ndarray, p: int, rank_n=None) -> list:
    """Jordan types of a (B, nm, nm) stack of F_p expansions of n x n matrices N whose N^p = 0 is proved.

    The caller proves N^p = 0 (modrep.validate); nothing here checks it.
    With b_r = rank(N^{r-1}) - rank(N^r), size-r blocks number b_r -
    b_{r+1}.  Block column 0 of an expansion holds the coefficient
    vectors of the entries, and block column 0 of N^e is expand(N) times
    that of N^(e-1): one batched product a power, in the stack's dtype,
    product_dtype(ctx, n) as expand gives it.  One elimination takes
    N^2, ..., N^(p-1) given rank_n, the (B,) ranks of N, else N, ..., N^(p-1).
    """
    (count, size), m = stack.shape[:2], ctx.m
    n = size // m
    _check_inner(ctx, n)
    power = stack[..., ::m]
    ranks = np.zeros((count, p + 1), dtype=np.int64)
    ranks[:, 0] = n
    first = 1 if rank_n is None else 2  # the first power the elimination takes
    if rank_n is not None:
        ranks[:, 1] = rank_n
    # planes[e - first] holds the planes of N^e, left zero once every N^e is
    planes = np.zeros((p - first, count, n, m, n), dtype=elim_dtype(ctx.p, size))
    for e in range(first, p):
        if e > 1:
            power = float_mod(np.matmul(stack, power), ctx.p)
        if not power.any():
            break
        planes[e - first] = power.reshape(count, n, m, n)
    if planes.size:
        ranks[:, first:p] = _ranks(ctx, planes.reshape(-1, n, m, n)).reshape(p - first, count).T
    # b[:, r-1] = b_r for r = 1..p+1, the last rank(N^p) - 0 = 0
    b = -np.diff(ranks, axis=1, append=0)
    # the sizes r mult_r sum to rank(N^0) - rank(N^p) = n whatever the
    # ranks; wrong ranks show as a negative count instead
    mult = b[:, :p] - b[:, 1:]
    bad = (mult < 0).any(axis=1).nonzero()[0]
    if bad.size:
        raise BrokenInvariant(f"ranks {ranks[bad[0]].tolist()} of the powers of a {n} x {n} matrix "
                              f"over F_{ctx.q} (member {bad[0]} of {count}) give a negative "
                              f"Jordan block count")
    return [JordanType(p, tuple(row)) for row in mult.tolist()]


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
