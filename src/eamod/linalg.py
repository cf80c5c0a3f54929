"""Dense exact matrix algebra over a FieldCtx.

Matrices are stored as int64 arrays of shape (rows, cols, m): one
coefficient plane per power of the field generator.  All elimination is
fraction-free in the sense that every intermediate value is an exact
field element; nothing here ever touches floating point.

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


# -- batched coefficient-plane arithmetic on (..., m) arrays --


def _planes(ctx: FieldCtx, x: np.ndarray, y: np.ndarray, op) -> np.ndarray:
    """Field product of two (..., m) coefficient arrays under a bilinear op.

    op (np.multiply, np.matmul or np.kron) is applied to each pair of
    nonzero planes; the product of planes a and b lands in plane a + b,
    and the 2m - 1 planes are folded through the reduction rows.
    """
    m, p = ctx.m, ctx.p
    if m == 1:
        return op(x[..., 0], y[..., 0])[..., None] % p
    xs = [(a, x[..., a]) for a in range(m) if x[..., a].any()]
    ys = [(b, y[..., b]) for b in range(m) if y[..., b].any()]
    if not xs or not ys:
        return np.zeros(op(x[..., 0], y[..., 0]).shape + (m,), dtype=np.int64)
    conv = None
    for a, xa in xs:
        for b, yb in ys:
            prod = op(xa, yb)
            if conv is None:
                conv = np.zeros(prod.shape + (2 * m - 1,), dtype=np.int64)
            conv[..., a + b] += prod
    return (conv @ ctx.reduction_planes()) % p


def arr_mul(ctx: FieldCtx, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise field product of two (..., m) coefficient arrays."""
    return _planes(ctx, x, y, np.multiply)


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
        return MatF(self.ctx, arr_mul(self.ctx, self.data, coeff[None, None, :]))

    def __matmul__(self, other: "MatF") -> "MatF":
        self._check_mul(other)
        return MatF(self.ctx, _planes(self.ctx, self.data, other.data, np.matmul))

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
        return MatF(self.ctx, _planes(self.ctx, self.data, other.data, np.kron))

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
        work = self.data.copy()
        return len(_eliminate(work, self.ctx, full=False))

    def rref(self):
        """Reduced row echelon form; returns (MatF, pivot column list)."""
        work = self.data.copy()
        pivots = _eliminate(work, self.ctx, full=True)
        return MatF(self.ctx, work), pivots

    def kernel_basis(self):
        """Basis of the right null space, vectors scaled to leading 1.

        Returns a list of tuples of Fel, one per free column, in
        ascending free-column order.
        """
        arr = self.kernel_array()
        return [tuple(Fel(self.ctx, tuple(int(c) for c in coeffs)) for coeffs in vec) for vec in arr]

    def kernel_array(self) -> np.ndarray:
        """Null-space basis as an (nullity, cols, m) array."""
        work = self.data.copy()
        pivots = _eliminate(work, self.ctx, full=True)
        return null_space(self.ctx, work, pivots)

    def inv(self) -> "MatF":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        aug = np.concatenate([self.data, MatF.identity(self.ctx, n).data], axis=1)
        pivots = _eliminate(aug, self.ctx, full=True)
        if len(pivots) != n or pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return MatF(self.ctx, aug[:, n:].copy())

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
                            f"n={self.cols} can overflow int64 (at most {self.ctx.max_inner})")


def null_space(ctx: FieldCtx, reduced: np.ndarray, pivots) -> np.ndarray:
    """Null-space basis read from an RREF and its pivot columns.

    Returns an (nullity, cols, m) array, one vector per free column in
    ascending order, each scaled so its first nonzero coordinate is 1.
    """
    cols = reduced.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    out = np.zeros((len(free), cols, ctx.m), dtype=np.int64)
    for v, j in enumerate(free):
        out[v, j, 0] = 1
        for r, c in enumerate(pivots):
            out[v, c] = (-reduced[r, j]) % ctx.p
    for v in range(len(free)):
        for j in range(cols):
            if out[v, j].any():
                inv = np.array(ctx.cinv(tuple(int(x) for x in out[v, j])), dtype=np.int64)
                out[v] = arr_mul(ctx, out[v], inv[None, :])
                break
    return out


def _eliminate(work: np.ndarray, ctx: FieldCtx, full: bool) -> list:
    """In-place Gaussian elimination; returns pivot columns.

    full=False clears below pivots only (rank); full=True normalizes
    pivots to 1 and clears above as well (RREF).
    """
    rows, cols = work.shape[:2]
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        sub = work[r:, c, :]
        nz = np.nonzero(sub.any(axis=1))[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        inv = np.array(ctx.cinv(tuple(int(x) for x in work[r, c])), dtype=np.int64)
        work[r] = arr_mul(ctx, work[r], inv[None, :])
        if full:
            targets = np.nonzero(work[:, c, :].any(axis=1))[0]
            targets = targets[targets != r]
        else:
            targets = r + 1 + np.nonzero(work[r + 1 :, c, :].any(axis=1))[0]
        if targets.size:
            upd = arr_mul(ctx, work[targets, c, None], work[r][None])
            work[targets] = (work[targets] - upd) % ctx.p
        pivots.append(c)
        r += 1
    return pivots


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
    blocks is b_r - b_{r+1}.
    """
    if n_mat.rows != n_mat.cols:
        raise ValueError("matrix must be square")
    dim = n_mat.rows
    ranks = [dim]
    power = None
    for r in range(1, p + 1):
        power = n_mat if power is None else power @ n_mat
        rk = 0 if ranks[-1] == 0 else power.rank()
        ranks.append(rk)
        if rk == 0:
            ranks.extend([0] * (p - r))
            break
    if ranks[p] != 0:
        raise NotNilpotent(f"matrix is not nilpotent of order <= {p}")
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
    # gathered[s, t, i, j] = A[subs[s, i], subs[t, j]]
    gathered = a_mat.data[subs[:, None, :, None], subs[None, :, None, :], :]
    out = np.zeros((count, count, ctx.m), dtype=np.int64)
    for perm in permutations(range(r)):
        sign = _perm_sign(perm)
        term = gathered[:, :, 0, perm[0], :]
        for i in range(1, r):
            term = arr_mul(ctx, term, gathered[:, :, i, perm[i], :])
        out = (out + sign * term) % ctx.p
    return MatF(ctx, out)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
