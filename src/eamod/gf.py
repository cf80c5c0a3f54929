"""Exact arithmetic in prime fields F_p and extensions F_{p^m}.

A FieldCtx fixes (p, m, irr) where irr is a monic irreducible of degree m
over F_p; every element and matrix in the package is interpreted
relative to one such context.  Elements are int64 coefficient vectors
in ascending powers of the generator w (a root of irr), or their integer
codes: arrays of them are the one field representation, and
FieldCtx.coerce the one way in.  Fel and Point are output records that
name points.  A polynomial over F_p is its companion matrix: the field's
regular representation and the irreducibility test both raise it by the
one square-and-multiply on stacks of integer blocks (_block_power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class BadParams(ValueError):
    """Raised for parameters outside the domain the computation supports."""


class NonPrime(BadParams):
    """Raised when a field modulus is not prime."""


class DegreeOutOfRange(BadParams):
    """Raised when an extension degree falls outside 1..8."""


def is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(d: dict, key: str, owner: str) -> int:
    """d[key] if it is an integer >= 0, as every integer key of a file is; else a ValueError naming it."""
    if not _is_json_int(d[key]) or d[key] < 0:
        raise ValueError(f"{owner} key {key!r} must be an integer >= 0, got {d[key]!r}")
    return d[key]


def exact_inner(p: int, m: int) -> int:
    """Largest inner dimension n of exact float64 F_p products: n m (p-1)^2 <= 2^53 (see linalg)."""
    term = m * (p - 1) ** 2
    if term > 2 ** 53:
        raise BadParams(f"products over F_{p}^{m} overflow float64 exactness "
                        f"(m(p-1)^2 = {term} > 2^53)")
    return 2 ** 53 // term


def check_prime(p: int, m: int = 1) -> None:
    """Raise NonPrime unless p is prime, and BadParams first if F_{p^m} is past the bound of exact_inner.

    The bound comes first, at m >= 1: it caps the trial division of
    is_prime (_prime_factors) at p <= 9.5e7, where (p-1)^2 passes 2^53.
    """
    if p > 1:
        exact_inner(p, max(m, 1))
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")


# FieldCtx.inverse_table builds no table past this many bytes
INVERSE_TABLE_BYTES = 1 << 20
# FieldCtx.code_logs tests this many candidates for a primitive element at once
LOG_CANDIDATES = 16


class FieldCtx:
    """A finite field F_{p^m} with a fixed monic irreducible of degree m.

    For m = 1 the stored polynomial is the placeholder x and arithmetic
    reduces mod p only.  Instances are immutable and safe to share.
    """

    __slots__ = ("p", "m", "irr", "max_inner", "_regular", "_logs", "_inverses")

    def __init__(self, p: int, m: int, irr: Sequence[int]):
        self.p = int(p)
        self.m = int(m)
        check_prime(self.p, self.m)
        if self.m < 1:
            raise DegreeOutOfRange(f"extension degree {self.m} is below 1")
        self.irr = tuple(int(c) % p for c in irr)
        if len(self.irr) != m + 1 or self.irr[-1] != 1:
            raise ValueError(f"irr {[int(c) for c in irr]} must be monic of degree m = {self.m} "
                             f"over F_{self.p} (ascending coefficients)")
        self.max_inner = exact_inner(self.p, self.m)
        if self.m >= 2 and not poly_is_irreducible(self.p, self.irr):
            raise BadParams(f"{list(self.irr)} is reducible over F_{self.p}")
        # C^t for t < m: column b is w^(t+b) mod irr, C the companion matrix of irr
        powers, c = [np.eye(self.m, dtype=np.int64)], _companion(self.p, self.irr)
        while len(powers) < self.m:
            powers.append(powers[-1] @ c % self.p)
        self._regular = np.array(powers)
        self._regular.flags.writeable = False
        self._logs = None
        self._inverses = {}

    @property
    def q(self) -> int:
        return self.p ** self.m

    def from_code(self, v: int):
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def coerce(self, values, axes: int = 0) -> np.ndarray:
        """The int64 (..., m) coefficient array of field elements nested `axes` sequences deep.

        An element is an int, a constant, or a sequence of m coefficients
        in ascending powers of w; the two may mix, and every coefficient
        is reduced mod p.  A wrong coefficient count or ragged nesting
        raises ValueError.
        """
        grid = np.array(values, dtype=object)
        if grid.ndim == axes:
            pad = (0,) * (self.m - 1)
            flat = [(v,) + pad if np.ndim(v) == 0 else tuple(v) for v in grid.flat]
            if any(len(v) != self.m for v in flat):
                raise ValueError(f"expected {self.m} coefficients per element")
            grid = np.array(flat, dtype=object).reshape(grid.shape + (self.m,))
        elif grid.ndim < axes and not grid.size:
            grid = grid.reshape(grid.shape + (0,) * (axes - grid.ndim) + (self.m,))
        if grid.ndim != axes + 1 or grid.shape[-1] != self.m:
            raise ValueError(f"expected {self.m} coefficients per element, {axes} sequences deep, "
                             f"not shape {grid.shape}")
        return (grid % self.p).astype(np.int64)

    def regular(self) -> np.ndarray:
        """(m, m, m) array: entry t is C^t, multiplication by w^t (C the companion matrix of irr)."""
        return self._regular

    # -- code tables: sweeps hold at most 10^7 points, so q stays below it --

    def from_codes(self, codes) -> np.ndarray:
        """The (..., m) int64 coefficient vectors of an integer array of codes (from_code on arrays)."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self.p ** np.arange(self.m) % self.p

    def to_codes(self, a) -> np.ndarray:
        """The integer codes of an (..., m) coefficient array, a_0 least significant (from_codes inverted)."""
        return np.asarray(a, dtype=np.int64) @ self.p ** np.arange(self.m)

    def code_logs(self):
        """(exp, log): index tables on codes for a primitive element g, built once per field.

        exp[i] is the code of g^i for i < q - 1 and log[exp[i]] = i, so
        the product of nonzero codes a and b is exp[(log a + log b) %
        (q - 1)].  log[0] is 0, a placeholder: callers mask zero codes.
        g is the least code with g^((q-1)/r) != 1 for every prime r
        dividing q - 1, LOG_CANDIDATES candidates tested at once by one
        power_blocks per prime, and exp is built by doubling: g^s, ...,
        g^(2s-1) are g^s times g^0, ..., g^(s-1), one arr_mul per step.
        Both tables hold q entries, so only sweeps build them.
        """
        if self._logs is None:
            order = self.q - 1
            for low in range(1, self.q, LOG_CANDIDATES):
                codes = np.arange(low, min(low + LOG_CANDIDATES, self.q))
                coeffs, primitive = self.from_codes(codes), np.ones(codes.size, dtype=bool)
                for r in _prime_factors(order):
                    # the block of g^e is the identity exactly when g^e = 1
                    blocks = power_blocks(self, coeffs, order // r, np.int64)
                    primitive &= (blocks != np.eye(self.m, dtype=np.int64)).any(axis=(1, 2))
                if primitive.any():
                    break
            g = int(codes[primitive.argmax()])
            powers = np.eye(1, self.m, dtype=np.int64)
            step = np.array(self.from_code(g), dtype=np.int64)
            while len(powers) < order:
                powers = np.concatenate([powers, arr_mul(self, step, powers)])
                step = arr_mul(self, step, step)
            exp = self.to_codes(powers[:order])
            log = np.zeros(self.q, dtype=np.int64)
            log[exp] = np.arange(order)
            exp.flags.writeable = log.flags.writeable = False
            self._logs = exp, log
        return self._logs

    def inverse_table(self, dtype):
        """(weights, table) of pivot inverses in dtype, built once per field and dtype; None past INVERSE_TABLE_BYTES.

        table[c] is inverse_blocks of the element of code c, a (q, m, m,
        m) array whose row 0 is zero, and an (N, m) array a of coefficient
        vectors has codes a @ weights, the powers p^t in intp, the index
        type of a take, so no take casts its codes.
        """
        try:
            return self._inverses[dtype]
        except KeyError:
            pass
        m, kind = self.m, np.dtype(dtype)
        entry = None
        if self.q * m ** 3 * kind.itemsize <= INVERSE_TABLE_BYTES:
            table = np.zeros((self.q, m, m, m), dtype=kind)
            table[1:] = inverse_blocks(self, self.from_codes(np.arange(1, self.q)), kind)
            entry = self.p ** np.arange(m, dtype=np.intp), table
        self._inverses[dtype] = entry
        return entry

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "irr": list(self.irr)}

    @classmethod
    def from_dict(cls, d: dict) -> "FieldCtx":
        if not isinstance(d, dict) or not {"p", "m", "irr"} <= d.keys():
            raise ValueError("field must be an object with keys p, m and irr")
        if not isinstance(d["irr"], list) or not all(map(_is_json_int, d["irr"])):
            raise ValueError(f"field key 'irr' must be a list of integers, got {d['irr']!r}")
        return cls(json_int(d, "p", "field"), json_int(d, "m", "field"), d["irr"])

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.irr == other.irr
        )

    def __hash__(self):
        return hash((self.p, self.m, self.irr))

    def __repr__(self):
        if self.m == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.m}(irr={list(self.irr)})"


def arr_mul(ctx: FieldCtx, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise field product of two broadcastable (..., m) coefficient arrays.

    Entries of x become multiplication matrices sum_t x_t C^t applied to
    the entries of y; both steps sum m terms of at most (p-1)^2.
    """
    m, p = ctx.m, ctx.p
    lx = (x @ ctx.regular().reshape(m, m * m)) % p
    return np.einsum("...ab,...b->...a", lx.reshape(x.shape[:-1] + (m, m)), y) % p


def power_blocks(ctx: FieldCtx, a: np.ndarray, e: int, dtype) -> np.ndarray:
    """(N, m, m) multiplication blocks of a[n]^e, e >= 1, for an (N, m) array of coefficient vectors.

    The block of x is sum_t x_t C^t, and the block of a product is the
    product of the blocks, so the power is square-and-multiply on the
    stack of blocks: each step one stacked integer product reduced mod
    p, whose entries sum m terms of at most (p-1)^2.  dtype must hold
    m (p-1)^2 (an elimination's elim_dtype does, and int64 always).
    """
    m, p = ctx.m, ctx.p
    base = a.astype(dtype, copy=False) @ ctx.regular().astype(dtype).reshape(m, m * m)
    base %= p
    return _block_power(base.reshape(-1, m, m), e, p)


def _block_power(blocks: np.ndarray, e: int, p: int) -> np.ndarray:
    """blocks^e mod p, e >= 1, for a stack of integer blocks in 0..p-1, by square-and-multiply.

    Each step is one stacked product reduced mod p, in the dtype of
    blocks, whose entries sum n terms of at most (p-1)^2 for n x n
    blocks; e = 1 returns blocks itself.
    """
    out = None
    while True:
        if e & 1:
            out = blocks if out is None else np.remainder(out @ blocks, p)
        e >>= 1
        if not e:
            return out
        blocks = np.remainder(blocks @ blocks, p)


def inverse_blocks(ctx: FieldCtx, a: np.ndarray, dtype) -> np.ndarray:
    """(N, m, m, m) array in dtype: entry (n, s) is the multiplication block of w^s / a[n].

    a is an (N, m) array of nonzero coefficient vectors in 0..p-1.  1/a
    is a^(q-2) (power_blocks; F_2's one unit is its own inverse), and
    the block of w^s x is C^s times that of x: one more stacked product.
    """
    inverse = power_blocks(ctx, a, ctx.q - 2 or 1, dtype)
    out = ctx.regular().astype(dtype) @ inverse[:, None]
    out %= ctx.p
    return out


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, ascending."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


class Fel:
    """An element of a FieldCtx as an output record: m residues mod p, ascending powers of w.

    Its repr is the one format of point coordinates in reports.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    def __repr__(self):
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("w" if c == 1 else f"{c}w")
            else:
                terms.append(f"w^{i}" if c == 1 else f"{c}w^{i}")
        return "+".join(terms) if terms else "0"


class ZeroPoint(ValueError):
    """Raised when a nonzero point is required."""


@dataclass(frozen=True)
class Point:
    """A point of affine k-space as an output record: a tuple of Fel, named by str."""

    coords: tuple

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


# -- field construction --


def field_create(p: int, m: int) -> FieldCtx:
    """Build F_{p^m} with the lexicographically least monic irreducible.

    Coefficient sequences (a_{m-1}, ..., a_0) are ordered as base-p
    integers and tried in that order by poly_is_irreducible, one batched
    power of companion matrices each, so the result is deterministic
    across runs and platforms.  For m = 1 the stored polynomial is the
    placeholder x.  A field past the float64 bound of exact_inner raises
    BadParams before the primality test and the search (check_prime).
    """
    check_prime(p, m)
    if m < 1 or m > 8:
        raise DegreeOutOfRange(f"extension degree {m} outside 1..8")
    if m == 1:
        return FieldCtx(p, 1, (0, 1))
    for t in range(p ** m):
        # digits[0] = a_0 (least significant of t)
        digits = [(t // p ** i) % p for i in range(m)] + [1]
        if poly_is_irreducible(p, digits):
            return FieldCtx(p, m, digits)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _companion(p: int, f) -> np.ndarray:
    """The (n, n) int64 companion matrix of a monic f of degree n over F_p, f ascending.

    Ones on the subdiagonal and -f_0, ..., -f_{n-1} mod p in the last
    column: multiplication by x on 1, x, ..., x^(n-1) mod f.
    """
    n = len(f) - 1
    c = np.eye(n, k=-1, dtype=np.int64)
    c[:, -1] = -np.array(f[:n], dtype=np.int64) % p
    return c


def poly_is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility over F_p of the polynomial with ascending coefficients (Ben-Or's test).

    p is refused first: NonPrime, or BadParams past the bound of
    exact_inner at m = len(coeffs) - 1 (check_prime).  With trailing
    zeros trimmed and f scaled to monic, of degree n >= 1, f is
    reducible iff gcd(x^(p^d) - x, f) != 1 for some d <= n/2, that is
    iff G_d = C^(p^d) - C is not a unit of F_p[C] = F_p[x]/(f), C the
    companion matrix.  A non-unit has no power equal to I, and if f is
    irreducible F_p[C] is F_{p^n}, so f is irreducible iff G_d^(p^n - 1)
    = I for every d: one batched power.
    """
    check_prime(p, len(coeffs) - 1)
    f = np.trim_zeros(np.array([int(c) % p for c in coeffs], dtype=np.int64), "b")
    n = len(f) - 1
    if n < 1:
        raise ValueError("degree must be >= 1")
    c = _companion(p, f * pow(int(f[-1]), -1, p) % p)
    frobenius, gaps = c, []
    for _ in range(n // 2):
        frobenius = _block_power(frobenius, p, p)
        gaps.append((frobenius - c) % p)
    if not gaps:
        return True
    return bool((_block_power(np.array(gaps), p ** n - 1, p) == np.eye(n, dtype=np.int64)).all())
