"""Exact arithmetic in prime fields F_p and extensions F_{p^m}.

A FieldCtx fixes (p, m, irr) where irr is a monic irreducible of degree m
over F_p; every element and matrix in the package is interpreted
relative to one such context.  Elements are coefficient vectors in
ascending powers of the generator w (a root of irr).  Polynomials over
F_p are plain integer lists, ascending.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class BadParams(ValueError):
    """Raised for parameters outside the domain the computation supports."""


class NonPrime(BadParams):
    """Raised when a field modulus is not prime."""


class DegreeOutOfRange(BadParams):
    """Raised when an extension degree falls outside 1..8."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(d: dict, key: str, owner: str) -> int:
    """d[key] if it is an integer; otherwise a ValueError naming the key."""
    if not _is_json_int(d[key]):
        raise ValueError(f"{owner} key {key!r} must be an integer, got {d[key]!r}")
    return d[key]


def exact_inner(p: int, m: int) -> int:
    """Largest inner dimension n of exact float64 F_p products: n m (p-1)^2 <= 2^53 (see linalg)."""
    term = m * (p - 1) ** 2
    if term > 2 ** 53:
        raise BadParams(f"products over F_{p}^{m} overflow float64 exactness "
                        f"(m(p-1)^2 = {term} > 2^53)")
    return 2 ** 53 // term


class FieldCtx:
    """A finite field F_{p^m} with a fixed monic irreducible of degree m.

    For m = 1 the stored polynomial is the placeholder x and arithmetic
    reduces mod p only.  Instances are immutable and safe to share.
    """

    __slots__ = ("p", "m", "irr", "max_inner", "_red", "_regular", "_logs")

    def __init__(self, p: int, m: int, irr: Sequence[int]):
        self.p = int(p)
        self.m = int(m)
        if not is_prime(self.p):
            raise NonPrime(f"{self.p} is not prime")
        if self.m < 1:
            raise DegreeOutOfRange(f"extension degree {self.m} is below 1")
        self.irr = tuple(int(c) % p for c in irr)
        if len(self.irr) != m + 1 or self.irr[-1] != 1:
            raise ValueError("irr must be monic of degree m (ascending coefficients)")
        self.max_inner = exact_inner(self.p, self.m)
        if self.m >= 2 and not poly_is_irreducible(self.p, self.irr):
            raise BadParams(f"{list(self.irr)} is reducible over F_{self.p}")
        # rows d = 0..2m-2: coefficients of x^d reduced mod irr
        red = []
        for d in range(self.m):
            row = [0] * self.m
            row[d] = 1
            red.append(tuple(row))
        for d in range(self.m, 2 * self.m - 1):
            prev = red[d - 1]
            shifted = [0] + list(prev[: self.m - 1])
            top = prev[self.m - 1]
            row = [(shifted[t] - top * self.irr[t]) % self.p for t in range(self.m)]
            red.append(tuple(row))
        self._red = tuple(red)
        # column b of C^t is w^(t+b) mod irr, C the companion matrix of irr
        self._regular = np.array([[red[t + b] for b in range(self.m)] for t in range(self.m)],
                                 dtype=np.int64).transpose(0, 2, 1)
        self._regular.flags.writeable = False
        self._logs = None

    @property
    def q(self) -> int:
        return self.p ** self.m

    # -- coefficient-tuple arithmetic (internal workhorses) --

    def czero(self):
        return (0,) * self.m

    def cone(self):
        return (1,) + (0,) * (self.m - 1)

    def cadd(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def csub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def cneg(self, a):
        return tuple((-x) % self.p for x in a)

    def cmul(self, a, b):
        m, p = self.m, self.p
        if m == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [0] * m
        for d, c in enumerate(conv):
            if c:
                row = self._red[d]
                for t in range(m):
                    out[t] += c * row[t]
        return tuple(v % p for v in out)

    def cinv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        return self.cpow(a, self.q - 2)

    def cpow(self, a, e: int):
        if e < 0:
            return self.cpow(self.cinv(a), -e)
        out = self.cone()
        base = a
        while e:
            if e & 1:
                out = self.cmul(out, base)
            base = self.cmul(base, base)
            e >>= 1
        return out

    def code(self, coeffs) -> int:
        """Pack coefficients into an integer 0..q-1 (a_0 least significant)."""
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def from_code(self, v: int):
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    # -- Fel construction and iteration --

    def el(self, value) -> "Fel":
        """Coerce an int (reduced mod p, constant coefficient) or a coefficient
        iterable into a field element."""
        if isinstance(value, Fel):
            if value.ctx != self:
                raise ValueError("element from a different field context")
            return value
        if isinstance(value, int):
            return Fel(self, (value % self.p,) + (0,) * (self.m - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(coeffs)}")
        return Fel(self, coeffs)

    def zero(self) -> "Fel":
        return Fel(self, self.czero())

    def one(self) -> "Fel":
        return Fel(self, self.cone())

    def gen(self) -> "Fel":
        """The generator w (a root of irr); for m = 1 returns 1."""
        if self.m == 1:
            return self.one()
        return Fel(self, (0, 1) + (0,) * (self.m - 2))

    def elements(self) -> Iterable["Fel"]:
        for v in range(self.q):
            yield Fel(self, self.from_code(v))

    def regular(self) -> np.ndarray:
        """(m, m, m) array: entry t is C^t, multiplication by w^t (C the companion matrix of irr)."""
        return self._regular

    # -- code tables: sweeps hold at most 10^7 points, so q stays below it --

    def from_codes(self, codes) -> np.ndarray:
        """The (..., m) int64 coefficient vectors of an integer array of codes (from_code on arrays)."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self.p ** np.arange(self.m) % self.p

    def code_logs(self):
        """(exp, log): index tables on codes for a primitive element g, built once per field.

        exp[i] is the code of g^i for i < q - 1 and log[exp[i]] = i, so
        the product of nonzero codes a and b is exp[(log a + log b) %
        (q - 1)].  log[0] is 0, a placeholder: callers mask zero codes.
        g is the least code with g^((q-1)/r) != 1 for every prime r
        dividing q - 1, and exp is built by doubling: g^s, ..., g^(2s-1)
        are g^s times g^0, ..., g^(s-1), one arr_mul per step.  Both
        tables hold q entries, so only sweeps build them.
        """
        if self._logs is None:
            order = self.q - 1
            one = self.cone()
            g = next(c for c in range(1, self.q)
                     if all(self.cpow(self.from_code(c), order // r) != one for r in _prime_factors(order)))
            powers = np.array([self.cone()], dtype=np.int64)
            step = np.array(self.from_code(g), dtype=np.int64)
            while len(powers) < order:
                powers = np.concatenate([powers, arr_mul(self, step, powers)])
                step = arr_mul(self, step, step)
            exp = powers[:order] @ self.p ** np.arange(self.m)
            log = np.zeros(self.q, dtype=np.int64)
            log[exp] = np.arange(order)
            exp.flags.writeable = log.flags.writeable = False
            self._logs = exp, log
        return self._logs

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
    """An element of a FieldCtx: m residues mod p, ascending powers of w."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, Fel):
            if other.ctx != self.ctx:
                raise ValueError("mixed field contexts")
            return other
        if isinstance(other, int):
            return self.ctx.el(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fel(self.ctx, self.ctx.cadd(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fel(self.ctx, self.ctx.csub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fel(self.ctx, self.ctx.csub(o.coeffs, self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fel(self.ctx, self.ctx.cmul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return Fel(self.ctx, self.ctx.cneg(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fel(self.ctx, self.ctx.cmul(self.coeffs, self.ctx.cinv(o.coeffs)))

    def __pow__(self, e: int):
        return Fel(self.ctx, self.ctx.cpow(self.coeffs, e))

    def inverse(self) -> "Fel":
        return Fel(self.ctx, self.ctx.cinv(self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.el(other)
        return (
            isinstance(other, Fel)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.m, self.coeffs))

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


# -- prime-subfield polynomial helpers on bare int lists (irreducibility) --


def _fp_trim(a):
    i = len(a) - 1
    while i >= 0 and a[i] == 0:
        i -= 1
    return a[: i + 1]


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    return _fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    a = _fp_trim(list(a))
    b = _fp_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and r:
        c = (r[-1] * inv_lead) % p
        d = len(r) - len(b)
        q[d] = c
        for i in range(len(b)):
            r[d + i] = (r[d + i] - c * b[i]) % p
        r = _fp_trim(r)
    return q, r


def _fp_powmod(a, e, f, p):
    """a^e mod f over F_p."""
    out, base = [1], _fp_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, base, p), f, p)[1]
        base = _fp_divmod(_fp_mul(base, base, p), f, p)[1]
        e >>= 1
    return out


# -- field construction --


def field_create(p: int, m: int) -> FieldCtx:
    """Build F_{p^m} with the lexicographically least monic irreducible.

    Coefficient sequences (a_{m-1}, ..., a_0) are ordered as base-p
    integers, so the result is deterministic across runs and platforms.
    For m = 1 the stored polynomial is the placeholder x.  A field past
    the float64 bound of exact_inner raises BadParams before the search.
    """
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if m < 1 or m > 8:
        raise DegreeOutOfRange(f"extension degree {m} outside 1..8")
    exact_inner(p, m)
    if m == 1:
        return FieldCtx(p, 1, (0, 1))
    for t in range(p ** m):
        # digits[0] = a_0 (least significant of t)
        digits = [(t // p ** i) % p for i in range(m)] + [1]
        if poly_is_irreducible(p, digits):
            return FieldCtx(p, m, digits)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def poly_is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility over F_p of the polynomial with ascending coefficients.

    f of degree n is reducible iff it shares a factor with x^{p^d} - x
    for some d <= n/2.
    """
    f = _fp_trim([int(c) % p for c in coeffs])
    n = len(f) - 1
    if n < 1:
        raise ValueError("degree must be >= 1")
    h = [0, 1]
    for _ in range(n // 2):
        h = _fp_powmod(h, p, f, p)
        g, r = f, _fp_sub(h, [0, 1], p)
        while r:
            g, r = r, _fp_divmod(g, r, p)[1]
        if len(g) > 1:
            return False
    return True
