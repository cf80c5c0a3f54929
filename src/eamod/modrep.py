"""Modules over group algebras of elementary abelian p-groups.

An EAModule is k pairwise-commuting nilpotent generator matrices
X_1..X_k (the images of g_i - 1) over one FieldCtx, with X_i^p = 0.
This module hosts all module-level constructions: sums, tensors,
duals, exterior powers, restriction, induction, linear-variety
modules, the exact projectivity test, endomorphism (commutant) bases
and the randomized Fitting decomposition.

Jordan types at points all come from jordan_types_at; x_alpha, which
is_free_at takes, is one linalg.combine.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .gf import FieldCtx, json_int
from .linalg import (
    JordanType,
    MatF,
    NotNilpotent,
    _check_inner,
    canonical_nilpotent,
    combine,
    compound_matrix,
    elim_dtype,
    expand,
    float_mod,
    jordan_type_nilpotent,
    jordan_types,
    null_space,
    product_dtype,
)
from .stream import CounterStream

# peak bytes of one jordan_types_at stack, at _point_bytes a point
STACK_BYTES = 1 << 20


class NonCommuting(ValueError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"generators {i} and {j} do not commute")


class ZeroPoint(ValueError):
    """Raised when a nonzero point is required."""


class MismatchedContext(ValueError):
    """Raised when combining modules over different (p, k, field)."""


class DependentGenerators(ValueError):
    """Raised when subgroup/embedding vectors are linearly dependent."""


@dataclass(frozen=True)
class Point:
    """A point of affine k-space over a FieldCtx (tuple of Fel)."""

    coords: tuple

    @classmethod
    def of(cls, field: FieldCtx, values) -> "Point":
        return cls(tuple(field.el(v) for v in values))

    @property
    def k(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_normalized(self) -> bool:
        for c in self.coords:
            if c:
                return c == 1
        return False

    def normalize(self) -> "Point":
        """Projective normalization: scale so the first nonzero coord is 1 (self if it is)."""
        if self.is_normalized():
            return self
        for c in self.coords:
            if c:
                inv = c.inverse()
                return Point(tuple(x * inv for x in self.coords))
        raise ZeroPoint("cannot normalize the zero point")

    def codes(self) -> tuple:
        return tuple(c.ctx.code(c.coeffs) for c in self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class Symmetry(enum.Flag):
    """Maps of the points that keep a module's Jordan type, declared by constructors.

    FROBENIUS: alpha and its coordinatewise p-th power have one type; it
    holds when every generator entry lies in F_p (lift_to_extension).
    PERMUTATIONS: alpha and each permutation of its coordinates have one
    type; it holds for D(r), where they relabel the p-cycles (d_r).
    F_p^x scalings of one coordinate keep freeness only and are no
    symmetry here.  Loaded files and derived modules declare NONE.
    """

    NONE = 0
    FROBENIUS = enum.auto()
    PERMUTATIONS = enum.auto()


class EAModule:
    """A module over F E, E elementary abelian of rank k.

    symmetry is what the constructor vouches for (see Symmetry); point
    sweeps use it, and equality ignores it.
    """

    __slots__ = ("p", "k", "n", "field", "gens", "symmetry")

    def __init__(self, p: int, k: int, field: FieldCtx, gens, dim: int = None,
                 symmetry: Symmetry = Symmetry.NONE):
        gens = tuple(gens)
        if len(gens) != k:
            raise ValueError(f"expected {k} generators, got {len(gens)}")
        if gens:
            n = gens[0].rows
            if dim is not None and dim != n:
                raise ValueError("explicit dim contradicts generator size")
        else:
            n = dim or 0
        for g in gens:
            if g.ctx != field:
                raise MismatchedContext("generator over a different field context")
            if g.rows != n or g.cols != n:
                raise ValueError("generators must be square of equal size")
        if field.p != p:
            raise MismatchedContext("field characteristic differs from module prime")
        self.p = p
        self.k = k
        self.n = n
        self.field = field
        self.gens = gens
        self.symmetry = symmetry

    def group_matrices(self):
        """u_i = 1 + X_i, derived on demand."""
        eye = MatF.identity(self.field, self.n)
        return [eye + g for g in self.gens]

    def __repr__(self):
        return f"EAModule(p={self.p}, k={self.k}, dim={self.n} over {self.field})"

    def __eq__(self, other):
        return (
            isinstance(other, EAModule)
            and self.p == other.p
            and self.k == other.k
            and self.field == other.field
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.p, self.k, self.field, self.gens))

    # -- serialization (eamod-v1) --

    def to_dict(self) -> dict:
        return {
            "format": "eamod-v1",
            "p": self.p,
            "k": self.k,
            "dim": self.n,
            "field": self.field.to_dict(),
            "generators": [g.data.tolist() for g in self.gens],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EAModule":
        if not isinstance(d, dict):
            raise ValueError("module file is not a JSON object")
        if d.get("format") != "eamod-v1":
            raise ValueError(f"unsupported module format {d.get('format')!r}")
        missing = [key for key in ("field", "p", "k", "dim", "generators") if key not in d]
        if missing:
            raise ValueError(f"module file lacks {', '.join(missing)}")
        field = FieldCtx.from_dict(d["field"])
        p, k, n = (json_int(d, key, "module") for key in ("p", "k", "dim"))
        if field.p != p:
            raise ValueError("field characteristic does not match module prime")
        gens = []
        raw = d["generators"]
        if not isinstance(raw, list):
            raise ValueError("module generators must be a list of matrices")
        if len(raw) != k:
            raise ValueError("generator count does not match rank")
        for g in raw:
            # a saved 0 x 0 generator is [], which numpy reads as shape (0,)
            arr = np.zeros((0, 0, field.m), dtype=np.int64) if n == 0 and g == [] else np.array(g)
            if arr.shape != (n, n, field.m):
                raise ValueError("generator has wrong shape")
            if arr.dtype.kind != "i":
                raise ValueError(f"generator entries must be integers, not {arr.dtype}")
            if arr.min(initial=0) < 0 or arr.max(initial=0) >= p:
                raise ValueError("generator entries out of range")
            gens.append(MatF(field, arr))
        mod = cls(p, k, field, gens, dim=n)
        validate(mod)
        return mod

    def save(self, path) -> None:
        # json.dumps encodes in C in one call; json.dump streams through the Python encoder
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        with open(path, "w") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "EAModule":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def validate(module: EAModule) -> EAModule:
    """Check pairwise commutation and X_i^p = 0; returns the module."""
    for i, g in enumerate(module.gens):
        if not g.mat_pow(module.p).is_zero():
            raise NotNilpotent(f"generator {i + 1} is not nilpotent of order <= p")
    for i in range(module.k):
        for j in range(i + 1, module.k):
            if module.gens[i] @ module.gens[j] != module.gens[j] @ module.gens[i]:
                raise NonCommuting(i + 1, j + 1)
    return module


def _nonzero_point(module: EAModule, alpha) -> Point:
    """alpha as a Point of the module's k-space; raises ZeroPoint at the origin."""
    pt = alpha if isinstance(alpha, Point) else Point.of(module.field, alpha)
    if pt.k != module.k:
        raise ValueError(f"point has {pt.k} coordinates, module rank is {module.k}")
    for c in pt.coords:
        if c.ctx != module.field:
            raise MismatchedContext("point coordinates over a different field")
    if pt.is_zero():
        raise ZeroPoint("x_alpha requires a nonzero point")
    return pt


def coefficients(points) -> np.ndarray:
    """The (N, k, m) coefficient array of N Points over one field, as jordan_types_at takes it."""
    return np.array([[c.coeffs for c in pt.coords] for pt in points], dtype=np.int64)


def x_alpha(module: EAModule, alpha) -> MatF:
    """The matrix of alpha_1 X_1 + ... + alpha_k X_k, by linalg.combine."""
    pt = _nonzero_point(module, alpha)
    gens = np.array([g.data for g in module.gens])
    return MatF(module.field, combine(module.field, coefficients([pt]), gens)[0])


def _point_bytes(field: FieldCtx, n: int) -> int:
    """Bytes that one point of a dim-n module adds to a jordan_types_at stack.

    Its nm x nm expansion in the product dtype, and four times the p-1
    (n, m, n) planes of its powers in the elimination dtype: the planes
    and the elimination's temporaries over them (gathered pivot
    multiples, updates).  Measured per-point tracemalloc peaks of
    one-stack calls are 0.56 to 1.22 times it, from D(1) at (3, 3) over
    F_27 to D(6) at (7, 2) over F_7, and 1.00 times it for D(2) at p = 3.
    """
    size = n * field.m
    planes = (field.p - 1) * n * size * elim_dtype(field.p, size).itemsize
    return size * size * product_dtype(field, n).itemsize + 4 * planes


def jordan_types_at(module: EAModule, coords: np.ndarray) -> list:
    """Jordan types of X_alpha at the points of an (N, k, m) coefficient array, a stack at a time.

    The one Jordan-type path for points: sweeps, samples and single
    points.  The F_p expansion of a*X_i is expand(X_i)(I (x) C(a)), C(a)
    the multiplication matrix of a, so a stack of X_alpha is built
    straight from the coefficients as sum_i expand(X_i)(I (x) C(alpha_i)):
    one batched product with inner dimension km, whose entries reach
    k m (p-1)^2, exact while k <= max_inner.  The stack is made once,
    in the product dtype that jordan_types multiplies in, and reduced
    there in place (linalg.float_mod), so jordan_types takes it as it
    is.  Stacks hold max(1, STACK_BYTES // _point_bytes(field, n))
    points, a number fixed by the module's dimension and field.
    """
    field, n, k = module.field, module.n, module.k
    m, p = field.m, field.p
    size = n * m
    _check_inner(field, k)
    dtype = product_dtype(field, max(n, k))
    # the m columns of every block column of expand(X_1), ..., expand(X_k)
    # side by side, to be multiplied by C(alpha_1), ..., C(alpha_k) stacked
    gens = [expand(field, g.data, dtype).reshape(size * n, m) for g in module.gens]
    gens = np.concatenate(gens, axis=1)
    blocks = field.regular().reshape(m, m * m)
    step = max(1, STACK_BYTES // (_point_bytes(field, n) or 1))
    types = []
    for start in range(0, len(coords), step):
        chunk = coords[start : start + step]
        mult = (chunk @ blocks % p).astype(dtype).reshape(len(chunk), k * m, m)
        stack = np.matmul(gens, mult).reshape(len(chunk), size, size)
        float_mod(stack, p)
        types += jordan_types(field, stack, p)
    return types


def point_jordan_type(module: EAModule, alpha) -> JordanType:
    """Jordan type of the nilpotent x_alpha action at a nonzero point: jordan_types_at on one row."""
    return jordan_types_at(module, coefficients([_nonzero_point(module, alpha)]))[0]


def is_free_at(module: EAModule, alpha) -> bool:
    """Whether the restriction to the cyclic shifted subgroup at alpha is free.

    Exact criterion: rank(X_alpha^{p-1}) = dim/p, equivalently the Jordan
    type is [p]^{dim/p}; always false when p does not divide dim.
    """
    pt = _nonzero_point(module, alpha)
    if module.n % module.p != 0:
        return False
    return module.n == 0 or x_alpha(module, pt).mat_pow(module.p - 1).rank() == module.n // module.p


def variety_contains(module: EAModule, alpha) -> bool:
    """Rank-variety membership; the zero point always belongs."""
    pt = alpha if isinstance(alpha, Point) else Point.of(module.field, alpha)
    return pt.is_zero() or not is_free_at(module, pt)


# -- constructions --


def trivial_module(p: int, k: int, field: FieldCtx) -> EAModule:
    if k == 0:
        return EAModule(p, 0, field, [], dim=1)
    return EAModule(p, k, field, [MatF.zeros(field, 1, 1) for _ in range(k)])


def lift_to_extension(module: EAModule, ext: FieldCtx) -> EAModule:
    """Re-interpret a module over F_{p^m} over an extension F_{p^m'}, m | m'.

    The generator w of the source maps to the least-code root r of its
    irr in ext, so an entry sum_i a_i w^i becomes sum_i a_i r^i; F_p
    entries embed as constant coefficients.  A lift from F_p declares
    Symmetry.FROBENIUS: with every entry in F_p, X at the p-th power of
    alpha is the entrywise p-th power of X_alpha, a field automorphism
    that keeps every rank.  Other lifts keep the module's symmetry.
    """
    src = module.field
    if src == ext:
        return module
    if ext.p != src.p or ext.m % src.m:
        raise MismatchedContext(f"cannot lift a module over {src!r} into {ext!r}")
    symmetry = module.symmetry
    if src.m == 1:
        symmetry |= Symmetry.FROBENIUS
        powers = [ext.one()]
    else:
        r = next(x for x in ext.elements()
                 if not sum((c * x ** i for i, c in enumerate(src.irr)), ext.zero()))
        powers = [r ** i for i in range(src.m)]
    embed = np.array([x.coeffs for x in powers], dtype=np.int64)
    gens = [MatF(ext, g.data @ embed) for g in module.gens]
    return EAModule(module.p, module.k, ext, gens, symmetry=symmetry)


def zero_module(p: int, k: int, field: FieldCtx) -> EAModule:
    return EAModule(p, k, field, [MatF.zeros(field, 0, 0) for _ in range(k)])


def direct_sum(m1: EAModule, m2: EAModule) -> EAModule:
    _check_pair(m1, m2)
    gens = [MatF.block_diag([a, b]) for a, b in zip(m1.gens, m2.gens)]
    return EAModule(m1.p, m1.k, m1.field, gens)


def tensor(m1: EAModule, m2: EAModule) -> EAModule:
    """Tensor product with the diagonal group action: X = u (x) u - 1."""
    _check_pair(m1, m2)
    eye = MatF.identity(m1.field, m1.n * m2.n)
    gens = []
    for u1, u2 in zip(m1.group_matrices(), m2.group_matrices()):
        gens.append(u1.kron(u2) - eye)
    return EAModule(m1.p, m1.k, m1.field, gens)


def dual(module: EAModule) -> EAModule:
    """Dual module: g acts by transpose of g^{-1}, so X* = (u^{-1})^T - 1."""
    eye = MatF.identity(module.field, module.n)
    gens = []
    for x in module.gens:
        # (1 + X)^{-1} = sum_{j<p} (-X)^j, a finite geometric series
        inv = eye
        term = eye
        for _ in range(module.p - 1):
            term = -(term @ x)
            inv = inv + term
        gens.append(inv.transpose() - eye)
    return EAModule(module.p, module.k, module.field, gens)


def wedge(module: EAModule, r: int) -> EAModule:
    """r-th exterior power, acting through the group matrices.

    The basis is the lexicographic list of r-subsets; generators are the
    r-th compound of u_i minus the identity.
    """
    if not 0 <= r <= module.n:
        raise ValueError(f"wedge degree {r} outside 0..{module.n}")
    if r == 0:
        return trivial_module(module.p, module.k, module.field)
    dim = math.comb(module.n, r)
    eye = MatF.identity(module.field, dim)
    gens = [compound_matrix(u, r) - eye for u in module.group_matrices()]
    return EAModule(module.p, module.k, module.field, gens)


def wedge_jordan(jt: JordanType, r: int, p: int) -> JordanType:
    """Exterior power of a Jordan type, computed by the matrix oracle.

    Takes the r-th compound of u = 1 + N, N the canonical nilpotent of
    the given type over F_p, and reads off the type of its difference
    with the identity.
    """
    if r > jt.total:
        raise ValueError("wedge degree exceeds total dimension")
    ctx = FieldCtx(p, 1, (0, 1))
    u = MatF.identity(ctx, jt.total) + canonical_nilpotent(ctx, jt)
    wedged = compound_matrix(u, r) - MatF.identity(ctx, math.comb(jt.total, r))
    return jordan_type_nilpotent(wedged, p)


def _check_pair(m1: EAModule, m2: EAModule) -> None:
    if m1.p != m2.p or m1.k != m2.k or m1.field != m2.field:
        raise MismatchedContext("modules disagree in (p, k, field)")


def _fp_matrix(field_p: FieldCtx, vectors) -> MatF:
    return MatF.from_rows(field_p, [[int(c) % field_p.p for c in v] for v in vectors])


def restrict_to_subgroup(module: EAModule, subgroup) -> EAModule:
    """Restrict to the subgroup generated by prod_i g_i^{w_ji}.

    subgroup is a list of s exponent vectors over F_p (entries 0..p-1),
    linearly independent over F_p.  The result has rank s with
    generators prod_i u_i^{w_ji} - 1.
    """
    rows = [tuple(int(c) % module.p for c in w) for w in subgroup]
    s = len(rows)
    if any(len(w) != module.k for w in rows):
        raise ValueError("exponent vectors must have length k")
    prime = FieldCtx(module.p, 1, (0, 1))
    if s == 0 or _fp_matrix(prime, rows).rank() != s:
        raise DependentGenerators("subgroup exponent vectors are dependent")
    eye = MatF.identity(module.field, module.n)
    us = module.group_matrices()
    gens = []
    for w in rows:
        acc = eye
        for i, e in enumerate(w):
            if e:
                acc = acc @ us[i].mat_pow(e)
        gens.append(acc - eye)
    return EAModule(module.p, s, module.field, gens)


def induce(module: EAModule, embed, ambient_rank: int = None) -> EAModule:
    """Induce from the rank-s subgroup E' cut out by the embed vectors.

    embed lists s independent exponent vectors of length k over F_p; the
    module must have rank s (its generators correspond to the embed
    vectors in order).  The construction realizes E = E' x E'' with E''
    spanned by standard vectors completing embed in echelon fashion, and
    the induced module as F[E''] tensor M.  For the trivial subgroup
    pass embed = [] together with ambient_rank = k.
    """
    rows = [tuple(int(c) % module.p for c in w) for w in embed]
    s = len(rows)
    if s != module.k:
        raise ValueError("module rank must match the number of embed vectors")
    if rows:
        k = len(rows[0])
        if ambient_rank is not None and ambient_rank != k:
            raise ValueError("ambient_rank contradicts the embed vector length")
    elif ambient_rank is None:
        raise ValueError("induction from the trivial subgroup needs ambient_rank")
    else:
        k = ambient_rank
    if any(len(w) != k for w in rows):
        raise ValueError("embed vectors must share one length")
    p = module.p
    prime = FieldCtx(p, 1, (0, 1))
    if s:
        _, pivots = _fp_matrix(prime, rows).rref()
        if len(pivots) != s:
            raise DependentGenerators("embed vectors are dependent over F_p")
    else:
        pivots = []
    complement = [j for j in range(k) if j not in set(pivots)]
    t = len(complement)

    # solve e_i = sum a_j w_j + sum b_j e_{c_j} over F_p for every i
    cols = [list(w) for w in rows] + [
        [1 if r == c else 0 for r in range(k)] for c in complement
    ]
    basis_mat = MatF.from_rows(prime, [[cols[j][r] for j in range(k)] for r in range(k)])
    # the coordinates of e_i are column i of the inverse
    binv = basis_mat.inv().data[:, :, 0]
    decomp = [(binv[:s, i].tolist(), binv[s:, i].tolist()) for i in range(k)]

    us = module.group_matrices()
    eye_big = MatF.identity(module.field, (p ** t) * module.n)
    eye = np.eye(p, dtype=np.int64)
    gens = []
    for i in range(k):
        a_vec, b_vec = decomp[i]
        # translation by b_vec on the base-p digits of an index: P^(b_j) on digit j, P the cyclic shift
        perm = reduce(np.kron, [np.roll(eye, b, axis=0) for b in b_vec], np.eye(1, dtype=np.int64))
        f_part = MatF.identity(module.field, module.n)
        for j, e in enumerate(a_vec):
            if e:
                f_part = f_part @ us[j].mat_pow(e)
        # perm has F_p entries, so its Kronecker product acts plane by plane
        gens.append(MatF(module.field, np.kron(perm[:, :, None], f_part.data)) - eye_big)
    return EAModule(p, k, module.field, gens)


def linear_variety_module(p: int, k: int, field: FieldCtx, span_vectors) -> EAModule:
    """A module of dimension p^{k-r} whose rank variety is the given span.

    span_vectors lists r vectors over the field, independent over the
    field; they become the first rows of a coordinate change C, and the
    module is the truncated polynomial algebra in the remaining k - r
    coordinates with X_i acting through the substitution.
    """
    if field.p != p:
        raise MismatchedContext("field characteristic differs from p")
    rows = [Point.of(field, v).coords for v in span_vectors]
    r = len(rows)
    if any(len(v) != k for v in rows):
        raise ValueError("span vectors must have length k")
    if r > 0:
        wmat = MatF.from_rows(field, [list(v) for v in rows])
        _, pivots = wmat.rref()
        if len(pivots) != r:
            raise DependentGenerators("span vectors are dependent over the field")
    else:
        pivots = []
    complement = [j for j in range(k) if j not in set(pivots)]
    c_rows = [list(v) for v in rows] + [
        [1 if j == c else 0 for j in range(k)] for c in complement
    ]
    c_mat = MatF.from_rows(field, c_rows)
    c_inv = c_mat.inv()

    t = k - r
    # multiplication by variable ell: the subdiagonal shift S on digit ell of
    # an index, kept in coefficient plane 0
    eye = [np.eye(p ** e, dtype=np.int64) for e in range(t)]
    shift = np.eye(p, k=-1, dtype=np.int64)
    mults = np.array([reduce(np.kron, [eye[ell], shift, eye[t - ell - 1]]) for ell in range(t)])
    mults = mults.reshape(t, p ** t, p ** t, 1) * np.eye(1, field.m, dtype=np.int64)
    return EAModule(p, k, field, [MatF(field, g) for g in combine(field, c_inv.data[:, r:], mults)])


def regular_module(p: int, k: int, field: FieldCtx) -> EAModule:
    """The group algebra F E as a module over itself (dimension p^k)."""
    return linear_variety_module(p, k, field, [])


def projective_test(module: EAModule):
    """(is_projective, free_summands) via the socle-rank criterion.

    free_summands is the rank of z = X_1^{p-1} ... X_k^{p-1}, the sum of
    all group elements; the module is free iff that accounts for the
    whole dimension.
    """
    if module.n == 0:
        return True, 0
    z = MatF.identity(module.field, module.n)
    for x in module.gens:
        z = z @ x.mat_pow(module.p - 1)
        if z.is_zero():
            break
    free = z.rank()
    return free * module.p ** module.k == module.n, free


def _wide_and_tall(module: EAModule):
    """[X_1 | ... | X_k] (n x kn) and the X_i stacked (kn x n)."""
    n, k, m = module.n, module.k, module.field.m
    gens = np.array([x.data for x in module.gens], dtype=np.int64).reshape(k, n, n, m)
    return (MatF(module.field, gens.transpose(1, 0, 2, 3).reshape(n, k * n, m)),
            MatF(module.field, gens.reshape(k * n, n, m)))


def _top_and_socle(module: EAModule):
    """(dim top, dim socle): n - rank [X_1 | ... | X_k] and n - rank of the X_i stacked."""
    wide, tall = _wide_and_tall(module)
    return module.n - wide.rank(), module.n - tall.rank()


def _top_generators(module: EAModule) -> np.ndarray:
    """The j whose standard vectors e_j generate the module, ascending.

    They are the pivots of [X_1 | ... | X_k | I] past its kn columns: the
    e_j span a complement of the radical, the column space of
    [X_1 | ... | X_k], so by Nakayama they generate M, and there are
    dim top of them.
    """
    wide, _ = _wide_and_tall(module)
    eye = MatF.identity(module.field, module.n)
    _, pivots = MatF(module.field, np.concatenate([wide.data, eye.data], axis=1)).rref()
    return np.array([j - wide.cols for j in pivots if j >= wide.cols], dtype=np.intp)


def _spin(module: EAModule, generators: np.ndarray):
    """Spin the generators g_j = e_{generators[j]} to a basis S of M.

    Returns (S, words, owner, tree).  Column u of S is W_u g_owner[u] for
    a word W_u in the X_i, and words[:, u] is W_u.  tree[i, v] says that
    X_i S[:, v] was kept as a column of S.  Each level applies every X_i
    to the words the last level kept and keeps the candidates that are
    independent of the columns before them.
    """
    field, n, m, k = module.field, module.n, module.field.m, module.k
    _, stacked = _wide_and_tall(module)
    words = np.zeros((n, generators.size, n, m), dtype=np.int64)
    words[:, :, :, 0] = np.eye(n, dtype=np.int64)[:, None]
    owner = np.arange(generators.size)
    basis = words[:, owner, generators]
    tree = np.zeros((k, n), dtype=bool)
    frontier = owner
    while frontier.size and owner.size < n:
        f, b = frontier.size, owner.size
        # candidate i f + v is X_i times the word of frontier[v]
        spun = stacked @ MatF(field, words[:, frontier].reshape(n, f * n, m))
        spun = spun.data.reshape(k, n, f, n, m).transpose(1, 0, 2, 3, 4).reshape(n, k * f, n, m)
        spun_owner = np.tile(owner[frontier], k)
        candidates = spun[:, np.arange(k * f), generators[spun_owner]]
        _, pivots = MatF(field, np.concatenate([basis, candidates], axis=1)).rref()
        kept = np.array(pivots[b:], dtype=np.intp) - b
        tree[kept // f, frontier[kept % f]] = True
        words = np.concatenate([words, spun[:, kept]], axis=1)
        owner = np.concatenate([owner, spun_owner[kept]])
        basis = np.concatenate([basis, candidates[:, kept]], axis=1)
        frontier = np.arange(b, owner.size)
    return MatF(field, basis), words, owner, tree


def endomorphism_basis(module: EAModule):
    """Basis of the commutant End(M) = {Y : Y X_i = X_i Y for all i}, by spinning.

    An endomorphism Y is fixed by the images y_j = Y g_j of the dim top
    generators g_j (_top_generators).  Spun to a basis S with words W_u
    (_spin), Y S[:, u] = W_u y_o(u), and with A_i = S^-1 X_i S the
    condition Y X_i = X_i Y is one relation per column v of Y X_i S:

        sum_u (A_i)_uv W_u y_o(u) - X_i W_v y_o(v) = 0,

    n equations in the t n unknowns y.  The relations (i, v) of the
    spanning tree hold by construction and are left out.  The others'
    nonzero rows go tn at a time: each block's image on the solutions
    found so far is at most square, and its kernel cuts them down.  Each
    solution gives Y = [W_u y_o(u)]_u S^-1.  The basis is canonical, a
    function of End(M) alone: the rows of the RREF of the flattened n^2
    vectors, except row 0, whose pivot is entry (0, 0), which the
    identity replaces.
    """
    field, n, m, k = module.field, module.n, module.field.m, module.k
    if n == 0:
        return []
    generators = _top_generators(module)
    t = generators.size
    s_mat, words, owner, tree = _spin(module, generators)
    s_inv = s_mat.inv()
    _, stacked = _wide_and_tall(module)
    # [A_1 | ... | A_k], A_i = S^-1 X_i S
    xs = (stacked @ s_mat).data.reshape(k, n, n, m).transpose(1, 0, 2, 3).reshape(n, k * n, m)
    a = (s_inv @ MatF(field, xs)).data
    # relation q = (i, v) off the spanning tree, column i n + v of [A_1 | ... | A_k]
    rel_i, rel_v = np.divmod(np.flatnonzero(~tree.reshape(-1)), n)
    q = rel_i.size
    # sum_u (A_i)_uv W_u, with W_u in block column owner[u]: row u of A moves there
    a_owned = np.zeros((n, t, q, m), dtype=np.int64)
    a_owned[np.arange(n), owner] = a[:, rel_i * n + rel_v]
    words_rb = MatF(field, words.transpose(0, 2, 1, 3).reshape(n * n, n, m))
    rel = (words_rb @ MatF(field, a_owned.reshape(n, t * q, m))).data
    rel = rel.reshape(n, n, t, q, m).transpose(3, 0, 2, 1, 4).copy()  # [q, row, j, column]
    # minus X_i W_v in block column owner[v]
    xw = (stacked @ MatF(field, words.reshape(n, n * n, m))).data.reshape(k, n, n, n, m)
    rel[np.arange(q), :, owner[rel_v]] -= xw[rel_i, :, rel_v]
    rows = rel.reshape(q * n, t * n, m)
    rows = rows[rows.any(axis=(1, 2))]
    first, *rest = np.split(rows, range(t * n, len(rows), t * n))
    solutions = MatF(field, MatF(field, first).kernel_array())  # rows: the y found so far
    for block in rest:
        image = MatF(field, block) @ solutions.transpose()
        if not image.is_zero():
            solutions = MatF(field, image.kernel_array()) @ solutions
    d = solutions.rows
    z = np.empty((n, n, d, m), dtype=np.int64)  # [row, u, solution]
    for j in range(t):
        u = np.flatnonzero(owner == j)
        y = MatF(field, solutions.data[:, j * n : (j + 1) * n].transpose(1, 0, 2))
        z[:, u] = (MatF(field, words[:, u].reshape(n * u.size, n, m)) @ y).data.reshape(
            n, u.size, d, m)
    flat = MatF(field, z.transpose(2, 0, 1, 3).reshape(d * n, n, m)) @ s_inv
    reduced, pivots = MatF(field, flat.data.reshape(d, n * n, m)).rref()
    assert pivots[0] == 0
    return [MatF.identity(field, n)] + [MatF(field, row.reshape(n, n, m))
                                        for row in reduced.data[1:]]


@dataclass
class FittingResult:
    summands: list
    status: str  # "decomposed" or "no_split_found"
    trials: int

    @property
    def decomposed(self) -> bool:
        return self.status == "decomposed"


def _fitting(t: MatF):
    """Fitting's lemma for t: the columns [ker t^n | im t^n] and dim ker t^n.

    The space is the direct sum of the two, and both are submodules when
    t commutes with the generators.
    """
    power = t.mat_pow(t.rows)
    reduced, pivots = power.rref()
    kernel = null_space(t.ctx, reduced.data, pivots)
    cols = np.concatenate([kernel.transpose(1, 0, 2), power.data[:, pivots]], axis=1)
    return cols, kernel.shape[0]


def _character(theta: MatF, d: int) -> MatF:
    """theta^((q^d-1)/2) - 1 (odd q), or the trace sum of theta^(2^i), i < dm (even q).

    On an eigenvalue in F_{q^d} it is nilpotent exactly when the
    eigenvalue is a nonzero square (odd q) or has absolute trace 0
    (even q).
    """
    field = theta.ctx
    if field.p != 2:
        return theta.mat_pow((field.q ** d - 1) // 2) - MatF.identity(field, theta.rows)
    trace = power = theta
    for _ in range(d * field.m - 1):
        power = power @ power
        trace = trace + power
    return trace


def _fitting_split(theta: MatF):
    """The first nontrivial Fitting split along a polynomial in theta, or None.

    psi_d = theta^(q^d) - theta is nilpotent exactly on the generalized
    eigenspaces whose eigenvalues lie in F_{q^d}, so its split separates
    those from the rest.  The first d with a nonzero kernel is the least
    eigenvalue degree (at most n); if psi_d is nilpotent there, every
    eigenvalue lies in F_{q^d}, and the last tries are the character of
    theta and theta itself, which separates the eigenvalue 0.
    """
    n = theta.rows
    frob = theta
    for d in range(1, n + 1):
        frob = frob.mat_pow(theta.ctx.q)
        cols, dim = _fitting(frob - theta)
        if dim == n:
            break
        if dim:
            return cols, dim
    for t in (_character(theta, d), theta):
        cols, dim = _fitting(t)
        if 0 < dim < n:
            return cols, dim
    return None


def _try_split(module: EAModule, trials: int, stream: CounterStream):
    """Split the module in two along a random commutant element, or None.

    A module whose top or socle has dimension at most 1 is returned as
    None before any commutant or theta is computed: top and socle are
    additive over direct sums and nonzero on every nonzero summand
    (Nakayama; a p-group fixes a nonzero vector), so a 1-dimensional one
    proves the module indecomposable.  Otherwise up to `trials` thetas are
    drawn from the commutant basis and split by _fitting_split.
    """
    if min(_top_and_socle(module)) <= 1:
        return None
    basis = endomorphism_basis(module)
    if len(basis) <= 1:
        return None
    field = module.field
    stack = np.array([b.data for b in basis])
    for _ in range(trials):
        draws = np.array([field.from_code(stream.below(field.q)) for _ in basis], dtype=np.int64)
        theta = MatF(field, combine(field, draws[None], stack)[0])
        split = _fitting_split(theta)
        if split is None:
            continue
        cols, da = split
        basis_change = MatF(field, cols)
        inv = basis_change.inv()
        gens_a, gens_b = [], []
        for x in module.gens:
            conj = inv @ x @ basis_change
            assert not conj.data[da:, :da].any() and not conj.data[:da, da:].any()
            gens_a.append(MatF(field, conj.data[:da, :da].copy()))
            gens_b.append(MatF(field, conj.data[da:, da:].copy()))
        part_a = EAModule(module.p, module.k, field, gens_a, dim=da)
        part_b = EAModule(module.p, module.k, field, gens_b, dim=module.n - da)
        return part_a, part_b
    return None


def fitting_decompose(module: EAModule, trials: int = 60, seed: int = 7) -> FittingResult:
    """Split into direct summands via random commutant elements.

    A piece with a top or socle of dimension at most 1 is proved
    indecomposable and kept as it is, with no draws.  Every other piece
    draws up to `trials` random endomorphisms theta from a counter-based
    stream keyed by seed, splits at the first polynomial in theta whose
    Fitting decomposition ker t^n + im t^n is nontrivial (see
    _fitting_split) and recurses on both parts.  For such a piece
    "no_split_found" is evidence, not proof, of indecomposability.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stream = CounterStream(seed)
    pending = [module]
    final = []
    while pending:
        piece = pending.pop(0)
        split = _try_split(piece, trials, stream)
        if split is None:
            final.append(piece)
        else:
            pending = [split[0], split[1]] + pending
    status = "decomposed" if len(final) > 1 else "no_split_found"
    return FittingResult(final, status, trials)
