"""Modules over group algebras of elementary abelian p-groups.

An EAModule is k pairwise-commuting nilpotent generator matrices
X_1..X_k (the images of g_i - 1) over one FieldCtx, with X_i^p = 0.
This module hosts all module-level constructions: sums, tensors,
duals, exterior powers, restriction, induction, linear-variety
modules, the exact projectivity test, endomorphism (commutant) bases,
whose array stages live in the commutant module, and the randomized
Fitting decomposition.  Every Jordan type, at a point or of one
matrix, comes from jordan_types_at, after validate.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .commutant import (
    _assembled,
    _canonical_basis,
    _check_size,
    _common_kernel,
    _corner_basis,
    _relation_rows,
    _spin,
)
from .gf import FieldCtx, ZeroPoint, arr_mul, json_int
from .linalg import (
    BrokenInvariant,
    JordanType,
    MatF,
    _check_inner,
    _jordan_types,
    _planes,
    _ranks,
    canonical_nilpotent,
    combine,
    compound_matrix,
    elim_dtype,
    expand,
    float_mod,
    null_space,
    product_dtype,
    rref_planes,
)
from .stream import CounterStream

# peak bytes of one jordan_types_at stack, at _point_bytes a point in each phase
STACK_BYTES = 1 << 20
# lift_to_extension evaluates the source irreducible at this many codes at once
ROOT_BLOCK = 1 << 12


class NotNilpotent(ValueError):
    """Raised by validate when some X_i^p is nonzero."""


class NonCommuting(ValueError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"generators {i} and {j} do not commute")


class MismatchedContext(ValueError):
    """Raised when combining modules over different (p, k, field)."""


class DependentGenerators(ValueError):
    """Raised when subgroup/embedding vectors are linearly dependent."""


class Symmetry(enum.Flag):
    """Maps of the points that keep a module's Jordan type.

    FROBENIUS: alpha and its coordinatewise p-th power have one type; it
    holds when every generator entry lies in F_p, and no constructor
    declares it: variety_points reads it off the entries.
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

    symmetry is what the constructor vouches for (see Symmetry), for
    point sweeps; proven, that the relations hold (validate sets it; the
    lift, direct sums and split parts pass it on).  Equality ignores both.
    """

    __slots__ = ("p", "k", "n", "field", "gens", "symmetry", "proven")

    def __init__(self, p: int, k: int, field: FieldCtx, gens, dim: int = None,
                 symmetry: Symmetry = Symmetry.NONE, proven: bool = False):
        gens = tuple(gens)
        if len(gens) != k:
            raise ValueError(f"expected {k} generators, got {len(gens)}")
        if not gens and dim is None:
            raise ValueError("a module without generators needs its dim")
        n = gens[0].rows if gens else dim
        if dim is not None and dim != n:
            raise ValueError("explicit dim contradicts generator size")
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
        self.proven = proven

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


def _gen_stack(module: EAModule) -> np.ndarray:
    """X_1..X_k as a (k, n, n, m) view of C-contiguous (k, m, n, n) planes in product_dtype(field, k).

    combine copies nothing of a stack so laid out, so a caller that
    combines the generators many times lays them out once.
    """
    k, n, m = module.k, module.n, module.field.m
    planes = np.array([g.data.transpose(2, 0, 1) for g in module.gens], dtype=product_dtype(module.field, k))
    return planes.reshape(k, m, n, n).transpose(0, 2, 3, 1)


def validate(module: EAModule) -> EAModule:
    """Check X_i^p = 0 and pairwise commutation, and mark the module proven; returns it.

    X_i^p is p-1 batched products on the expansions' block columns 0 and,
    when k > 1, every X_i X_j one product, the X_i stacked times [X_1 |
    ... | X_k].
    In characteristic p, (sum_i a_i X_i)^p = sum_i a_i^p X_i^p = 0 then,
    at every point a over every extension.
    """
    field, n, k, m = module.field, module.n, module.k, module.field.m
    if n and k:
        _check_inner(field, n)
        expanded = expand(field, _gen_stack(module))
        power = expanded[..., ::m]
        for _ in range(module.p - 1):
            power = float_mod(np.matmul(expanded, power), field.p)
        bad = np.flatnonzero(power.any(axis=(1, 2)))
        if bad.size:
            raise NotNilpotent(f"generator {bad[0] + 1} is not nilpotent of order <= p")
    if n and k > 1:
        wide, tall = _wide_and_tall(module)
        products = (tall @ wide).data.reshape(k, n, k, n, m)  # [i, :, j] is X_i X_j
        for i in range(k):
            for j in range(i + 1, k):
                if not np.array_equal(products[i, :, j], products[j, :, i]):
                    raise NonCommuting(i + 1, j + 1)
    module.proven = True
    return module


def _nonzero_point(module: EAModule, alpha) -> np.ndarray:
    """The (1, k, m) coefficient row of alpha (FieldCtx.coerce), as jordan_types_at takes it.

    Raises ZeroPoint at the origin, and ValueError unless alpha has k
    coordinates of the module field's m coefficients each.
    """
    row = module.field.coerce(alpha, 1)
    if len(row) != module.k:
        raise ValueError(f"point has {len(row)} coordinates, module rank is {module.k}")
    if not row.any():
        raise ZeroPoint("x_alpha requires a nonzero point")
    return row[None]


def x_alpha(module: EAModule, alpha) -> MatF:
    """The matrix of alpha_1 X_1 + ... + alpha_k X_k, by linalg.combine."""
    return MatF(module.field, combine(module.field, _nonzero_point(module, alpha), _gen_stack(module))[0])


def _point_bytes(field: FieldCtx, n: int, expanded: bool = True) -> int:
    """Bytes that one point of a dim-n module adds to a jordan_types_at stack.

    Phase one: N's (n, n, m) planes in the product dtype and four times
    them in the elimination's.  Phase two (expanded) holds the nm x nm
    expansion of N and planes as large as N's (N's own in expand, then
    the columns of a power), and in the elimination four times the (n,
    m, n) planes of the powers it eliminates: N^2, ..., N^(p-1) when p
    divides n (phase one took N), else N, ..., N^(p-1).  float_mod's
    quotient is one fixed block, not a point's.  Peaks of one full stack
    were 0.64-0.74 (phase one; 1.09 at one dim-171 point) and 0.57-0.89
    times it.
    """
    size, p = n * field.m, field.p
    planes = n * size * product_dtype(field, n).itemsize
    fours = 4 * n * size * elim_dtype(p, size).itemsize
    if not expanded:
        return planes + fours
    return planes * (field.m + 1) + (p - 1 - (n % p == 0)) * fours


def jordan_types_at(module: EAModule, coords: np.ndarray) -> list:
    """Jordan types of X_alpha at the points of an (N, k, m) coefficient array, a stack at a time.

    The one Jordan-type path for points: sweeps, samples and single
    points.  An unproven module is validated once, so no point needs the
    N^p = 0 check.  N at a stack of points is one combine of the
    generators, laid out once a call.  When p divides n, phase one
    eliminates N's planes at every point and types free the points with
    rank N = n(p-1)/p: once N^p = 0, rank N is n minus the number of
    blocks, n/p only when every block has size p, and then rank N^e =
    n(p-e)/p.  Phase two types the rest, or all points when p does not
    divide n, by _jordan_types on the expand of their N and their ranks
    of N.  A phase's stacks hold STACK_BYTES // _point_bytes(field, n,
    expanded) points; no name holds one while the next is formed.
    """
    field, n, p = module.field, module.n, module.p
    if not module.proven:
        validate(module)
    types = [JordanType(p, (0,) * (p - 1) + (n // p,))] * len(coords)
    rest, rank_n = np.arange(len(coords)), None
    gens = _gen_stack(module)
    if n % p == 0:
        step = max(1, STACK_BYTES // (_point_bytes(field, n, False) or 1))
        rank_n = np.empty(len(coords), dtype=np.int64)
        for start in range(0, len(coords), step):
            planes = combine(field, coords[start : start + step], gens).transpose(0, 1, 3, 2)
            rank_n[start : start + step] = _ranks(field, planes.astype(elim_dtype(p, n * field.m), order="C"))
            del planes
        rest = np.flatnonzero(rank_n * p != n * (p - 1))
    step = max(1, STACK_BYTES // (_point_bytes(field, n) or 1))
    for start in range(0, rest.size, step):
        at = rest[start : start + step]
        known = None if rank_n is None else rank_n[at]
        found = _jordan_types(field, expand(field, combine(field, coords[at], gens)), p, known)
        for i, jt in zip(at.tolist(), found):
            types[i] = jt
    return types


def point_jordan_type(module: EAModule, alpha) -> JordanType:
    """Jordan type of the nilpotent x_alpha action at a nonzero point: jordan_types_at on one row."""
    return jordan_types_at(module, _nonzero_point(module, alpha))[0]


def is_free_at(module: EAModule, alpha) -> bool:
    """Whether the restriction to the cyclic shifted subgroup at alpha is free.

    Exact criterion: rank(X_alpha^{p-1}) = dim/p, equivalently the Jordan
    type is [p]^{dim/p}; always false when p does not divide dim.
    """
    _nonzero_point(module, alpha)
    n, p = module.n, module.p
    return n % p == 0 and (n == 0 or x_alpha(module, alpha).mat_pow(p - 1).rank() == n // p)


# -- constructions --


def trivial_module(p: int, k: int, field: FieldCtx) -> EAModule:
    if k == 0:
        return EAModule(p, 0, field, [], dim=1)
    return EAModule(p, k, field, [MatF.zeros(field, 1, 1) for _ in range(k)])


def lift_to_extension(module: EAModule, ext: FieldCtx) -> EAModule:
    """Re-interpret a module over F_{p^m} over an extension F_{p^m'}, m | m'.

    The generator w of the source maps to the least-code root r of its
    irr in ext, so an entry sum_i a_i w^i becomes sum_i a_i r^i; F_p
    entries embed as constant coefficients.  The irr is evaluated by
    Horner's rule at ROOT_BLOCK codes at a time, up to the first block
    that holds a root.  The lift keeps the module's proof and declared
    symmetry and adds none: a lift from F_p has every entry in F_p, and
    variety_points reads Frobenius off the entries.
    """
    src = module.field
    if src == ext:
        return module
    if ext.p != src.p or ext.m % src.m:
        raise MismatchedContext(f"cannot lift a module over {src!r} into {ext!r}")
    embed = np.eye(1, ext.m, dtype=np.int64)  # row i: the coefficients of r^i
    if src.m > 1:
        for low in range(0, ext.q, ROOT_BLOCK):
            x = ext.from_codes(np.arange(low, min(low + ROOT_BLOCK, ext.q)))
            value = np.zeros_like(x)
            for c in reversed(src.irr):
                value = arr_mul(ext, value, x)
                value[:, 0] = (value[:, 0] + c) % ext.p
            roots = np.flatnonzero(~value.any(axis=1))
            if roots.size:
                break
        for _ in range(1, src.m):
            embed = np.concatenate([embed, arr_mul(ext, embed[-1:], x[roots[0]])])
    gens = [MatF(ext, g.data @ embed) for g in module.gens]
    return EAModule(module.p, module.k, ext, gens, module.n, module.symmetry, module.proven)


def direct_sum(m1: EAModule, m2: EAModule) -> EAModule:
    _check_pair(m1, m2)
    gens = [MatF.block_diag([a, b]) for a, b in zip(m1.gens, m2.gens)]
    return EAModule(m1.p, m1.k, m1.field, gens, m1.n + m2.n, proven=m1.proven and m2.proven)


def tensor(m1: EAModule, m2: EAModule) -> EAModule:
    """Tensor product with the diagonal group action: X = u (x) u - 1."""
    _check_pair(m1, m2)
    eye = MatF.identity(m1.field, m1.n * m2.n)
    gens = []
    for u1, u2 in zip(m1.group_matrices(), m2.group_matrices()):
        gens.append(u1.kron(u2) - eye)
    return EAModule(m1.p, m1.k, m1.field, gens, eye.rows)


def dual(module: EAModule) -> EAModule:
    """Dual module: g acts by transpose of g^{-1}, so X* = (u^{-1})^T - 1."""
    eye = MatF.identity(module.field, module.n)
    gens = []
    for x in module.gens:
        # (1 + X)^{-1} = sum_{j<p} (-X)^j, a finite geometric series
        inv = term = eye
        for _ in range(module.p - 1):
            term = -(term @ x)
            inv = inv + term
        gens.append(inv.transpose() - eye)
    return EAModule(module.p, module.k, module.field, gens, module.n)


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
    return EAModule(module.p, module.k, module.field, gens, dim)


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


def jordan_type_nilpotent(n_mat: MatF, p: int) -> JordanType:
    """Jordan type of a nilpotent matrix: that of the rank-1 module it generates, at the point 1."""
    return point_jordan_type(EAModule(p, 1, n_mat.ctx, [n_mat]), [1])


def _check_pair(m1: EAModule, m2: EAModule) -> None:
    if m1.p != m2.p or m1.k != m2.k or m1.field != m2.field:
        raise MismatchedContext("modules disagree in (p, k, field)")


def _completed_inverse(field: FieldCtx, rows, k: int, name: str) -> MatF:
    """MatF.completed_inverse of the rows over the field; DependentGenerators names the `name` vectors."""
    rows = MatF.from_rows(field, rows).data.reshape(len(rows), k, field.m)
    try:
        return MatF(field, rows).completed_inverse()
    except ZeroDivisionError:
        raise DependentGenerators(f"{name} vectors are dependent over F_{field.q}") from None


def _group_word(us, exponents, eye: MatF) -> MatF:
    """prod_i u_i^(e_i) for the group matrices us and F_p exponents e, eye the identity."""
    return reduce(MatF.__matmul__, [u.mat_pow(e) for u, e in zip(us, exponents) if e], eye)


def restrict_to_subgroup(module: EAModule, subgroup) -> EAModule:
    """Restrict to the subgroup generated by prod_i g_i^{w_ji}.

    subgroup is a list of s exponent vectors over F_p (entries 0..p-1),
    linearly independent over F_p.  The result has rank s with
    generators prod_i u_i^{w_ji} - 1.
    """
    rows = [tuple(int(c) % module.p for c in w) for w in subgroup]
    if any(len(w) != module.k for w in rows):
        raise ValueError("exponent vectors must have length k")
    if not rows:
        raise DependentGenerators("subgroup exponent vectors are dependent")
    _completed_inverse(FieldCtx(module.p, 1, (0, 1)), rows, module.k, "subgroup exponent")
    eye = MatF.identity(module.field, module.n)
    us = module.group_matrices()
    return EAModule(module.p, len(rows), module.field, [_group_word(us, w, eye) - eye for w in rows])


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
    # e_i = sum_j a_j w_j + sum_j b_j e_(c_j) over F_p, (a, b) row i of the inverse
    coords = _completed_inverse(FieldCtx(p, 1, (0, 1)), rows, k, "embed").data[:, :, 0].tolist()

    us = module.group_matrices()
    eye_module = MatF.identity(module.field, module.n)
    eye_big = MatF.identity(module.field, p ** (k - s) * module.n)
    eye = np.eye(p, dtype=np.int64)
    gens = []
    for row in coords:
        a_vec, b_vec = row[:s], row[s:]
        # translation by b_vec on the base-p digits of an index: P^(b_j) on digit j, P the cyclic shift
        perm = reduce(np.kron, [np.roll(eye, b, axis=0) for b in b_vec], np.eye(1, dtype=np.int64))
        f_part = _group_word(us, a_vec, eye_module)
        # perm has F_p entries, so its Kronecker product acts plane by plane
        gens.append(MatF(module.field, np.kron(perm[:, :, None], f_part.data)) - eye_big)
    return EAModule(p, k, module.field, gens, eye_big.rows)


def linear_variety_module(p: int, k: int, field: FieldCtx, span_vectors) -> EAModule:
    """A module of dimension p^{k-r} whose rank variety is the given span.

    span_vectors lists r vectors of k elements (FieldCtx.coerce reads
    them), independent over the field; they become the first rows of a
    coordinate change C, and the module is the truncated polynomial
    algebra in the remaining k - r coordinates with X_i acting through
    the substitution.
    """
    if field.p != p:
        raise MismatchedContext("field characteristic differs from p")
    r = len(span_vectors)
    if any(len(v) != k for v in span_vectors):
        raise ValueError("span vectors must have length k")
    c_inv = _completed_inverse(field, span_vectors, k, "span")

    t = k - r
    # multiplication by variable ell: the subdiagonal shift S on digit ell of
    # an index, kept in coefficient plane 0
    eye = [np.eye(p ** e, dtype=np.int64) for e in range(t)]
    shift = np.eye(p, k=-1, dtype=np.int64)
    mults = np.array([reduce(np.kron, [eye[ell], shift, eye[t - ell - 1]]) for ell in range(t)])
    mults = mults.reshape(t, p ** t, p ** t, 1) * np.eye(1, field.m, dtype=np.int64)
    return EAModule(p, k, field, [MatF(field, g) for g in combine(field, c_inv.data[:, r:], mults)], p ** t)


def regular_module(p: int, k: int, field: FieldCtx) -> EAModule:
    """The group algebra F E as a module over itself (dimension p^k)."""
    return linear_variety_module(p, k, field, [])


def projective_test(module: EAModule):
    """(is_projective, free_summands) via the socle-rank criterion.

    free_summands is the rank of z = X_1^{p-1} ... X_k^{p-1}, the sum of
    all group elements; the module is free iff that accounts for the
    whole dimension.  A rank-0 module is free over the trivial group:
    (True, n), with no I_n formed.
    """
    if module.n == 0 or module.k == 0:
        return True, module.n
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
    gens = _gen_stack(module)
    return (MatF(module.field, gens.transpose(1, 0, 2, 3).reshape(n, k * n, m)),
            MatF(module.field, gens.reshape(k * n, n, m)))


def _top_and_socle(module: EAModule):
    """(dim top, dim socle): n - rank [X_1 | ... | X_k] and n - rank [X_1^T | ... | X_k^T].

    The socle is the common kernel of the X_i, the kernel of the X_i
    stacked, whose transpose is the second matrix; both ranks are one
    elimination of the two as a stack.  At k = 0 both are n, with no
    elimination (and no array of n entries).
    """
    if not module.k:
        return module.n, module.n
    field = module.field
    wide, tall = _wide_and_tall(module)
    work = np.concatenate([_planes(field, wide.data), _planes(field, tall.transpose().data)])
    return tuple((module.n - _ranks(field, work)).tolist())


def _conjugated(module: EAModule, inv: MatF, change: MatF) -> np.ndarray:
    """[inv X_1 change | ... | inv X_k change] as an (n, k n, m) array: two products for all k."""
    n, k, m = module.n, module.k, module.field.m
    _, stacked = _wide_and_tall(module)
    moved = (stacked @ change).data.reshape(k, n, n, m).transpose(1, 0, 2, 3).reshape(n, k * n, m)
    return (inv @ MatF(module.field, moved)).data


def _top_generators(module: EAModule) -> np.ndarray:
    """The j whose standard vectors e_j generate the module, ascending.

    They are the pivots of [X_1 | ... | X_k | I] past its kn columns: the
    e_j span a complement of the radical, the column space of
    [X_1 | ... | X_k], so by Nakayama they generate M, and there are
    dim top of them.  The matrix is laid out as elimination planes
    directly, in the narrow dtype.
    """
    field, n, kn = module.field, module.n, module.k * module.n
    work = np.zeros((n, field.m, kn + n), dtype=elim_dtype(field.p, (kn + n) * field.m))
    work[:, :, :kn] = _wide_and_tall(module)[0].data.transpose(0, 2, 1)
    work[np.arange(n), 0, kn + np.arange(n)] = 1
    pivots = np.array(rref_planes(field, work)[1], dtype=np.intp)
    return pivots[pivots >= kn] - kn


def endomorphism_basis(module: EAModule):
    """Basis of the commutant End(M) = {Y : Y X_i = X_i Y for all i}, by spinning.

    An endomorphism Y is fixed by the images y_j = Y g_j of the dim top
    generators g_j (_top_generators).  Spun to a basis S with words W_u
    (_spin), Y S[:, u] = W_u y_o(u), and with A_i = S^-1 X_i S the
    condition Y X_i = X_i Y is one relation per column v of Y X_i S:

        sum_u (A_i)_uv W_u y_o(u) - X_i W_v y_o(v) = 0,

    n equations in the t n unknowns y.  The relations (i, v) of the
    spanning tree hold by construction and are left out.  The others are
    built a chunk at a time and their nonzero rows go t n at a time
    (_relation_rows, _common_kernel), and the solutions' Y are assembled
    a block at a time (_assembled), so memory stays near the (n, n, m,
    n) word cube, in the narrowest integer dtype, the solutions and the
    basis (commutant_bytes); past COMMUTANT_CAP the commutant is refused
    before the spin, and before _top_generators at the least t it can
    have (1, or n at k = 0), as commutant_bytes grows with t.  Each
    solution gives Y = [W_u y_o(u)]_u S^-1.  The basis is canonical, a
    function of End(M) alone (_canonical_basis).
    """
    field, n = module.field, module.n
    if n == 0:
        return []
    _check_size(field, n, 1 if module.k else n)
    generators = _top_generators(module)
    t = generators.size
    _check_size(field, n, t)
    gens_exp = expand(field, _gen_stack(module))
    s_mat, words, owner, tree = _spin(field, _wide_and_tall(module)[1], generators, gens_exp)
    s_inv = s_mat.inv()
    a = _conjugated(module, s_inv, s_mat)  # [A_1 | ... | A_k], A_i = S^-1 X_i S
    solutions = _common_kernel(field, _relation_rows(field, a, words, owner, tree, gens_exp), t * n, n)
    del gens_exp, a
    work = _assembled(field, solutions, words, owner, s_inv)
    del solutions, words
    basis = _canonical_basis(field, work, n)
    del work
    return [MatF(field, y) for y in basis]


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
    t commutes with the generators.  A zero t^n gives the identity
    columns without an elimination.
    """
    power = t.mat_pow(t.rows)
    if power.is_zero():
        return MatF.identity(t.ctx, t.rows).data, t.rows
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


def _try_split(module: EAModule, trials: int, stream: CounterStream, corner=None, top_socle=None):
    """Split the module in two along a random commutant element, or return None.

    A split is ((A, corner of A, top_socle of A), (B, ...)), top_socle
    being (dim top, dim socle), computed (_top_and_socle) when None.  A
    top or socle of dimension at most 1 proves the module indecomposable
    (both are additive over direct sums and nonzero on every nonzero
    summand: Nakayama, and a p-group fixes a nonzero vector), so None is
    returned before any commutant is formed.  The commutant, a (d, n, n,
    m) stack, is spun (endomorphism_basis) when corner is None, else read
    off the corners of corner = (parent's stack, rows of P^-1, columns
    of P) (_corner_basis).  Up to `trials` thetas drawn from it are split
    by _fitting_split, and the generators conjugated by the split's P
    (_conjugated).  Only A's top_socle is eliminated; B's is the
    module's minus A's.
    """
    if top_socle is None:
        top_socle = _top_and_socle(module)
    if min(top_socle) <= 1:
        return None
    field = module.field
    if corner is None:
        stack = np.array([b.data for b in endomorphism_basis(module)], dtype=elim_dtype(field.p, 0))
    else:
        stack = _corner_basis(field, *corner)
    if len(stack) <= 1:
        return None
    n = module.n
    for _ in range(trials):
        draws = [field.from_code(stream.below(field.q)) for _ in range(len(stack))]
        theta = MatF(field, combine(field, np.array([draws], dtype=np.int64), stack)[0])
        split = _fitting_split(theta)
        if split is None:
            continue
        cols, da = split
        basis_change = MatF(field, cols)
        inv = basis_change.inv()
        conj = _conjugated(module, inv, basis_change).reshape(n, module.k, n, field.m).swapaxes(0, 1)
        for i, c in enumerate(conj):
            if c[da:, :da].any() or c[:da, da:].any():
                raise BrokenInvariant(f"generator {i + 1} of a module of dim {n} is not block "
                                      f"diagonal in the split {da} + {n - da}")
        parts = []
        for lo, hi in ((0, da), (da, n)):
            gens = [MatF(field, c[lo:hi, lo:hi].copy()) for c in conj]
            part = EAModule(module.p, module.k, field, gens, dim=hi - lo, proven=module.proven)
            # top and socle are additive: B's pair is the module's minus A's
            pair = _top_and_socle(part) if lo == 0 else (top_socle[0] - pair[0], top_socle[1] - pair[1])
            parts.append((part, (stack, inv.data[lo:hi], basis_change.data[:, lo:hi]), pair))
        return tuple(parts)
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
    Only the given module's commutant is spun and its (dim top, dim
    socle) eliminated; each part takes them from its parent (_try_split).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stream = CounterStream(seed)
    pending = [(module, None, None)]
    final = []
    while pending:
        piece, corner, top_socle = pending.pop(0)
        split = _try_split(piece, trials, stream, corner, top_socle)
        if split is None:
            final.append(piece)
        else:
            pending = list(split) + pending
    status = "decomposed" if len(final) > 1 else "no_split_found"
    return FittingResult(final, status, trials)
