"""The symmetric-group constructions restricted to E_k.

Two independent models of the natural simple module D(1) of dimension
kp-2 are built: one from the tabloid permutation action of the k
disjoint p-cycles, one assembled directly from the block action table.
basis_change_check conjugates one into the other through the explicit
chain-basis formulas and is the integrity anchor for everything
downstream (D(r), rank sweeps, variety comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import BadParams, FieldCtx, check_prime
from .linalg import MatF
from .modrep import EAModule, Symmetry, lift_to_extension, validate, wedge


class SingularBasis(ValueError):
    """Raised if the assembled chain-basis matrix is not invertible."""


@dataclass(frozen=True)
class SymContext:
    """Symbols 1..kp permuted by k disjoint p-cycles g_1..g_k; p odd."""

    p: int
    k: int

    def __post_init__(self):
        check_prime(self.p)
        if self.p < 3:
            raise BadParams("p must be an odd prime (p >= 3)")
        if self.k < 1:
            raise BadParams("rank k must be >= 1")

    @property
    def n(self) -> int:
        return self.k * self.p

    def cycles(self):
        """1-based supports of g_1..g_k."""
        return [tuple(range(i * self.p + 1, (i + 1) * self.p + 1)) for i in range(self.k)]

    def apply_cycle(self, i: int, point: int) -> int:
        """Image of a 1-based symbol under g_i (i is 1-based)."""
        lo = (i - 1) * self.p + 1
        hi = i * self.p
        if lo <= point <= hi:
            return lo + (point - lo + 1) % self.p
        return point


def perm_model_d1(ctx: SymContext, field: FieldCtx) -> EAModule:
    """D(1) from the tabloid permutation model.

    Tabloids t_1..t_kp carry the permutation action; D(1) is the span of
    e_i = t_i - t_1 modulo the trivial submodule, expressed in the basis
    {e-bar_3, ..., e-bar_kp} (the e-bar_2 coordinate is eliminated
    through the spanning relation).
    """
    if field.p != ctx.p:
        raise ValueError("field characteristic must equal p")
    p, k, n = ctx.p, ctx.k, ctx.n
    dim = n - 2
    gens = []
    for i in range(1, k + 1):
        mat = np.zeros((dim, dim, field.m), dtype=np.int64)
        g1 = ctx.apply_cycle(i, 1)
        for j in range(3, n + 1):
            col = j - 3
            # g e_j = t_{g(j)} - t_{g(1)} expressed over e_2..e_kp
            e_coords = [0] * (n + 1)
            e_coords[ctx.apply_cycle(i, j)] += 1
            e_coords[g1] -= 1
            c2 = e_coords[2]
            for s in range(3, n + 1):
                mat[s - 3, col, 0] = (e_coords[s] - c2) % p
        eye = MatF.identity(field, dim)
        gens.append(MatF(field, mat) - eye)
    return EAModule(p, k, field, gens)


def _block_positions(p: int, k: int):
    """Index maps for the chain basis: pos1[r] and pos[i][r]."""
    pos1 = list(range(p - 2))
    pos = {i: [(p - 2) + (i - 2) * p + r for r in range(p)] for i in range(2, k + 1)}
    return pos1, pos


def block_model_d1(ctx: SymContext, field: FieldCtx) -> EAModule:
    """D(1) assembled directly from the block action table.

    The chain through b_1 has p-2 vectors, each chain through b_i
    (i >= 2) has p; X_1 sends every b_i to b_1 and the end of its own
    chain to the sum of the other chain ends, X_j moves only its own
    chain.  X_i X_j = 0 for i != j by construction.
    """
    if field.p != ctx.p:
        raise ValueError("field characteristic must equal p")
    p, k = ctx.p, ctx.k
    dim = ctx.n - 2
    pos1, pos = _block_positions(p, k)
    mats = [np.zeros((dim, dim, field.m), dtype=np.int64) for _ in range(k)]
    x1 = mats[0]
    for r in range(p - 3):
        x1[pos1[r + 1], pos1[r], 0] = 1
    for i in range(2, k + 1):
        x1[pos[i][p - 1], pos1[p - 3], 0] = 1
        x1[pos1[0], pos[i][0], 0] = 1
    for j in range(2, k + 1):
        xj = mats[j - 1]
        for r in range(p - 1):
            xj[pos[j][r + 1], pos[j][r], 0] = 1
    return EAModule(p, k, field, [MatF(field, d) for d in mats])


def chain_basis_matrix(ctx: SymContext, field: FieldCtx) -> MatF:
    """Change of basis from the chain basis to {e-bar_3..e-bar_kp}.

    Columns follow the chain ordering of block_model_d1; entries come
    from the closed binomial formulas, with the end of the b_1 chain
    given by sum_s s * e-bar_{s+2} (the printed form of that vector
    carries a redundant tail that the e-bar_2 elimination removes).
    """
    p, k = ctx.p, ctx.k
    dim = ctx.n - 2
    pos1, pos = _block_positions(p, k)

    def row(j):  # e-bar_j -> row index
        return j - 3

    cols = np.zeros((dim, dim, field.m), dtype=np.int64)
    for r in range(p - 2):
        col = pos1[r]
        if r < p - 3:
            for s in range(1, r + 3):
                coeff = ((-1) ** (r - s + 3)) * math.comb(r + 1, s - 1)
                cols[row(s + 2), col, 0] = coeff % p
        else:
            for s in range(1, p - 1):
                cols[row(s + 2), col, 0] = s % p
    for i in range(2, k + 1):
        base = (i - 1) * p  # e-bar_{i,s} = e-bar_{(i-1)p+s}
        for r in range(p):
            col = pos[i][r]
            if r == 0:
                cols[row(base + 1), col, 0] = 1
                cols[row(3), col, 0] = (p - 1)
            else:
                for s in range(1, r + 2):
                    coeff = ((-1) ** (r - s + 1)) * math.comb(r, s - 1)
                    cols[row(base + s), col, 0] = coeff % p
    return MatF(field, cols)


def basis_change_check(ctx: SymContext, field: FieldCtx) -> bool:
    """Conjugate the permutation model by the chain-basis matrix and
    compare with the block model, entry for entry."""
    perm = perm_model_d1(ctx, field)
    block = block_model_d1(ctx, field)
    cmat = chain_basis_matrix(ctx, field)
    try:
        cinv = cmat.inv()
    except ZeroDivisionError:
        raise SingularBasis("chain-basis matrix is singular") from None
    return all(
        cinv @ xp @ cmat == xb for xp, xb in zip(perm.gens, block.gens)
    )


def d_r(ctx: SymContext, field: FieldCtx, r: int) -> EAModule:
    """D(r) as the r-th exterior power of the block model of D(1).

    Every entry lies in F_p, so the power is taken and validated over
    F_p and lifted, proof and all; a sweep reads Frobenius off the
    entries.  D(r) declares Symmetry.PERMUTATIONS: a permutation of the
    coordinates relabels the p-cycles, as S_kp does by conjugation, so
    it keeps D(r) up to isomorphism and every Jordan type.
    """
    if not 0 <= r <= ctx.n - 2:
        raise ValueError(f"r must lie in 0..{ctx.n - 2}")
    prime = FieldCtx(field.p, 1, (0, 1))
    lifted = lift_to_extension(validate(wedge(block_model_d1(ctx, prime), r)), field)
    return EAModule(lifted.p, lifted.k, field, lifted.gens, symmetry=Symmetry.PERMUTATIONS, proven=True)


@dataclass(frozen=True)
class PkPoly:
    """The homogeneous form sum_i (x_1...x_i-hat...x_k)^{p-1}; p_1 = 1."""

    p: int
    k: int


def pk_eval_batch(poly: PkPoly, field: FieldCtx, codes: np.ndarray) -> np.ndarray:
    """p_k at the rows of an (N, k) array of codes; returns (N, m) coefficient vectors.

    On the field's log tables (FieldCtx.code_logs), term i, the product
    of the coordinates but x_i to the power p-1, is exp[(p-1) sum_{j != i}
    log x_j], masked to 0 where one of those coordinates is 0.  The terms
    are summed as coefficient vectors.
    """
    n_pts, k = codes.shape
    if k != poly.k:
        raise ValueError(f"expected {poly.k} coordinates")
    if poly.k == 1:
        return field.from_codes(np.ones(n_pts, dtype=np.int64))
    exp, log = field.code_logs()
    logs = log[codes]
    zeros = codes == 0
    others = logs.sum(axis=1, keepdims=True) - logs
    masked = zeros.sum(axis=1, keepdims=True) > zeros
    terms = np.where(masked, 0, exp[(poly.p - 1) * others % (field.q - 1)])
    return field.from_codes(terms).sum(axis=1) % field.p


def rank_lemma_check(ctx: SymContext, field: FieldCtx) -> dict:
    """Check the rank clauses on S = [X_alpha] at every nonzero point.

    Checks, per point: rank(S) attains (k-1)(p-1)+p-3 exactly on the
    expected point set; for all-nonzero points rank(S^{p-3}) = 3k-2,
    rank(S^{p-2}) = 2k-2, and rank(S^{p-1}) = k-1 iff p_k(alpha) != 0.

    Scaling alpha by c != 0 keeps the ranks of the powers of S, the zero
    pattern of alpha and whether the homogeneous p_k vanishes, so every
    clause is read once per projective point of a variety_points sweep,
    as a mask over its codes: the ranks from the Jordan type of each
    orbit, p_k from pk_eval_batch on the codes.  Each point stands for
    its q-1 affine multiples in the counts; failures list the normalized
    projective points in code order.  Raises TooLarge past the 10^7
    sweep cap.

    At p = 3 the "all coordinates nonzero" condition in the first clause
    is amended to "at most one coordinate zero": with p - 2 = 1 the b_1
    chain degenerates and a single X_i already attains the maximal rank
    (verified against both models; the p >= 5 counting argument does not
    carry over).  Clause 2 would restate the module dimension, rank(S^0)
    = kp-2, so it is left out; clauses 1, 3 and 4 keep their numbers.
    """
    from .variety import variety_points

    if ctx.k < 2:
        raise ValueError("rank sweep requires k >= 2")
    p, k = ctx.p, ctx.k
    report = variety_points(block_model_d1(ctx, field), field)
    codes = report.codes
    # ranks of S, S^{p-3}, S^{p-2}, S^{p-1} at every point, read once per orbit
    ranks = np.array([[t.rank(e) for e in (1, p - 3, p - 2, p - 1)] for t in report.types])
    ranks = ranks[report.orbit]
    zeros = (codes == 0).sum(axis=1)
    inner = zeros == 0
    pk_nonzero = pk_eval_batch(PkPoly(p, k), field, codes).any(axis=1)

    clause_one = (
        "rank(S) = (k-1)(p-1)+p-3 iff all coords nonzero"
        if p >= 5
        else "rank(S) = (k-1)(p-1)+p-3 iff at most one coord zero (p=3 amendment)"
    )
    clause_names = [
        clause_one,
        "rank(S^{p-3}) = 3k-2 at all-nonzero points",
        "rank(S^{p-2}) = 2k-2 at all-nonzero points",
        "rank(S^{p-1}) = k-1 iff p_k(alpha) != 0, at all-nonzero points",
    ]
    numbers = (1, 3, 4) if p == 3 else (1, 2, 3, 4)
    held = [
        (ranks[:, 0] == (k - 1) * (p - 1) + p - 3) == (inner if p >= 5 else zeros <= 1),
        ranks[:, 1] == 3 * k - 2,
        ranks[:, 2] == 2 * k - 2,
        (ranks[:, 3] == k - 1) == pk_nonzero,
    ]
    scopes = [np.ones(len(codes), dtype=bool), inner, inner, inner]
    checked = [(field.q - 1) * int(scope.sum()) for scope in scopes]
    failures = [field.from_codes(codes[scope & ~ok]).tolist() for scope, ok in zip(scopes, held)]
    return {
        "p": p,
        "k": k,
        "field": field.to_dict(),
        "points_checked": checked[0],
        "clauses": [
            {
                "number": i + 1,
                "clause": clause_names[i],
                "points_checked": checked[i],
                "failures": failures[i],
            }
            for i in range(4)
            if i + 1 in numbers
        ],
        "pass": all(not failures[i - 1] for i in numbers),
    }
