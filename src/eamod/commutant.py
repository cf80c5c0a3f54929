"""The array stages of a commutant End(M) found by spinning, in bounded temporaries.

modrep.endomorphism_basis spins the top generators of a module to a
basis (_spin), writes the relations of the spanning tree's other
edges (_relation_rows), cuts their common kernel (_common_kernel),
assembles the endomorphisms of the solutions (_assembled) and reduces
them to the canonical basis (_canonical_basis); a summand's commutant
is read off its parent's as corners (_corner_basis).  See
Holt-Eick-O'Brien, Handbook of Computational Group Theory, ch. 7.

Every float temporary of these stages holds at most CHUNK_BYTES (one
relation, one endomorphism or one word at least), and float_mod's
quotient at most linalg.MOD_BLOCK_BYTES.  What grows with the module
is the word cube, the row buffer, the solutions and the basis
(commutant_bytes), and a commutant that could pass COMMUTANT_CAP is
refused before its spin.
"""

from __future__ import annotations

import numpy as np

from .gf import BadParams, FieldCtx
from .linalg import (
    BrokenInvariant,
    MatF,
    elim_dtype,
    float_mod,
    mul_planes,
    null_space,
    product_dtype,
    rref_planes,
)

# bytes of each float temporary of a stage, past its one-item minimum
CHUNK_BYTES = 1 << 18
# commutants whose holdings (commutant_bytes) could pass this are refused
COMMUTANT_CAP = 1 << 31


def commutant_bytes(field: FieldCtx, n: int, t: int) -> int:
    """Bytes a commutant of a dim-n module with t top generators can hold, past its chunks.

    The (n, n, m, n) word cube; the relation rows' buffer of t n + n rows
    of t n coefficient vectors; d <= t n solutions (an endomorphism is
    fixed by its t images) of t n int64 vectors; their (d, m, n^2)
    elimination stack and the basis read off it, int8 and then int64.
    """
    m, p, width = field.m, field.p, t * n
    cube = n ** 3 * m * elim_dtype(p, 0).itemsize
    rows = (width + n) * width * m * elim_dtype(p, width * m).itemsize
    stack = width * n * n * m * (elim_dtype(p, n * n * m).itemsize + 1 + 8)
    return cube + rows + width * width * m * 8 + stack


def _check_size(field: FieldCtx, n: int, t: int) -> None:
    """Refuse (BadParams) a commutant whose commutant_bytes pass COMMUTANT_CAP."""
    held = commutant_bytes(field, n, t)
    if held > COMMUTANT_CAP:
        raise BadParams(f"the commutant of a module of dim {n} over F_{field.q} (m = {field.m}) "
                        f"with {t} top generators can hold {held} bytes, past the cap of "
                        f"{COMMUTANT_CAP}")


def _spin(field: FieldCtx, stacked: MatF, generators: np.ndarray, gens_exp: np.ndarray):
    """Spin the generators g_j = e_{generators[j]} to a basis S of M.

    stacked is the X_i stacked (k n x n).  Returns (S, words, owner,
    tree).  Column u of S is W_u g_owner[u] for a word W_u in the X_i,
    and words[u] holds the (n, m, n) coefficient planes of W_u (entry
    (r, s, c) is coefficient s of W_u[r, c]) in the narrowest integer
    dtype.  tree[i, v] says that X_i S[:, v] was kept as a column of S;
    its word is X_i W_v.  Each level applies every X_i to the columns
    the last level kept and keeps the candidates that are independent of
    the columns before them; only the kept words are formed
    (_times_words, with gens_exp the expansions of the X_i).
    """
    n, m = stacked.cols, field.m
    k = stacked.rows // n
    t = generators.size
    words = np.zeros((n, n, m, n), dtype=elim_dtype(field.p, 0))  # the narrowest holding 0..p
    words[:t, :, 0] = np.eye(n, dtype=words.dtype)
    owner = np.arange(t)
    basis = np.zeros((n, t, m), dtype=np.int64)
    basis[generators, owner, 0] = 1
    tree = np.zeros((k, n), dtype=bool)
    frontier = owner
    step = _per_chunk(n * m * n * gens_exp.dtype.itemsize)  # words a product
    while frontier.size and owner.size < n:
        f, b = frontier.size, owner.size
        # candidate i f + v is X_i S[:, frontier[v]]
        spun = (stacked @ MatF(field, basis[:, frontier])).data
        candidates = spun.reshape(k, n, f, m).transpose(1, 0, 2, 3).reshape(n, k * f, m)
        _, pivots = MatF(field, np.concatenate([basis, candidates], axis=1)).rref()
        kept = np.array(pivots[b:], dtype=np.intp) - b
        gen, parent = kept // f, frontier[kept % f]
        tree[gen, parent] = True
        new = words[b : b + kept.size]
        for lo in range(0, kept.size, step):
            at = slice(lo, lo + step)
            new[at] = _times_words(field, gens_exp, gen[at], words[parent[at]])
        owner = np.concatenate([owner, owner[parent]])
        basis = np.concatenate([basis, candidates[:, kept]], axis=1)
        frontier = np.arange(b, owner.size)
    return MatF(field, basis), words, owner, tree


def _times_words(field: FieldCtx, gens_exp: np.ndarray, gen: np.ndarray, planes: np.ndarray):
    """X_gen[w] W_w for each w, as (w, n, m, n) planes in gens_exp's dtype, in 0..p-1.

    gens_exp holds the (k, nm, nm) expansions of the X_i in
    product_dtype(field, n) and planes the words' (w, n, m, n) planes;
    the words of each generator are one batched product with it.
    """
    count, n, m, _ = planes.shape
    out = np.empty((count, n * m, n), dtype=gens_exp.dtype)
    # np.unique would import numpy.ma (numpy 2.4), 15 ms at its first call
    for i in np.flatnonzero(np.bincount(gen)).tolist():
        mine = gen == i
        out[mine] = np.matmul(gens_exp[i], planes[mine].reshape(-1, n * m, n).astype(out.dtype))
    return float_mod(out, field.p).reshape(count, n, m, n)


def _per_chunk(item_bytes: int) -> int:
    """How many items of item_bytes a CHUNK_BYTES temporary takes, at least one."""
    return max(1, CHUNK_BYTES // item_bytes)


def _relation_rows(field: FieldCtx, a: np.ndarray, words: np.ndarray, owner: np.ndarray,
                   tree: np.ndarray, gens_exp: np.ndarray):
    """Yield the nonzero rows of each relation (i, v) off the tree, in order, as (rows, m, t n) planes.

    Relation (i, v) is sum_u (A_i)_uv W_u y_o(u) - X_i W_v y_o(v) = 0,
    with a = [A_1 | ... | A_k]; its row r has the coefficient of
    y_j[c] in column j n + c.  The relations are built a chunk at a
    time, as many as CHUNK_BYTES holds in the product dtype, so no
    system of all of them exists.  The first term of a chunk is one
    product a block of words: the expansions of their columns of A, each
    entry (A_i)_uv placed in block owner[u], times the block's words as
    (u, s) x (r, c) planes, cast a block at a time (CHUNK_BYTES of
    them), so the cube is never held in the product dtype.  Then
    p - X_i W_v (_times_words) is added to block owner[v] and the chunk
    reduced.  The rows are held in elim_dtype(p, t n m) with entries in
    0..p-1.
    """
    n, m, p = words.shape[0], field.m, field.p
    t = int(owner.max()) + 1  # generator j owns word j
    rel_i, rel_v = np.divmod(np.flatnonzero(~tree.reshape(-1)), n)
    dtype, elim = gens_exp.dtype, elim_dtype(p, t * n * m)
    per, step = _per_chunk(t * m * n * n * dtype.itemsize), _per_chunk(m * n * n * dtype.itemsize)
    for lo in range(0, rel_i.size, per):
        gen, col = rel_i[lo : lo + per], rel_v[lo : lo + per]
        count = gen.size
        coeffs = np.zeros((count * t, n, m), dtype=np.int64)  # [relation, j, u]
        coeffs.reshape(count, t, n, m)[:, owner, np.arange(n)] = a[:, gen * n + col].transpose(1, 0, 2)
        blocks = (mul_planes(field, coeffs[:, u : u + step],
                             words[u : u + step].transpose(0, 2, 1, 3).reshape(-1, n * n).astype(dtype))
                  for u in range(0, n, step))
        # a sum of reduced block products, at most n (p - 1) + p with the term below, stays exact
        rel = next(blocks)
        for block in blocks:
            rel += block
        del coeffs
        rel = rel.reshape(count, t, m, n, n)
        # rel[w, j, s] is coefficient s of the (r, c) block j of relation w
        term = _times_words(field, gens_exp, gen, words[col]).transpose(0, 2, 1, 3)
        rel[np.arange(count), owner[col]] += p - term
        del term
        rows = float_mod(rel, p).transpose(0, 3, 2, 1, 4).astype(elim, order="C").reshape(count, n, m, t * n)
        del rel
        for relation in rows:
            yield relation[relation.any(axis=(1, 2))]


def _common_kernel(field: FieldCtx, relations, width: int, most: int) -> np.ndarray:
    """The vectors y that every relation row kills, as (width, m, d) planes in elim_dtype(p, 0).

    Entry (j, s, x) is coefficient s of coordinate j of solution x, in
    0..p-1.  relations yields (rows, m, width) planes in elim_dtype(p,
    width m), at most `most` rows each.  The rows are cut into blocks of
    width in order (rows past a block's end carry over to the next), so
    the buffer holds width + most rows.  The first block's kernel is the
    first set of solutions; each later block's image on them is at most
    square, and its kernel cuts them down.
    """
    m = field.m
    buffer = np.empty((width + most, m, width), dtype=elim_dtype(field.p, width * m))
    held = 0
    solutions = None
    for rows in relations:
        buffer[held : held + len(rows)] = rows
        held += len(rows)
        if held >= width:
            solutions = _cut(field, solutions, buffer[:width])
            held -= width
            buffer[:held] = buffer[width : width + held]
    if held or solutions is None:
        solutions = _cut(field, solutions, buffer[:held])
    return solutions


def _cut(field: FieldCtx, solutions, block: np.ndarray) -> np.ndarray:
    """The solutions (None: every vector) that the (r, m, c) block of rows also kills (block destroyed).

    Solutions are (c, m, d) planes as _common_kernel returns them.  The
    block's image on them and the cut are each one _product.
    """
    p, m = field.p, field.m
    if solutions is None:
        kernel = null_space(field, *rref_planes(field, block))
        return kernel.transpose(1, 2, 0).astype(elim_dtype(p, 0), order="C")
    c, _, d = solutions.shape
    # image[r, s, x]: coefficient s of row r of the block times solution x
    image = _product(field, block.transpose(0, 2, 1), solutions,
                     np.empty((len(block), m, d), dtype=elim_dtype(p, d * m)))
    if not image.any():
        return solutions
    kernel = null_space(field, *rref_planes(field, image))
    # the cut solution x' is sum_x kernel[x', x] solution x
    return _product(field, solutions.transpose(0, 2, 1), kernel.transpose(1, 2, 0),
                    np.empty((c, m, len(kernel)), dtype=solutions.dtype))


def _product(field: FieldCtx, a: np.ndarray, planes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The product a b over F_{p^m} of an (r, c, m) a and a (c, m, s) b, written into an (r, m, s) out.

    a and b are coefficient planes in 0..p-1 of any layout; entry (j, t,
    x) of b is coefficient t of b[j, x], and so for out, which is
    C-contiguous, of any dtype that holds 0..p-1, and returned.  It runs
    mul_planes a block of a's rows and of b's columns at a time, so each
    expansion and each block of b in the product dtype holds at most
    CHUNK_BYTES (one row or column at least).
    """
    r, c, m = a.shape
    size = product_dtype(field, c).itemsize
    rows, cols = _per_chunk(c * m * m * size), _per_chunk(c * m * size)
    flat = out.reshape(r * m, -1)
    for lo in range(0, r, rows):
        for co in range(0, flat.shape[1], cols):
            flat[lo * m : (lo + rows) * m, co : co + cols] = mul_planes(
                field, a[lo : lo + rows], planes[:, :, co : co + cols].reshape(c * m, -1))
    return out


def _assembled(field: FieldCtx, solutions: np.ndarray, words: np.ndarray, owner: np.ndarray,
               s_inv: MatF) -> np.ndarray:
    """The (d, m, n^2) elimination stack of the endomorphisms Y_x = [W_u y_o(u)]_u S^-1 of the solutions.

    Row x holds coefficient s of Y_x[r, c] at (s, r n + c), in
    elim_dtype(p, n^2 m).  It is filled a block of solutions at a time,
    as many as CHUNK_BYTES holds: z[u', s, x, r], coefficient s of
    (W_u y_o(u))[r] for u = order[u'] (the words grouped by owner), one
    product a block of words of one owner, cast a block at a time; then
    Y_x^T = S^-T Z_x^T, with the rows of S^-1 in the order of u', is one
    product a block of rows of S^-T, reading z as (u', s) x (x, r)
    planes as it lies.
    """
    n, m, d = len(owner), field.m, solutions.shape[2]
    dtype = product_dtype(field, n)
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(owner.max() + 2)).tolist()
    left = s_inv.data[order].transpose(1, 0, 2)
    work = np.empty((d, m, n, n), dtype=elim_dtype(field.p, n * n * m))
    per = _per_chunk(m * n * n * dtype.itemsize)
    rows = _per_chunk(n * m * m * dtype.itemsize)
    for lo in range(0, d, per):
        b = min(per, d - lo)
        z = np.empty((n, m, b, n), dtype=dtype)
        for j, (start, end) in enumerate(zip(bounds, bounds[1:])):
            part = solutions[j * n : (j + 1) * n, :, lo : lo + b].transpose(2, 0, 1)
            for u in range(start, end, per):
                at = order[u : min(u + per, end)]
                planes = words[at].transpose(3, 2, 0, 1).reshape(n * m, -1).astype(dtype)
                prod = mul_planes(field, part, planes)
                z[u : u + at.size] = prod.reshape(b, m, at.size, n).transpose(2, 1, 0, 3)
        for c in range(0, n, rows):
            # flat[c' m + s, x n + r] is coefficient s of Y_x[r, c + c']
            flat = mul_planes(field, left[c : c + rows], z.reshape(n * m, b * n))
            work[lo : lo + b, :, :, c : c + rows] = flat.reshape(-1, m, b, n).transpose(2, 1, 3, 0)
    return work.reshape(d, m, n * n)


def _canonical_basis(field: FieldCtx, work: np.ndarray, n: int) -> np.ndarray:
    """The canonical basis of the span of an (r, m, n^2) elimination stack's rows (destroyed), a commutant.

    The rows of the span's RREF (rref_planes), with row 0, whose pivot
    is entry (0, 0), replaced by the identity, and the zero rows past
    the rank dropped: a function of the span alone.  Returned as a (d,
    n, n, m) stack in elim_dtype(p, 0), the narrowest holding 0..p.
    """
    reduced, pivots = rref_planes(field, work)
    if not pivots or pivots[0] != 0:
        raise BrokenInvariant(f"a commutant of size {n} over F_{field.q}, spanned by {len(work)} "
                              f"rows, has first pivot {pivots[:1]}, not entry (0, 0)")
    basis = reduced[: len(pivots)].reshape(-1, n, n, field.m).astype(elim_dtype(field.p, 0))
    basis[0] = 0
    basis[0, np.arange(n), np.arange(n), 0] = 1
    return basis


def _corner_basis(field: FieldCtx, parent: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The commutant of a summand, read off its parent's as the corners rows Y cols.

    parent is the parent's (d, n, n, m) commutant stack, rows the
    summand's a rows of P^-1 and cols its a columns of P, for the split's
    basis change P.  Y -> (P^-1 Y P) on the summand's coordinates maps
    End(parent) onto End(summand), since f + 0 commutes with the
    block-diagonal generators, so _canonical_basis of the corners is
    the basis endomorphism_basis gives.  The corners of a block of the
    parent's members, as many as CHUNK_BYTES holds in the product dtype,
    are two mul_planes products that expand only the small a x n
    factors: rows times the members' planes, then cols^T times the
    result, rearranged.  The d corners have rank below d, so the RREF
    steps through every nonzero column of the a^2 and ends with zero rows.
    """
    d, n, _, m = parent.shape
    a = len(rows)
    right = cols.transpose(1, 0, 2)
    work = np.empty((d, m, a * a), dtype=elim_dtype(field.p, a * a * m))
    per = _per_chunk(n * n * m * product_dtype(field, n).itemsize)
    for lo in range(0, d, per):
        part = parent[lo : lo + per]
        b = len(part)
        # planes[j m + t, x n + c] is coefficient t of Y_x[j, c]
        left = mul_planes(field, rows, part.transpose(1, 3, 0, 2).reshape(n * m, b * n)).reshape(a, m, b, n)
        # left[c m + t, x a + i] is coefficient t of (rows Y_x)[i, c]
        left = left.transpose(3, 1, 2, 0).reshape(n * m, b * a)
        corners = mul_planes(field, right, left).reshape(a, m, b, a)
        # corners[c', t, x, i] is coefficient t of (rows Y_x cols)[i, c']
        work[lo : lo + b].reshape(b, m, a, a)[...] = corners.transpose(2, 1, 3, 0)
    return _canonical_basis(field, work, a)
