"""Independent checks of the benchmark's outputs.

Nothing here imports eamod.  Field arithmetic is rebuilt from the stored
irreducible polynomial alone (multiplication tables on integer codes),
and every expected value is computed from the mathematics, not read from
the program: the zero set of p_k, ranks of small matrices, the count of
projective points.  Each check takes plain data (lists, tuples, ints)
and returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from itertools import product
from math import comb


class Fq:
    """F_{p^m} from an ascending monic irreducible; elements are codes.

    The code of a coefficient tuple (a_0, ..., a_{m-1}) is
    a_0 + a_1 p + ... + a_{m-1} p^{m-1}.
    """

    def __init__(self, p: int, irr):
        self.p = p
        self.m = len(irr) - 1
        self.q = p ** self.m
        self.irr = tuple(irr)
        self.mul_table = [[self._mul_codes(a, b) for b in range(self.q)] for a in range(self.q)]
        self.inv_table = [0] * self.q
        for a in range(1, self.q):
            self.inv_table[a] = next(b for b in range(1, self.q) if self.mul_table[a][b] == 1)

    def coeffs(self, code: int) -> tuple:
        out = []
        for _ in range(self.m):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def code(self, coeffs) -> int:
        v = 0
        for c in reversed(tuple(coeffs)):
            v = v * self.p + int(c) % self.p
        return v

    def _mul_codes(self, a: int, b: int) -> int:
        x, y, p, m = self.coeffs(a), self.coeffs(b), self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                conv[i + j] += xi * yj
        # reduce by the monic irreducible from the top degree down
        for d in range(2 * m - 2, m - 1, -1):
            top = conv[d] % p
            if top:
                for t in range(m + 1):
                    conv[d - m + t] -= top * self.irr[t]
        return self.code([c % p for c in conv[:m]])

    def add(self, a: int, b: int) -> int:
        x, y = self.coeffs(a), self.coeffs(b)
        return self.code([(u + v) % self.p for u, v in zip(x, y)])

    def neg(self, a: int) -> int:
        return self.code([(-u) % self.p for u in self.coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def normalize(self, point) -> tuple:
        """Scale so the first nonzero coordinate is 1."""
        lead = next(c for c in point if c)
        inv = self.inv_table[lead]
        return tuple(self.mul(c, inv) for c in point)

    def projective_points(self, k: int) -> list:
        pts = []
        for lead in range(k):
            for suffix in product(range(self.q), repeat=k - lead - 1):
                pts.append((0,) * lead + (1,) + suffix)
        return pts

    def pk(self, point) -> int:
        """p_k(x) = sum_i (prod_{j != i} x_j)^{p-1}."""
        total = 0
        for i in range(len(point)):
            prod = 1
            for j, c in enumerate(point):
                if j != i:
                    prod = self.mul(prod, c)
            total = self.add(total, self.pow(prod, self.p - 1))
        return total

    # -- small dense matrices as lists of lists of codes --

    def matmul(self, a, b):
        n, inner, cols = len(a), len(b), len(b[0]) if b else 0
        out = []
        for i in range(n):
            row = []
            for j in range(cols):
                acc = 0
                for t in range(inner):
                    if a[i][t] and b[t][j]:
                        acc = self.add(acc, self.mul(a[i][t], b[t][j]))
                row.append(acc)
            out.append(row)
        return out

    def combine(self, coeffs, mats):
        n = len(mats[0])
        out = [[0] * n for _ in range(n)]
        for c, mat in zip(coeffs, mats):
            for i in range(n):
                for j in range(n):
                    out[i][j] = self.add(out[i][j], self.mul(c, mat[i][j]))
        return out

    def rank(self, mat) -> int:
        work = [list(row) for row in mat]
        rows, cols = len(work), len(work[0]) if work else 0
        r = 0
        for c in range(cols):
            pr = next((i for i in range(r, rows) if work[i][c]), None)
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            inv = self.inv_table[work[r][c]]
            work[r] = [self.mul(inv, v) for v in work[r]]
            for i in range(rows):
                if i != r and work[i][c]:
                    f = self.neg(work[i][c])
                    work[i] = [self.add(v, self.mul(f, w)) for v, w in zip(work[i], work[r])]
            r += 1
            if r == rows:
                break
        return r


def prime_field(p: int) -> Fq:
    return Fq(p, (0, 1))


def _power(field: Fq, mat, e: int):
    out = mat
    for _ in range(e - 1):
        out = field.matmul(out, mat)
    return out


def free_type(p: int, dim: int) -> tuple:
    """Multiplicities of the free Jordan type [p]^{dim/p}."""
    return (0,) * (p - 1) + (dim // p,)


def type_total(mult) -> int:
    return sum((r + 1) * a for r, a in enumerate(mult))


# -- sweep-d21-f27 --


def check_sweep(out: dict, p: int, k: int, r: int, irr) -> list:
    """out: dim, points (coefficient tuples per coordinate), types, variety,
    verdict, for D(r) over F_{p^m} built on irr.

    `variety` lists the points the program found not free.
    """
    field = Fq(p, irr)
    problems = []
    dim = comb(k * p - 2, r)
    if out["dim"] != dim:
        problems.append(f"dim {out['dim']}, expected C({k * p - 2},{r}) = {dim}")
    expected_count = (field.q ** k - 1) // (field.q - 1)
    points = [tuple(field.code(c) for c in pt) for pt in out["points"]]
    if len(points) != expected_count:
        problems.append(f"swept {len(points)} points, expected (q^k-1)/(q-1) = {expected_count}")
    normalized = {field.normalize(pt) for pt in points if any(pt)}
    if len(normalized) != len(points):
        problems.append("swept points are not distinct nonzero projective points")
    target = {pt for pt in field.projective_points(k) if field.pk(pt) == 0}
    variety = {field.normalize(tuple(field.code(c) for c in pt)) for pt in out["variety"]}
    if variety != target:
        problems.append(
            f"non-free set ({len(variety)} points) differs from V(p_{k}) ({len(target)} points)"
        )
    free = free_type(p, dim)
    for pt, mult in zip(points, out["types"]):
        on_variety = field.normalize(pt) in variety
        if type_total(mult) != dim:
            problems.append(f"type {mult} at {pt} does not total {dim}")
        elif not on_variety and tuple(mult) != free:
            problems.append(f"free point {pt} has type {mult}, expected {free}")
        elif on_variety and tuple(mult) == free:
            problems.append(f"non-free point {pt} has the free type {mult}")
    if out["verdict"] != "Equal":
        problems.append(f"program's own comparison says {out['verdict']}, expected Equal")
    return problems


# -- jordan-d715-f5 --


def check_jordan(out: dict, p: int, k: int, r: int) -> list:
    """out: dim and one (point, type multiplicities, free flag) per query.

    The module is D(r) = wedge^r D(1), dim C(kp-2, r); it is free exactly
    off V(p_k) when r = p-1 and k is not 1 mod p.
    """
    field = prime_field(p)
    problems = []
    dim = comb(k * p - 2, r)
    if out["dim"] != dim:
        problems.append(f"dim {out['dim']}, expected C({k * p - 2},{r}) = {dim}")
    on = off = 0
    for query in out["queries"]:
        pt = tuple(c % p for c in query["point"])
        mult, free = tuple(query["type"]), query["free"]
        if type_total(mult) != dim:
            problems.append(f"type {mult} at {pt} does not total {dim}")
        if field.pk(pt) != 0:
            off += 1
            if mult != free_type(p, dim):
                problems.append(f"off-variety point {pt} has type {mult}, expected [{p}]^{dim // p}")
            if not free:
                problems.append(f"off-variety point {pt} reported not free")
        else:
            on += 1
            if free:
                problems.append(f"point {pt} on V(p_{k}) reported free")
            if mult == free_type(p, dim):
                problems.append(f"point {pt} on V(p_{k}) has the free type")
    if (on, off) != (1, 1):
        problems.append(f"expected one point on V(p_{k}) and one off it, got {on} and {off}")
    return problems


# -- decompose-d30-f9 --


def check_decompose(out: dict, p: int, irr, directions) -> list:
    """out: status and summands, each a list of k=2 generator matrices
    given as nested [row][col][coefficient] lists.

    Every summand must be a valid dim-p module whose variety over F_q is
    one line, and the lines must be the directions the sum was built from.
    """
    field = Fq(p, irr)
    problems = []
    summands = out["summands"]
    if out["status"] != "decomposed":
        problems.append(f"status {out['status']}, expected decomposed")
    if len(summands) != len(directions):
        problems.append(f"{len(summands)} summands, expected {len(directions)}")
    lines = []
    for s, gens in enumerate(summands):
        mats = [[[field.code(c) for c in row] for row in g] for g in gens]
        dim = len(mats[0]) if mats else 0
        if len(mats) != 2 or dim != p or any(len(g) != dim or len(g[0]) != dim for g in mats):
            problems.append(f"summand {s} is not two {p}x{p} matrices")
            continue
        if any(any(_power(field, g, p)[i][j] for i in range(dim) for j in range(dim)) for g in mats):
            problems.append(f"summand {s}: a generator X has X^{p} != 0")
        if field.matmul(mats[0], mats[1]) != field.matmul(mats[1], mats[0]):
            problems.append(f"summand {s}: generators do not commute")
        not_free = [
            pt
            for pt in field.projective_points(2)
            if field.rank(_power(field, field.combine(pt, mats), p - 1)) != dim // p
        ]
        if len(not_free) != 1:
            problems.append(f"summand {s}: variety over F_{field.q} has {len(not_free)} points, expected 1 line")
        else:
            lines.append(not_free[0])
    built = {field.normalize(tuple(field.code(c) for c in d)) for d in directions}
    if len(set(lines)) != len(lines):
        problems.append("two summands share a line")
    if not problems and set(lines) != built:
        problems.append("summand lines differ from the directions the module was built from")
    return problems
