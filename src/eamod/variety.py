"""Point-set machinery over finite extensions.

Projective enumeration, rank-variety point sets (one Jordan type per
orbit of the symmetries a module declares), zero sets of the p_k form,
generic Jordan type estimation by seeded sampling, maximal-set
membership, wreath-product orbits, point-count dimension estimates and
the Green-vertex witness search.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from .gf import FieldCtx, field_create
from .linalg import (
    Dominance,
    JordanType,
    MatF,
    arr_mul,
    arr_pow,
    dominance_compare,
    elim_dtype,
    expand,
    jordan_types,
    product_dtype,
)
from .modrep import (
    EAModule,
    MismatchedContext,
    Point,
    Symmetry,
    ZeroPoint,
    direct_sum,
    lift_to_extension,
    linear_variety_module,
    point_jordan_type,
)
from .stream import CounterStream
from .symrep import PkPoly, pk_eval_batch

POINT_SWEEP_CAP = 10 ** 7
# variety_points sends the X_alpha of max(1, STACK_BYTES // (8 (nm)^2))
# points through jordan_types at once: 256 KB if they were float64,
# which bounds the float and integer copies that jordan_types makes
STACK_BYTES = 1 << 18


class TooLarge(ValueError):
    """Raised when an enumeration would exceed the point-sweep cap."""


class DuplicateDirection(ValueError):
    """Raised when rank-2 builder directions coincide projectively."""


@dataclass
class PointRecord:
    point: Point
    jordan_type: JordanType


@dataclass
class PointSetReport:
    """Classified projective points plus an optional target comparison."""

    field: FieldCtx
    k: int
    points: list
    target: Optional[str] = None
    verdict: Optional[str] = None
    witnesses: Optional[dict] = None

    def variety_codes(self) -> set:
        return {r.point.codes() for r in self.points if not r.jordan_type.is_free()}

    def counts(self) -> dict:
        nv = sum(1 for r in self.points if not r.jordan_type.is_free())
        return {"points": len(self.points), "variety": nv, "free": len(self.points) - nv}

    def to_dict(self) -> dict:
        out = {
            "field": self.field.to_dict(),
            "k": self.k,
            "points": [
                {
                    "coords": [list(c.coeffs) for c in r.point.coords],
                    "type": list(r.jordan_type.mult),
                    "free": r.jordan_type.is_free(),
                }
                for r in self.points
            ],
            "verdict": self.verdict,
        }
        if self.target is not None:
            out["target"] = self.target
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["point", "jordan_type", "free"])
            for r in self.points:
                writer.writerow([str(r.point), str(r.jordan_type), r.jordan_type.is_free()])


def projective_codes(field: FieldCtx, k: int) -> np.ndarray:
    """Coordinate codes of all normalized projective points, an (N, k) array.

    Rows are in ascending lexicographic order, the order of
    enumerate_projective; there are (q^k - 1)/(q - 1) of them.  Raises
    TooLarge past the 10^7 affine cap.
    """
    q = field.q
    if q ** k > POINT_SWEEP_CAP:
        raise TooLarge(f"{q}^{k} exceeds the enumeration cap")
    blocks = [np.zeros((0, k), dtype=np.int64)]
    for lead in range(k - 1, -1, -1):
        # leading zeros, a 1 at lead, then every suffix in base-q order
        block = np.zeros((q ** (k - lead - 1), k), dtype=np.int64)
        block[:, lead] = 1
        rest = np.arange(len(block))
        for j in range(k - 1, lead, -1):
            block[:, j] = rest % q
            rest //= q
        blocks.append(block)
    return np.concatenate(blocks)


def _points(field: FieldCtx, codes: np.ndarray) -> list:
    els = [field.el(field.from_code(c)) for c in range(field.q)]
    return [Point(tuple(els[c] for c in row)) for row in codes.tolist()]


def enumerate_projective(field: FieldCtx, k: int):
    """All normalized projective points, sorted by coordinate codes.

    There are (q^k - 1)/(q - 1) of them; raises TooLarge past the
    10^7 affine cap.
    """
    return _points(field, projective_codes(field, k))


def _elements(field: FieldCtx) -> np.ndarray:
    """(q, m) coefficient vectors of the field elements, indexed by code."""
    return np.array([field.from_code(c) for c in range(field.q)], dtype=np.int64)


def orbit_representatives(field: FieldCtx, codes: np.ndarray, symmetry: Symmetry) -> np.ndarray:
    """For each point of projective_codes, the index of the first point of its orbit.

    The group is generated by the declared symmetries: Frobenius
    x -> x^p on every coordinate, and S_k by a transposition and a
    k-cycle of the coordinates.  Images are taken on codes (a table of
    p-th powers, permuted columns) and renormalized by multiplying with
    the inverse of the leading coordinate, read from a table.  Labels
    then fall to the least index reachable along the generators.
    """
    n, k = codes.shape
    els = _elements(field)
    weights = field.p ** np.arange(field.m)
    images = []
    if Symmetry.FROBENIUS in symmetry and field.m > 1:
        images.append((arr_pow(field, els, field.p) @ weights)[codes])
    if Symmetry.PERMUTATIONS in symmetry and k > 1:
        images.append(codes[:, [1, 0] + list(range(2, k))])
        if k > 2:
            images.append(np.roll(codes, 1, axis=1))
    inverse = arr_pow(field, els, field.q - 2) @ weights
    place = field.q ** np.arange(k - 1, -1, -1)
    keys = codes @ place
    moves = []
    for image in images:
        lead = image[np.arange(n), (image != 0).argmax(axis=1)]
        normalized = arr_mul(field, els[inverse[lead]][:, None], els[image]) @ weights
        moves.append(np.searchsorted(keys, normalized @ place))
    rep = np.arange(n)
    while True:
        prev = rep
        for move in moves:
            rep = np.minimum(rep, rep[move])
        rep = rep[rep]
        if np.array_equal(rep, prev):
            return rep


def _sweep_types(module: EAModule, codes: np.ndarray) -> list:
    """Jordan types of X_alpha at the points of an (N, k) code array, a stack at a time.

    The F_p expansion of a*X_i is expand(X_i)(I (x) C(a)), C(a) the
    multiplication matrix of a, so a stack of X_alpha is built straight
    from the codes as sum_i expand(X_i)(I (x) C(alpha_i)): one batched
    product with inner dimension km, whose entries reach k m (p-1)^2.
    projective_codes keeps q^k <= 10^7, so that is far below 2^53.
    Stacks hold max(1, STACK_BYTES // (8 (nm)^2)) points, a number
    fixed by nm.
    """
    field, n, k = module.field, module.n, module.k
    m, p = field.m, field.p
    size = n * m
    if not len(codes):
        return []
    exact = product_dtype(field, k)
    # the m columns of every block column of expand(X_1), ..., expand(X_k)
    # side by side, to be multiplied by C(alpha_1), ..., C(alpha_k) stacked
    gens = [expand(field, g.data, exact).reshape(size * n, m) for g in module.gens]
    gens = np.concatenate(gens, axis=1)
    mult = expand(field, _elements(field)[:, None], exact).reshape(field.q, m, m)
    # holds the unreduced sums as well as the elimination's reach
    stage = elim_dtype(p, max(size, k * m))
    step = max(1, STACK_BYTES // (8 * size * size)) if size else len(codes)
    types = []
    for start in range(0, len(codes), step):
        chunk = codes[start : start + step]
        stack = np.matmul(gens, mult[chunk].reshape(len(chunk), k * m, m))
        stack = stack.reshape(len(chunk), size, size).astype(stage)
        stack %= p
        types += jordan_types(field, stack, p)
    return types


def variety_points(module: EAModule, field: FieldCtx) -> PointSetReport:
    """Jordan type at every projective point; freeness is read from the type.

    The type is computed once per orbit of the symmetries the module
    declares (module.symmetry), at the orbit's first point, and copied
    to the others.  lift_to_extension declares Frobenius and d_r adds
    coordinate permutations; loaded files, bare EAModule(...) and
    modules derived by direct_sum, tensor, wedge and the like declare
    none and get one type per point.

    The orbit representatives go through jordan_types in stacks whose
    X_alpha are built from the point codes (_sweep_types); a stack
    holds as many as fit in STACK_BYTES of float64 expansions, at least
    one, so its size follows from the module's dimension and field.

    The module must already live over the sweep field; subfield modules
    are re-built over the larger field rather than embedded.
    """
    if field != module.field:
        raise MismatchedContext("module must be constructed over the sweep field")
    codes = projective_codes(field, module.k)
    reps = orbit_representatives(field, codes, module.symmetry)
    firsts = np.flatnonzero(reps == np.arange(len(reps)))
    type_of = dict(zip(firsts.tolist(), _sweep_types(module, codes[firsts])))
    points = _points(field, codes)
    records = [PointRecord(pt, type_of[rep]) for pt, rep in zip(points, reps.tolist())]
    return PointSetReport(field, module.k, records)


def zero_points(poly: PkPoly, field: FieldCtx):
    """Projective points where p_k vanishes."""
    codes = projective_codes(field, poly.k)
    values = pk_eval_batch(poly, field, _elements(field)[codes])
    return _points(field, codes[~values.any(axis=1)])


def count_affine_zeros(poly: PkPoly, field: FieldCtx) -> int:
    """Number of affine zeros of p_k over the field, origin included.

    p_k is homogeneous, so each projective zero stands for its q-1
    nonzero multiples; the origin is a zero unless p_1 = 1.  Raises
    TooLarge past the 10^7 sweep cap.
    """
    origin = 1 if poly.k > 1 else 0
    return origin + (field.q - 1) * len(zero_points(poly, field))


def compare_sets(report: PointSetReport, target_points, target_tag: str = "target") -> str:
    """Compare the report's variety set against a target point set.

    Sets the verdict (Equal / ProperSubset / Superset / Incomparable) and
    witness lists on the report, and returns the verdict.
    """
    mine = {r.point.codes(): r.point for r in report.points if not r.jordan_type.is_free()}
    target_pts = {q.codes(): q for q in map(Point.normalize, target_points)}
    only_mine = sorted(mine.keys() - target_pts.keys())
    only_theirs = sorted(target_pts.keys() - mine.keys())
    if not only_mine and not only_theirs:
        verdict = "Equal"
    elif not only_mine:
        verdict = "ProperSubset"
    elif not only_theirs:
        verdict = "Superset"
    else:
        verdict = "Incomparable"
    report.target = target_tag
    report.verdict = verdict
    report.witnesses = {
        "variety_not_target": [str(mine[c]) for c in only_mine],
        "target_not_variety": [str(target_pts[c]) for c in only_theirs],
    }
    return verdict


@dataclass
class GenericEvidence:
    samples: int
    ext_degree: int
    attained: int
    retried: bool = False
    inconclusive: bool = False


def _sample_types(module, ext, trials, seed, key):
    q = ext.q
    lifted = lift_to_extension(module, ext)
    types = []
    for j in range(trials):
        stream = CounterStream(seed, key + j)
        coords = tuple(
            ext.el(ext.from_code(1 + stream.below(q - 1))) for _ in range(module.k)
        )
        types.append(point_jordan_type(lifted, Point(coords)))
    return types


def _dominance_maxima(types):
    distinct = []
    for t in types:
        if t not in distinct:
            distinct.append(t)
    maxima = []
    for t in distinct:
        dominated = any(
            dominance_compare(o, t) is Dominance.GREATER for o in distinct if o != t
        )
        if not dominated:
            maxima.append(t)
    return maxima


def generic_type(module: EAModule, ext_degree: int = 4, trials: int = 24, seed: int = 7):
    """Estimate the generic Jordan type by sampling all-nonzero points.

    Draws `trials` points with coordinates uniform in F_{p^m} minus 0
    (streams keyed by (seed, sample index)), and returns the dominance
    maximum of the observed types with attainment evidence.  If the top
    types are incomparable the sweep retries once over F_{p^{m+2}} and
    reports inconclusive if still unordered.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ext = field_create(module.p, ext_degree) if module.field.m != ext_degree else module.field
    types = _sample_types(module, ext, trials, seed, key=0)
    maxima = _dominance_maxima(types)
    if len(maxima) == 1:
        top = maxima[0]
        return top, GenericEvidence(trials, ext_degree, types.count(top))
    retry_degree = ext_degree + 2
    ext2 = field_create(module.p, retry_degree)
    types2 = _sample_types(module, ext2, trials, seed, key=trials)
    maxima2 = _dominance_maxima(types2)
    if len(maxima2) == 1:
        top = maxima2[0]
        return top, GenericEvidence(trials, retry_degree, types2.count(top), retried=True)
    return None, GenericEvidence(trials, retry_degree, 0, retried=True, inconclusive=True)


def in_max_jordan_set(module: EAModule, alpha, generic: JordanType) -> bool:
    """Whether the point attains the (given) generic Jordan type."""
    pt = alpha if isinstance(alpha, Point) else Point.of(module.field, alpha)
    if pt.is_zero():
        raise ZeroPoint("maximal-set membership is tested at nonzero points")
    return point_jordan_type(module, pt) == generic


def wreath_act(gamma, sigma, alpha: Point) -> Point:
    """Coordinate scaling by gamma in (F_p^x)^k, then permutation by sigma.

    sigma maps position i to sigma[i] (0-based); the result has
    beta_i = (gamma . alpha)_{sigma^{-1}(i)}.
    """
    pt = alpha
    if pt.is_zero():
        raise ZeroPoint("the wreath product acts on nonzero points")
    k = pt.k
    field = pt.coords[0].ctx
    if len(gamma) != k or sorted(sigma) != list(range(k)):
        raise ValueError("gamma needs k units and sigma must be a permutation of 0..k-1")
    scaled = []
    for g, c in zip(gamma, pt.coords):
        if int(g) % field.p == 0:
            raise ValueError("gamma entries must be units mod p")
        scaled.append(c * int(g))
    inv = [0] * k
    for i, s in enumerate(sigma):
        inv[s] = i
    return Point(tuple(scaled[inv[i]] for i in range(k)))


def dimension_estimate(count_m: int, count_2m: int, q_m: int) -> int:
    """Estimated variety dimension from affine counts over F_{q} and F_{q^2}.

    r = round(log(N_{2m}/N_m) / log(q)); a documented heuristic, valid
    when the components are defined over F_{q}.
    """
    if count_m < 1:
        raise ValueError("need at least one zero over the smaller field")
    return round(math.log(count_2m / count_m) / math.log(q_m))


def fp_subspaces(p: int, k: int, dim: int):
    """Canonical RREF bases of all dim-dimensional subspaces of F_p^k."""
    out = []
    for pivots in combinations(range(k), dim):
        free_pos = [
            (r, c)
            for r in range(dim)
            for c in range(k)
            if c > pivots[r] and c not in pivots
        ]
        for vals in product(range(p), repeat=len(free_pos)):
            rows = [[0] * k for _ in range(dim)]
            for r in range(dim):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free_pos, vals):
                rows[r][c] = v
            out.append(rows)
    return out


def green_witness(module: EAModule, field: FieldCtx) -> Optional[Point]:
    """A variety point lying in no proper base subspace, if one exists.

    Base subspaces are spanned by vectors with prime-field coordinates.
    Each proper one lies in a base hyperplane sum c_i x_i = 0 with c in
    F_p^k, so a point avoids them all exactly when its coordinates are
    linearly independent over F_p.  A witness certifies that the variety
    is not covered by proper base subspaces.
    """
    prime = field_create(field.p, 1)
    for rec in variety_points(module, field).points:
        if rec.jordan_type.is_free():
            continue
        coeffs = np.array([c.coeffs for c in rec.point.coords], dtype=np.int64)
        if MatF(prime, coeffs[:, :, None]).rank() == module.k:
            return rec.point
    return None


def dv_rank2_builder(p: int, field: FieldCtx, directions) -> EAModule:
    """Direct sum of one line module per direction; dimension d*p.

    Realizes the rank-2 lower bound construction: the variety is the
    union of the d distinct lines.
    """
    pts = [Point.of(field, d) for d in directions]
    if len(pts) < 1:
        raise ValueError("need at least one direction")
    if any(pt.k != 2 for pt in pts):
        raise ValueError("directions must have two coordinates")
    seen = set()
    for pt in pts:
        code = pt.normalize().codes()
        if code in seen:
            raise DuplicateDirection(f"direction {pt} repeats projectively")
        seen.add(code)
    summands = [linear_variety_module(p, 2, field, [list(pt.coords)]) for pt in pts]
    acc = summands[0]
    for s in summands[1:]:
        acc = direct_sum(acc, s)
    return acc
